"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Shared scans are computed once per session through the same drivers the CLI
uses.  Criterion 6 checks the discontinuity the crossing has, a flip of the
ground state's parity, rather than a jump of the photon number, which is
smooth there; see the notes next to it for the physics of the regime it
probes.
"""

import math
import time

import numpy as np
import pytest

from rabivar import (
    AnsatzKind,
    ModelParams,
    Truncation,
    asymptotic_params,
    solve_ansatz,
    solve_parity_sector,
    stationarity_residuals_iso,
)
from rabivar.scan import (
    LevelsConfig,
    ScanConfig,
    WavefunctionConfig,
    run_levels,
    run_scan,
    run_wavefunction,
)
from rabivar.verify import ORACLE_SETS, format_report, oracle_checks, run_all


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def fig2_scans(tmp_path_factory):
    """Detuning-100 scans over lambda in [0, 1.5], step 0.05, both tau values."""
    scans = {}
    for tau in (1.0, 1.5):
        out = tmp_path_factory.mktemp(f"fig2_tau{tau}")
        cfg = ScanConfig(delta=100.0, tau=tau, lambda_min=0.0, lambda_max=1.5,
                         lambda_step=0.05, n_tr=256)
        rows = run_scan(cfg, str(out))
        scans[tau] = {m: {r["lambda"]: r for r in rows if r["method"] == m}
                      for m in ("ED", "CS1", "CSS1", "CS2", "CSS2")}
    return scans


@pytest.fixture(scope="session")
def levels_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("levels100")
    cfg = LevelsConfig(delta=100.0, tau=0.5, g_min=0.9, g_max=1.1, g_step=0.01, n_tr=256)
    rows = run_levels(cfg, str(out))
    import json

    meta = json.loads((out / "meta.json").read_text())
    return rows, meta


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    results = oracle_checks()
    elapsed = time.time() - t0
    energy_checks = [r for r in results if r.tol <= 1e-8]
    worst = max(r.max_dev for r in energy_checks)
    ok = all(r.passed for r in results) and elapsed < 30.0
    _report("C1 oracle-equivalence", ok, f"max dev {worst:.2e} over {ORACLE_SETS} sets, {elapsed:.1f}s")
    assert ok, [r.name for r in results if not r.passed]


def test_criterion_2_bounds_and_nesting():
    points = [
        (delta, tau, lam)
        for delta in (1.0, 10.0, 100.0)
        for tau in (0.5, 1.0, 1.5)
        for lam in (0.4, 0.9, 1.2)
    ] + [(100.0, tau, 1.45) for tau in (0.5, 1.0, 1.5)]
    assert len(points) == 30
    worst = 0.0
    for delta, tau, lam in points:
        mp = ModelParams.from_lambda(delta, lam, 1.0, tau)
        e_ed = solve_parity_sector(mp, Truncation(256), "even").energy
        e = {k: solve_ansatz(mp, k).energy for k in AnsatzKind}
        slack = 1e-8 * max(1.0, abs(e_ed))
        chain = [
            e_ed - e[AnsatzKind.CSS2],
            e[AnsatzKind.CSS2] - e[AnsatzKind.CSS1],
            e[AnsatzKind.CSS1] - e[AnsatzKind.CS1],
            e[AnsatzKind.CSS2] - e[AnsatzKind.CS2],
        ]
        worst = max(worst, max(c / max(1.0, abs(e_ed)) for c in chain))
        assert all(c <= slack for c in chain), (delta, tau, lam, chain)
    _report("C2 bounds-and-nesting", True, f"30 points, worst violation {worst:.2e} (slack 1e-8)")


def test_criterion_3_energy_and_photon_agreement(fig2_scans):
    worst_e = worst_n = 0.0
    for tau in (1.0, 1.5):
        data = fig2_scans[tau]
        for lam, ed in data["ED"].items():
            scale = 100.0
            err_css2 = abs(data["CSS2"][lam]["energy"] - ed["energy"]) / scale
            worst_e = max(worst_e, err_css2)
            assert err_css2 <= 1e-3, (tau, lam, err_css2)
            if 0.8 <= lam <= 1.0:
                err_cs1 = abs(data["CS1"][lam]["energy"] - ed["energy"])
                err_css1 = abs(data["CSS1"][lam]["energy"] - ed["energy"])
                assert err_cs1 > err_css1, (tau, lam, err_cs1, err_css1)
            dn = abs(data["CSS2"][lam]["mean_photon"] - ed["mean_photon"])
            tol_n = max(0.1, 0.1 * abs(ed["mean_photon"]))
            worst_n = max(worst_n, dn / tol_n)
            assert dn <= tol_n, (tau, lam, dn)
    _report(
        "C3 fig2-reproduction",
        True,
        f"max |dE|/(delta*omega) {worst_e:.2e}, photon dev at {worst_n:.2f} of tolerance",
    )


def test_criterion_4_peak_counts(tmp_path):
    # Past the threshold the ED ground state is a parity eigenstate with two
    # delocalized packets, so phi_-(x) = +-phi_+(-x): both projections have
    # the same peak count, two at detuning 100 from lambda 1.1 on, as in
    # CSS2.  The single peak once expected at lambda 1.5 appears only in an
    # even/odd mixture of the degenerate pair.
    got, pairs_equal, css2_agrees = {}, True, True
    for dw in (1.0, 100.0):
        summaries = {}
        for source in ("ED", "CSS2"):
            cfg = WavefunctionConfig(delta=dw, tau=1.0, lambdas=(0.9, 1.1, 1.5), source=source, n_tr=256)
            summaries[source] = run_wavefunction(cfg, str(tmp_path / f"wf{int(dw)}{source}"))
        ed = [(row["peaks_plus"], row["peaks_minus"]) for row in summaries["ED"]]
        css2 = [(row["peaks_plus"], row["peaks_minus"]) for row in summaries["CSS2"]]
        got[dw] = tuple(p for p, _ in ed)
        pairs_equal = pairs_equal and all(p == m for p, m in ed)
        css2_agrees = css2_agrees and ed == css2
    ok = got[1.0] == (1, 1, 1) and got[100.0] == (1, 2, 2) and pairs_equal and css2_agrees
    _report(
        "C4 peak-counts",
        ok,
        f"detuning 1: {got[1.0]}, detuning 100: {got[100.0]}, "
        f"phi+/phi- counts {'equal' if pairs_equal else 'differ'}, "
        f"CSS2 {'agrees' if css2_agrees else 'differs'}",
    )
    assert ok, (got, pairs_equal, css2_agrees)


def test_criterion_5_packet_parameter_curves(fig2_scans):
    rows = fig2_scans[1.0]["CSS2"]
    lams = sorted(rows)
    xi_max_at = max(lams, key=lambda l: rows[l]["xi"])
    ok_xi = abs(xi_max_at - 1.0) <= 0.05

    c2_below = max(abs(rows[l]["c2"]) for l in lams if l <= 0.9)
    ok_c2_below = c2_below < 0.05
    # "rising past 1": the second packet switches on right above the
    # threshold; further out its weight declines again, as in the source
    # curves, so only the onset is asserted.
    past = [l for l in lams if 1.0 <= l <= 1.15]
    c2_past = [abs(rows[l]["c2"]) for l in past]
    ok_c2_rise = c2_past[1] > c2_past[0] + 0.1 and max(c2_past) > 0.2

    above = [l for l in lams if l >= 1.0]
    b1 = [rows[l]["beta1"] for l in above]
    b2 = [rows[l]["beta2"] for l in above]
    ok_beta = (
        all(y > x - 1e-6 for x, y in zip(b1, b1[1:]))
        and all(y > x - 1e-6 for x, y in zip(b2, b2[1:]))
        and b1[-1] - b1[0] > 0.5
        and b2[-1] - b2[0] > 0.5
        and all(rows[l]["beta1"] >= rows[l]["beta2"] for l in above)
    )
    ok = ok_xi and ok_c2_below and ok_c2_rise and ok_beta
    _report(
        "C5 packet-parameters",
        ok,
        f"xi max at lambda={xi_max_at}, max c2(lambda<=0.9)={c2_below:.3f}, "
        f"c2 past 1: {['%.3f' % v for v in c2_past]}",
    )
    assert ok


def test_criterion_6_level_crossing(levels_run):
    rows, meta = levels_run
    gc1_ok = meta["g_c1"] == pytest.approx(math.sqrt(100.0 / (1.0 - 0.25)), rel=1e-12)

    cross_css2 = meta["crossing"]["CSS2"]
    clause_css2 = cross_css2 is not None and abs(cross_css2 - 1.0) <= 0.02

    cross_ed = meta["crossing"]["ED"]
    clause_ed = (
        cross_css2 is not None
        and cross_ed is not None
        and abs(cross_ed - cross_css2) <= 0.005 * cross_css2
    )

    # The ground state changes discontinuously at the crossing by its parity:
    # the even level lies lowest below it and the odd level above.  Only
    # certified splittings carry a sign.  Above the crossing the check spans
    # the 2% the CSS2 clause allows, because at this detuning ED has further
    # crossings near g/g_c1 = 1.03, 1.06 and 1.09.
    ed = [r for r in rows if r["method"] == "ED"]
    certified = [r for r in ed if r.get("splitting") is not None]
    below = [r for r in certified if cross_ed is not None and r["g_ratio"] < cross_ed]
    above = [r for r in certified if cross_ed is not None and cross_ed <= r["g_ratio"] <= cross_ed + 0.02]
    clause_parity = (
        bool(below)
        and bool(above)
        and all(r["splitting"] < 0 and r["mean_photon_ground"] == r["mean_photon_even"] for r in below)
        and all(r["splitting"] > 0 and r["mean_photon_ground"] == r["mean_photon_odd"] for r in above)
    )

    # The photon number is smooth through the crossing: the even and odd
    # occupations agree to ~1e-13 here.  The linear trends fitted on each
    # side and compared at the crossing are reported, not asserted; what
    # they differ by is the curvature of n(g).
    ed = [r for r in ed if r.get("mean_photon_ground") is not None]
    ratios = np.array([r["g_ratio"] for r in ed])
    nbar = np.array([r["mean_photon_ground"] for r in ed])
    rc = cross_css2 if cross_css2 is not None else 1.0
    fit_b = np.polyfit(ratios[ratios < rc - 0.005], nbar[ratios < rc - 0.005], 1)
    fit_a = np.polyfit(ratios[ratios > rc + 0.005], nbar[ratios > rc + 0.005], 1)
    jump = abs(np.polyval(fit_a, rc) - np.polyval(fit_b, rc))

    ok = gc1_ok and clause_css2 and clause_ed and clause_parity
    _report(
        "C6 level-crossing",
        ok,
        f"CSS2 crossing at {cross_css2} ({'ok' if clause_css2 else 'off'}), "
        f"ED crossing at {cross_ed} ({'ok' if clause_ed else 'not within 0.5%'}), "
        f"ground parity even on {len(below)} points below, odd on {len(above)} above "
        f"({'ok' if clause_parity else 'no flip'}), photon jump {jump:.2e}",
    )
    assert ok, {
        "css2_crossing": cross_css2,
        "ed_crossing": cross_ed,
        "parity_flip": clause_parity,
        "photon_jump": jump,
    }


def test_criterion_7_stationarity():
    worst = 0.0
    for lam in np.linspace(0.1, 1.4, 10):
        mp = ModelParams.from_lambda(100.0, float(lam), 1.0, 1.0)
        r = solve_ansatz(mp, AnsatzKind.CSS1)
        r_xi, r_beta = stationarity_residuals_iso(mp, r.params)
        worst = max(worst, abs(r_xi), abs(r_beta))
    ok = worst < 1e-6
    _report("C7 stationarity", ok, f"worst residual {worst:.2e} over 10 couplings")
    assert ok


def test_criterion_8_asymptotics():
    mp = ModelParams.from_lambda(1e4, 0.3, 1.0, 1.0)
    r = solve_ansatz(mp, AnsatzKind.CSS1)
    beta_ref, xi_ref = asymptotic_params(mp)
    dev_beta = abs(r.params.beta - beta_ref) / beta_ref
    dev_xi = abs(r.params.xi - xi_ref) / xi_ref
    ok = dev_beta <= 0.10 and dev_xi <= 0.10
    _report("C8 asymptotics", ok, f"beta dev {dev_beta:.3f}, xi dev {dev_xi:.3f}")
    assert ok


def test_criterion_9_determinism(tmp_path):
    cfg = ScanConfig(delta=20.0, tau=1.0, lambda_min=0.0, lambda_max=0.9,
                     lambda_step=0.3, methods=("ED", "CSS1", "CSS2"), n_tr=128)
    dirs = []
    for name in ("one", "two"):
        out = tmp_path / name
        run_scan(cfg, str(out))
        dirs.append(out)
    identical = True
    for f in sorted(p.name for p in dirs[0].iterdir()):
        a = (dirs[0] / f).read_bytes()
        b = (dirs[1] / f).read_bytes()
        identical = identical and a == b
    report_a = format_report(run_all())
    report_b = format_report(run_all())
    ok = identical and report_a == report_b
    _report("C9 determinism", ok, "scan files byte-identical, verify reports identical")
    assert ok
