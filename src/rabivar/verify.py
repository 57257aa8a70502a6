"""Self-verification: closed forms against the Fock oracle, bounds, stationarity.

Every closed-form overlap, energy and photon number in
:mod:`rabivar.variational` is re-evaluated here on packets built explicitly
in a truncated number basis (:mod:`rabivar.states`); the report lists one
line per check with the largest deviation seen.  All randomness is drawn
from a fixed seed, so repeated runs produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exactdiag import solve_parity_sector
from .fock import build_hamiltonian, parity_diag
from .model import ModelParams, Truncation
from .optimize import solve_ansatz
from .states import (
    CoherentSqueezedParams,
    css_fock_amplitudes,
    displaced_squeezed_amplitudes,
)
from .variational import (
    Ansatz1Params,
    Ansatz2Params,
    AnsatzKind,
    _pair_overlap,
    ansatz1_state_vector,
    ansatz2_state_vector,
    energy_1css,
    energy_2css,
    mean_photon_1css,
    mean_photon_2css,
    stationarity_residuals_iso,
)

DEFAULT_SEED = 20250809
_ORACLE_TOL = 1e-8
_N_TR_ORACLE = 160


@dataclass
class CheckResult:
    name: str
    max_dev: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol


def _squeezed_vacuum_reference(xi: float, n_tr: int) -> np.ndarray:
    """Closed-form even-level amplitudes of the squeezed vacuum, r = 2 xi."""
    r = 2.0 * xi
    m = np.arange(0, n_tr // 2 + 1)
    amps = np.zeros(n_tr + 1)
    # log of sqrt((2k)!) / (2^k k!), from the stdlib log-gamma
    logs = np.array(
        [0.5 * math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1) for k in range(m.size)]
    )
    amps[2 * m] = math.cosh(r) ** -0.5 * np.tanh(r) ** m * np.exp(logs)
    return amps


def _rayleigh(h, psi):
    return float(psi @ h @ psi) / float(psi @ psi)


def _mean_photon_vec(psi, dim):
    n = np.concatenate([np.arange(dim), np.arange(dim)]).astype(float)
    return float(np.dot(n, psi**2)) / float(psi @ psi)


def oracle_checks(seed: int = DEFAULT_SEED, n_sets: int = 20):
    """Closed forms vs Fock-space construction on random parameter sets."""
    rng = np.random.default_rng(seed)
    tr = Truncation(_N_TR_ORACLE, 1e-9)
    dim = tr.dim

    dev_overlap = 0.0
    for _ in range(n_sets):
        b1, b2 = rng.uniform(-3.0, 3.0, 2)
        xi = rng.uniform(0.0, 0.4)
        eta = math.exp(-2.0 * xi)
        fk = displaced_squeezed_amplitudes(-b1, xi, tr)
        fkp_plus = displaced_squeezed_amplitudes(-b2, xi, tr)
        fkp_minus = displaced_squeezed_amplitudes(+b2, xi, tr)
        dev_overlap = max(
            dev_overlap,
            abs(float(fk @ fkp_plus) - _pair_overlap(eta, b1 - b2)),
            abs(float(fk @ fkp_minus) - _pair_overlap(eta, b1 + b2)),
        )

    dev_sq = 0.0
    for xi in (0.05, 0.2, 0.35):
        v = css_fock_amplitudes(CoherentSqueezedParams(0.0, xi), tr)
        dev_sq = max(dev_sq, float(np.max(np.abs(v - _squeezed_vacuum_reference(xi, tr.n_tr)))))

    dev_ph_state = 0.0
    nvec = np.arange(dim, dtype=float)
    for _ in range(8):
        beta = rng.uniform(-3.0, 3.0)
        xi = rng.uniform(0.0, 0.4)
        v = css_fock_amplitudes(CoherentSqueezedParams(beta, xi), tr)
        dev_ph_state = max(
            dev_ph_state,
            abs(float(nvec @ v**2) - (math.sinh(2 * xi) ** 2 + beta**2)),
            abs(float(v @ v) - 1.0),
        )

    dev_e1 = dev_n1 = 0.0
    dev_e2_even = dev_e2_odd = dev_n2 = 0.0
    for _ in range(n_sets):
        mp = ModelParams(
            delta=rng.uniform(0.5, 20.0),
            omega=1.0,
            g=rng.uniform(0.0, 2.5),
            tau=float(rng.choice([0.5, 1.0, 1.5])),
        )
        h = build_hamiltonian(mp, tr)
        a1 = Ansatz1Params(rng.uniform(-2.0, 2.0), rng.uniform(0.0, 0.3))
        psi1 = ansatz1_state_vector(a1, tr)
        dev_e1 = max(dev_e1, abs(_rayleigh(h, psi1) - energy_1css(mp, a1)))
        dev_n1 = max(dev_n1, abs(_mean_photon_vec(psi1, dim) - mean_photon_1css(a1)))

        c1 = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        c2 = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        a2 = Ansatz2Params(c1, c2, rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5), rng.uniform(0.0, 0.3))
        psi_e = ansatz2_state_vector(a2, "even", tr)
        psi_o = ansatz2_state_vector(a2, "odd", tr)
        dev_e2_even = max(dev_e2_even, abs(_rayleigh(h, psi_e) - energy_2css(mp, a2, "even")))
        dev_e2_odd = max(dev_e2_odd, abs(_rayleigh(h, psi_o) - energy_2css(mp, a2, "odd")))
        dev_n2 = max(dev_n2, abs(_mean_photon_vec(psi_e, dim) - mean_photon_2css(a2)))

    return [
        CheckResult("overlap-vs-fock", dev_overlap, _ORACLE_TOL),
        CheckResult("squeezed-vacuum-amplitudes", dev_sq, 1e-10),
        CheckResult("packet-photon-number", dev_ph_state, 1e-9),
        CheckResult("energy-single-packet-vs-fock", dev_e1, _ORACLE_TOL),
        CheckResult("photon-single-packet-vs-fock", dev_n1, _ORACLE_TOL),
        CheckResult("energy-two-packet-even-vs-fock", dev_e2_even, _ORACLE_TOL),
        CheckResult("energy-two-packet-odd-vs-fock", dev_e2_odd, _ORACLE_TOL),
        CheckResult("photon-two-packet-vs-fock", dev_n2, _ORACLE_TOL),
    ]


def structure_checks(seed: int = DEFAULT_SEED):
    """Hamiltonian assembly identities on random couplings."""
    rng = np.random.default_rng(seed + 1)
    tr = Truncation(40)
    dev_form = dev_parity = dev_sym = 0.0
    for tau in (1.0, 1.5, 0.5):
        mp = ModelParams(delta=rng.uniform(0.2, 5.0), omega=1.0, g=rng.uniform(0.0, 1.5), tau=tau)
        h1 = build_hamiltonian(mp, tr, form="ladder")
        h2 = build_hamiltonian(mp, tr, form="quadrature")
        p = parity_diag(tr)
        dev_form = max(dev_form, float(np.max(np.abs(h1 - h2))))
        dev_sym = max(dev_sym, float(np.max(np.abs(h1 - h1.T))))
        dev_parity = max(dev_parity, float(np.max(np.abs(h1 * p[None, :] - p[:, None] * h1))))
    return [
        CheckResult("hamiltonian-form-equivalence", dev_form, 1e-14),
        CheckResult("hamiltonian-symmetry", dev_sym, 0.0),
        CheckResult("parity-commutation", dev_parity, 1e-14),
    ]


def physics_checks(seed: int = DEFAULT_SEED):
    """Variational bounds, family nesting and stationarity on sample points."""
    tr = Truncation(256)
    points = [
        (100.0, 1.0, 0.5),
        (100.0, 1.0, 1.1),
        (100.0, 1.5, 0.9),
        (100.0, 0.5, 1.2),
        (10.0, 1.0, 1.0),
        (1.0, 0.5, 0.8),
    ]
    dev_bound = dev_nest = 0.0
    for delta, tau, lam in points:
        mp = ModelParams.from_lambda(delta, lam, 1.0, tau)
        ed_even = solve_parity_sector(mp, tr, +1).energies[0]
        slack = 1e-8 * max(1.0, abs(ed_even))
        energies = {}
        for kind in (AnsatzKind.CS1, AnsatzKind.CSS1, AnsatzKind.CS2, AnsatzKind.CSS2):
            energies[kind] = solve_ansatz(mp, kind).energy
            dev_bound = max(dev_bound, ed_even - energies[kind])
        dev_nest = max(
            dev_nest,
            energies[AnsatzKind.CSS2] - energies[AnsatzKind.CSS1],
            energies[AnsatzKind.CSS1] - energies[AnsatzKind.CS1],
            energies[AnsatzKind.CSS2] - energies[AnsatzKind.CS2],
        )
        ed_odd = solve_parity_sector(mp, tr, -1).energies[0]
        odd = solve_ansatz(mp, AnsatzKind.CSS2, "odd")
        dev_bound = max(dev_bound, ed_odd - odd.energy)
    dev_bound = max(dev_bound, 0.0)
    dev_nest = max(dev_nest, 0.0)

    dev_stat = 0.0
    for lam in (0.2, 0.5, 0.9, 1.2):
        mp = ModelParams.from_lambda(100.0, lam, 1.0, 1.0)
        r = solve_ansatz(mp, AnsatzKind.CSS1)
        rx, rb = stationarity_residuals_iso(mp, r.params)
        dev_stat = max(dev_stat, abs(rx), abs(rb))

    return [
        CheckResult("variational-lower-bound", dev_bound, 1e-6),
        CheckResult("ansatz-family-nesting", dev_nest, 1e-8 * 100.0),
        CheckResult("stationarity-residuals", dev_stat, 1e-6),
    ]


def run_all(seed: int = DEFAULT_SEED):
    results = []
    results += oracle_checks(seed)
    results += structure_checks(seed)
    results += physics_checks(seed)
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name:<34} max_dev={r.max_dev:.3e} tol={r.tol:.1e}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
