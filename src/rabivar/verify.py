"""Self-verification: closed forms against the Fock oracle, bounds, gradients.

The report lists one line per check with the largest deviation seen:

* oracle_checks: packet overlaps, the squeezed vacuum, packet photon
  numbers, and the energy (both parities) and photon number of random one-
  and two-packet trial states from :func:`rabivar.variational.energy` and
  :func:`~rabivar.variational.mean_photon`, each against the same state
  built explicitly in a truncated number basis (:mod:`rabivar.states`);
* structure_checks: the two assembly forms of the Hamiltonian, its
  symmetry and its parity commutation;
* physics_checks: solved energies against the ED lower bound, the family
  nesting, the stationarity residuals of isotropic CSS1 optima, and the
  objective's gradient at CSS2 optima in both parities;
* objective_checks: the gradient of every kind's
  :func:`~rabivar.variational.objective`, the kernel the optimizer
  minimizes, against central differences of its energy, in all three
  slots (beta1, beta2, xi).

Not checked here: objective's energies against the Fock oracle (the tests
tie them to :func:`~rabivar.variational.energy`).  Random sets are drawn
from a fixed seed and the gradient points are fixed, so repeated runs
produce identical reports.  Every deviation is folded through _worst,
which reads a NaN as inf, so a NaN fails its check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .exactdiag import solve_parity_sector
from .fock import build_hamiltonian, parity_diag
from .model import PARITIES, ModelParams, Truncation
from .optimize import GRAD_TOL, solve_ansatz
from .states import PacketFamily, displaced_squeezed_amplitudes
from .variational import (
    AnsatzKind,
    PacketParams,
    _pair_overlap,
    energy,
    mean_photon,
    objective,
    state_vectors,
    stationarity_residuals_iso,
)

DEFAULT_SEED = 20250809
_ORACLE_TOL = 1e-8
_N_TR_ORACLE = 160
ORACLE_SETS = 20  # random parameter sets of each oracle_checks loop
# objective's variables (beta1, beta2, xi) at fixed points away from the
# pencil floor; every kind takes all three and reads its own slots.
_GRADIENT_POINTS = [(3.0, 2.5, 0.1), (0.4, 0.9, -0.2), (5.0, -1.0, 0.3), (1.2, 0.3, 0.05)]
# (delta, tau, lambda) of the physics checks' bound and nesting points
PHYSICS_POINTS = [
    (100.0, 1.0, 0.5),
    (100.0, 1.0, 1.1),
    (100.0, 1.5, 0.9),
    (100.0, 0.5, 1.2),
    (10.0, 1.0, 1.0),
    (1.0, 0.5, 0.8),
]


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


def _worst(*devs) -> float:
    """The largest of the deviations, inf if any is NaN: max(0.0, nan) is 0.0, which would pass a check."""
    return max(math.inf if math.isnan(d) else d for d in devs)


def _rayleigh(h, psi):
    return float(psi @ h @ psi) / float(psi @ psi)


def _mean_photon_vec(psi, dim):
    n = np.concatenate([np.arange(dim), np.arange(dim)]).astype(float)
    return float(np.dot(n, psi**2)) / float(psi @ psi)


def oracle_checks(seed: int = DEFAULT_SEED):
    """Closed forms vs Fock-space construction on ORACLE_SETS random parameter sets."""
    rng = np.random.default_rng(seed)
    tr = Truncation(_N_TR_ORACLE, 1e-9)
    dim = tr.dim

    dev_overlap = 0.0
    for _ in range(ORACLE_SETS):
        b1, b2 = rng.uniform(-3.0, 3.0, 2)
        xi = rng.uniform(0.0, 0.4)
        eta = math.exp(-2.0 * xi)
        packet = PacketFamily(xi, tr)
        fk, fkp_plus, fkp_minus = packet(-b1), packet(-b2), packet(+b2)
        dev_overlap = _worst(
            dev_overlap,
            abs(float(fk @ fkp_plus) - _pair_overlap(eta, b1 - b2)),
            abs(float(fk @ fkp_minus) - _pair_overlap(eta, b1 + b2)),
        )

    dev_sq = 0.0
    for xi in (0.05, 0.2, 0.35):
        v = displaced_squeezed_amplitudes(0.0, xi, tr)
        dev_sq = _worst(dev_sq, float(np.max(np.abs(v - _squeezed_vacuum_reference(xi, tr.n_tr)))))

    dev_ph_state = 0.0
    nvec = np.arange(dim, dtype=float)
    for _ in range(8):
        beta = rng.uniform(-3.0, 3.0)
        xi = rng.uniform(0.0, 0.4)
        v = displaced_squeezed_amplitudes(-beta, xi, tr)
        dev_ph_state = _worst(
            dev_ph_state,
            abs(float(nvec @ v**2) - (math.sinh(2 * xi) ** 2 + beta**2)),
            abs(float(v @ v) - 1.0),
        )

    dev_e1 = dev_n1 = 0.0
    dev_e2_even = dev_e2_odd = dev_n2 = 0.0
    for _ in range(ORACLE_SETS):
        mp = ModelParams(
            delta=rng.uniform(0.5, 20.0),
            omega=1.0,
            g=rng.uniform(0.0, 2.5),
            tau=float(rng.choice([0.5, 1.0, 1.5])),
        )
        h = build_hamiltonian(mp, tr)
        a1 = PacketParams((1.0 / math.sqrt(2.0),), (rng.uniform(-2.0, 2.0),), rng.uniform(0.0, 0.3))
        psi1 = state_vectors(a1, tr)[0]
        dev_e1 = _worst(dev_e1, abs(_rayleigh(h, psi1) - energy(mp, a1)))
        dev_n1 = _worst(dev_n1, abs(_mean_photon_vec(psi1, dim) - mean_photon(a1)))

        c1 = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        c2 = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        beta1, beta2, xi = rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5), rng.uniform(0.0, 0.3)
        a2 = PacketParams((c1, c2), (beta1, -beta2), xi)
        psi_e, psi_o = state_vectors(a2, tr)
        dev_e2_even = _worst(dev_e2_even, abs(_rayleigh(h, psi_e) - energy(mp, a2, "even")))
        dev_e2_odd = _worst(dev_e2_odd, abs(_rayleigh(h, psi_o) - energy(mp, a2, "odd")))
        dev_n2 = _worst(dev_n2, abs(_mean_photon_vec(psi_e, dim) - mean_photon(a2)))

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
        dev_form = _worst(dev_form, float(np.max(np.abs(h1 - h2))))
        dev_sym = _worst(dev_sym, float(np.max(np.abs(h1 - h1.T))))
        dev_parity = _worst(dev_parity, float(np.max(np.abs(h1 * p[None, :] - p[:, None] * h1))))
    return [
        CheckResult("hamiltonian-form-equivalence", dev_form, 1e-14),
        CheckResult("hamiltonian-symmetry", dev_sym, 0.0),
        CheckResult("parity-commutation", dev_parity, 1e-14),
    ]


def _solved_gradient_norm(mp: ModelParams, result) -> float:
    """Max-norm of objective's gradient at a CSS2 result's params, for the kind its solve ran.

    That is CSS1 for a reduced result, whose beta2 = beta1 slot CSS1 does
    not read, and CSS2 otherwise.
    """
    p = result.params
    kind = AnsatzKind.CSS1 if result.reduced else AnsatzKind.CSS2
    return _worst(*map(abs, objective(mp, kind, result.parity)([p.a[0], -p.a[1], p.xi])[1]))


def physics_checks():
    """Variational bounds, family nesting and stationarity on sample points.

    Every solve of the call shares one dict of optimizer stages (see
    solve_ansatz): CS2/CSS2 reuse the CS1/CSS1 stages, CSS2's guard the CS2
    stage, and the stationarity loop the CSS1 stage at lambda 0.5.  Each
    result is the one a standalone solve gives.  A solve that does not
    converge raises RuntimeError naming its point, kind and parity: its
    energy bounds and nests nothing.
    """
    tr = Truncation(256)
    dev_bound = dev_nest = dev_grad = 0.0
    stages = {}

    def solved(mp, kind, parity="even"):
        result = solve_ansatz(mp, kind, parity, stages)
        if not result.converged:
            raise RuntimeError(f"the {kind.value} {parity} solve at {mp} did not converge")
        return result

    for delta, tau, lam in PHYSICS_POINTS:
        mp = ModelParams.from_lambda(delta, lam, 1.0, tau)
        ed_even = solve_parity_sector(mp, tr, "even").energy
        results = {kind: solved(mp, kind) for kind in AnsatzKind}
        energies = {kind: r.energy for kind, r in results.items()}
        dev_bound = _worst(dev_bound, *(ed_even - e for e in energies.values()))
        dev_nest = _worst(
            dev_nest,
            energies[AnsatzKind.CSS2] - energies[AnsatzKind.CSS1],
            energies[AnsatzKind.CSS1] - energies[AnsatzKind.CS1],
            energies[AnsatzKind.CSS2] - energies[AnsatzKind.CS2],
        )
        ed_odd = solve_parity_sector(mp, tr, "odd").energy
        odd = solved(mp, AnsatzKind.CSS2, "odd")
        dev_bound = _worst(dev_bound, ed_odd - odd.energy)
        for result in (results[AnsatzKind.CSS2], odd):
            dev_grad = _worst(dev_grad, _solved_gradient_norm(mp, result))
    dev_bound = _worst(dev_bound, 0.0)
    dev_nest = _worst(dev_nest, 0.0)

    dev_stat = 0.0
    for lam in (0.2, 0.5, 0.9, 1.2):
        mp = ModelParams.from_lambda(100.0, lam, 1.0, 1.0)
        rx, rb = stationarity_residuals_iso(mp, solved(mp, AnsatzKind.CSS1).params)
        dev_stat = _worst(dev_stat, abs(rx), abs(rb))

    return [
        CheckResult("variational-lower-bound", dev_bound, 1e-6),
        CheckResult("ansatz-family-nesting", dev_nest, 1e-8 * 100.0),
        CheckResult("stationarity-residuals", dev_stat, 1e-6),
        CheckResult("stationarity-two-packet", dev_grad, GRAD_TOL),
    ]


def objective_checks():
    """Gradients of every objective kind against central differences, in both parities.

    The model is delta 10, g 1.3 at tau 0.5, 1 and 1.5; the deviation is
    |g - fd| / max(1, |fd|) with step 1e-6, in all three slots, so a slot
    a kind does not read must have gradient 0.
    """
    h = 1e-6
    dev = 0.0
    for tau in (0.5, 1.0, 1.5):
        mp = ModelParams(delta=10.0, omega=1.0, g=1.3, tau=tau)
        for kind in AnsatzKind:
            for parity in PARITIES:
                fg = objective(mp, kind, parity)
                for x in _GRADIENT_POINTS:
                    grad = fg(x)[1]
                    for i in range(3):
                        up, down = list(x), list(x)
                        up[i] += h
                        down[i] -= h
                        fd = (fg(up)[0] - fg(down)[0]) / (2.0 * h)
                        dev = _worst(dev, abs(grad[i] - fd) / max(1.0, abs(fd)))
    return [CheckResult("objective-gradient", dev, 1e-6)]


def run_all(seed: int = DEFAULT_SEED):
    results = []
    results += oracle_checks(seed)
    results += structure_checks(seed)
    results += physics_checks()
    results += objective_checks()
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name:<34} max_dev={r.max_dev:.3e} tol={r.tol:.1e}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def format_json(results) -> str:
    """The report as JSON: one object per check, then the totals.

    Floats are written in shortest round-trip form, so equal results give
    byte-identical files.
    """
    checks = [
        {"name": r.name, "max_dev": float(r.max_dev), "tol": float(r.tol), "passed": bool(r.passed)} for r in results
    ]
    n_passed = sum(c["passed"] for c in checks)
    totals = {"passed": n_passed, "failed": len(checks) - n_passed, "total": len(checks)}
    return json.dumps({"checks": checks, **totals}, indent=2) + "\n"
