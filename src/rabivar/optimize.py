"""Multi-start quasi-Newton minimization of the trial-state energies.

Every objective comes with its exact gradient.  The single-packet energy
E_1(beta, xi) is minimized directly.  For two-packet kinds the linear
coefficients (c1, c2) are projected out: for fixed packets the energy is a
Rayleigh quotient in them, so :func:`rabivar.variational.projected_energy_2css`
returns the lowest root of the 2x2 pencil and, by the Hellmann-Feynman
theorem, its gradient in (beta1, beta2[, xi]).  A small BFGS with Armijo
backtracking in pure-Python floats runs from each start, so identical
inputs reproduce identical results bit for bit.

Structure selection for two-packet kinds.  Below the delocalization
threshold the second packet buys only a sub-resolution energy gain while
its coefficients wander an almost flat valley, so the packet decomposition
is ill conditioned there.  solve_ansatz therefore reports the single-packet
reduction (c1, c2) = (1, 0), beta2 = beta1 whenever BOTH hold:

  * the two-packet gain is below STRUCT_RTOL * max(1, |E|), and
  * reporting the reduction cannot disturb the family ordering, i.e. the
    restricted optimum is still at or below the unsqueezed two-packet
    optimum (always true for the unsqueezed kind itself).

Energies of reduced results are exact restricted optima, not truncations
of the full ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateAnsatz, NoConvergence
from .model import ModelParams
from .variational import (
    Ansatz1Params,
    Ansatz2Params,
    AnsatzKind,
    asymptotic_params,
    energy_grad_1css,
    projected_energy_2css,
)

GRAD_TOL = 1e-5
STRUCT_RTOL = 1e-4
_EPS = 2.0**-52


@dataclass
class OptResult:
    """Outcome of one trial-state minimization."""

    kind: AnsatzKind
    parity: str
    energy: float
    params: object  # Ansatz1Params or Ansatz2Params
    starts_tried: int
    grad_norm: float
    converged: bool
    reduced: bool = False  # two-packet kinds: True if the single-packet reduction is reported
    nfev: int = 0  # objective evaluations over all stages


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def bfgs(fg, x0, max_iter=500):
    """Local minimum from x0 by BFGS with Armijo backtracking.

    fg(x) returns (f, gradient) at a list x; f = inf rejects the point.  The
    inverse-Hessian estimate starts as the identity (steps then capped at
    unit length), is rescaled by s.y / y.y at its first update and is reset
    whenever it gives no descent direction.  A step is accepted on Armijo's
    condition or, where f is flat to its rounding eps * max(1, |f|), when it
    halves the largest gradient component.  The run stops once an iteration
    lowers f by no more than that rounding without halving the gradient, or
    when no step along the steepest descent is accepted.

    Returns (x, f, gradient, nfev); a rejected x0 returns at once with
    f = inf.  Raises NoConvergence with that tuple at the best point
    attached when max_iter iterations pass without stopping.
    """
    x = [float(v) for v in x0]
    f, g = fg(x)
    nfev = 1
    h = None  # inverse-Hessian estimate; None stands for the identity
    for _ in range(max_iter):
        if not math.isfinite(f):
            break
        p = [-v for v in g] if h is None else [-_dot(row, g) for row in h]
        slope = _dot(g, p)
        if slope >= 0.0:
            if h is None:
                break  # zero gradient
            h = None
            continue
        t = 1.0 if h is not None else min(1.0, 1.0 / max(map(abs, p)))
        noise = _EPS * max(1.0, abs(f))
        gmax = max(map(abs, g))
        for _ in range(40):
            xn = [a + t * b for a, b in zip(x, p)]
            fn, gn = fg(xn)
            nfev += 1
            if fn <= f + 1e-4 * t * slope:
                break
            if fn <= f + noise and max(map(abs, gn)) < 0.5 * gmax:
                break  # f is flat to rounding here; the exact gradient decides
            t *= 0.5
        else:
            if h is None:
                break
            h = None
            continue
        s = [a - b for a, b in zip(xn, x)]
        y = [a - b for a, b in zip(gn, g)]
        gain, x, f, g = f - fn, xn, fn, gn
        if gain <= noise and max(map(abs, g)) >= 0.5 * gmax:
            break
        sy = _dot(s, y)
        if sy > 0.0:
            if h is None:
                h = [[sy / _dot(y, y) * (i == j) for j in range(len(x))] for i in range(len(x))]
            hy = [_dot(row, y) for row in h]
            c = (1.0 + _dot(y, hy) / sy) / sy
            h = [
                [hij + c * si * sj - (hyi * sj + si * hyj) / sy for sj, hyj, hij in zip(s, hy, row)]
                for si, hyi, row in zip(s, hy, h)
            ]
    else:
        raise NoConvergence(f"BFGS did not stop within {max_iter} iterations", best=(x, f, g, nfev))
    return x, f, g, nfev


def canonicalize_2css(a: Ansatz2Params) -> Ansatz2Params:
    """Gauge-fixed representative of a two-packet parameter set.

    Picks between the set and its exact relabeling (c2, c1, -beta2, -beta1)
    the one with the larger displacement sum (majority packet first), then
    normalizes the overall coefficient sign (c1 > 0, or c2 > 0 when c1 = 0).
    """
    cand = a
    alt = a.relabeled()
    if (alt.beta1 + alt.beta2, alt.c1**2 - alt.c2**2) > (cand.beta1 + cand.beta2, cand.c1**2 - cand.c2**2):
        cand = alt
    if cand.c1 < 0.0 or (cand.c1 == 0.0 and cand.c2 < 0.0):
        cand = Ansatz2Params(-cand.c1, -cand.c2, cand.beta1, cand.beta2, cand.xi)
    return cand


def _seed_values(params: ModelParams):
    """Deterministic displacement/squeezing seeds.

    beta_small solves the weak-coupling balance, beta_mf is the adiabatic
    mean-field displacement, xi_seed the large-detuning squeezing estimate.
    """
    beta_small = params.g * params.tau / (params.omega + params.delta)
    beta_mf = 2.0 * params.alpha / params.omega
    if params.delta > 0.0:
        xi_seed = 0.125 * math.log1p(4.0 * params.alpha**2 / (params.omega * params.delta))
        if params.tau == 1.0:
            beta_small, xi_seed = asymptotic_params(params)
    else:
        xi_seed = 0.0
    return beta_small, beta_mf, xi_seed


def _seed_values(params: ModelParams):
    """Deterministic displacement/squeezing seeds.

    beta_small solves the weak-coupling balance, beta_mf is the adiabatic
    mean-field displacement, xi_seed the large-detuning squeezing estimate.
    """
    beta_small = params.g * params.tau / (params.omega + params.delta)
    beta_mf = 2.0 * params.alpha / params.omega
    if params.delta > 0.0:
        xi_seed = 0.125 * math.log1p(4.0 * params.alpha**2 / (params.omega * params.delta))
        if params.tau == 1.0:
            beta_small, xi_seed = asymptotic_params(params)
    else:
        xi_seed = 0.0
    return beta_small, beta_mf, xi_seed


def _single_starts(params: ModelParams, squeezed: bool, warm):
    bs, bm, xa = _seed_values(params)
    starts = [(bs, xa), (bm, 0.0), (bm, xa), (bs, 0.0)] if squeezed else [(bs,), (bm,), (0.5 * bm,)]
    if warm is not None:
        beta = warm.beta if isinstance(warm, Ansatz1Params) else warm.beta1
        starts.append((beta, warm.xi) if squeezed else (beta,))
    return starts


def _two_starts(params: ModelParams, squeezed: bool, single_x, warm):
    """Three starts on the symmetric line beta1 = beta2, one off it, and the warm start.

    The start off the line keeps the odd solve at g = 0 from stalling on
    the stationary point with both packets at the origin.
    """
    bs, bm, xa = _seed_values(params)
    b1, x1 = single_x[0], single_x[1] if squeezed else 0.0
    starts = [(b1, b1, x1), (bm, bm, xa if squeezed else 0.0), (bs, bs, 0.0), (b1 + 1.0, b1, x1)]
    if isinstance(warm, Ansatz2Params):
        starts.append((warm.beta1, warm.beta2, warm.xi))
    return starts if squeezed else [start[:2] for start in starts]


def solve_ansatz(params: ModelParams, kind: AnsatzKind, parity: str = "even", warm=None) -> OptResult:
    """Multi-start minimization of the chosen trial-state energy.

    warm is an optional Ansatz1Params/Ansatz2Params from a neighboring scan
    point, added to the seed list.  Odd parity is valid only for two-packet
    kinds.  NoConvergence propagates with the best-so-far OptResult of the
    failing stage attached.  Two-packet results may report the
    single-packet reduction; see the module docstring for the selection
    rule.
    """
    if isinstance(kind, str):
        kind = AnsatzKind(kind)
    if parity == "odd" and not kind.two_branch:
        raise ValueError("odd parity requires a two-packet trial state")
    count = [0, 0]  # starts tried, objective evaluations

    def report(f, packed, grad_norm, converged=True, reduced=False):
        converged = converged and grad_norm < GRAD_TOL and math.isfinite(f)
        return OptResult(kind, parity, f, packed, count[0], grad_norm, converged, reduced, count[1])

    def single(x):
        xi = x[1] if kind.squeezed else 0.0
        return Ansatz2Params(1.0, 0.0, x[0], x[0], xi) if kind.two_branch else Ansatz1Params(x[0], xi)

    def two(x):
        _, _, c1, c2 = projected_energy_2css(params, *x, parity=parity)
        return canonicalize_2css(Ansatz2Params(c1, c2, x[0], x[1], x[2] if len(x) > 2 else 0.0))

    def minimize(energy_grad, starts, pack):
        """Lowest BFGS run over the starts: (x, f, grad_norm)."""

        def fg(x):  # degenerate, overflowing or non-finite points get f = inf
            try:
                e, g = energy_grad(params, *x, parity=parity)[:2]
            except (DegenerateAnsatz, OverflowError):
                return math.inf, None
            return (e, g[: len(x)]) if math.isfinite(e) else (math.inf, None)

        best, stopped = None, False
        for start in starts:
            try:
                x, f, g, n = bfgs(fg, start)
                stopped = True
            except NoConvergence as exc:
                x, f, g, n = exc.best
            count[1] += n
            if best is None or f < best[1]:
                best = (x, f, g)
        count[0] += len(starts)
        x, f, g = best
        grad_norm = max(map(abs, g)) if math.isfinite(f) else math.inf
        if not stopped:
            raise NoConvergence(
                "no start stopped within the iteration cap",
                best=report(f, pack(x), grad_norm, converged=False) if math.isfinite(f) else None,
            )
        return x, f, grad_norm

    xs, fs, g1 = minimize(energy_grad_1css, _single_starts(params, kind.squeezed, warm), single)
    if not kind.two_branch:
        return report(fs, single(xs), g1)
    if kind.squeezed:
        _, fc, _ = minimize(projected_energy_2css, _two_starts(params, False, xs, warm), two)
    xf, ff, gf = minimize(projected_energy_2css, _two_starts(params, kind.squeezed, xs, warm), two)

    gain = fs - ff
    if kind.squeezed:
        # Raising the squeezed two-packet report to its restricted optimum
        # must not lift it above the unsqueezed two-packet optimum, or the
        # family ordering would be disturbed.
        safe = fs <= fc + 1e-10 * max(1.0, abs(fc))
    else:
        safe = True  # reducing the top of the ordering chain is always safe
    if gain <= STRUCT_RTOL * max(1.0, abs(ff)) and safe:
        return report(fs, single(xs), g1, reduced=True)
    return report(ff, two(xf), gf)
