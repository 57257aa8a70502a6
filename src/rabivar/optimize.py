"""Multi-start quasi-Newton minimization of the trial-state energies.

Every objective comes with its exact gradient.  The single-packet energy
E_1(beta, xi) is minimized directly.  For two-packet kinds the linear
coefficients (c1, c2) are projected out: for fixed packets the energy is a
Rayleigh quotient in them, so :func:`rabivar.variational.projected_energy_2css`
returns the lowest root of the 2x2 pencil and, by the Hellmann-Feynman
theorem, its gradient in (beta1, beta2[, xi]).  A BFGS with Armijo
backtracking runs from each start.  No trial state has more than three
free variables, so :func:`bfgs` is a fixed three-slot kernel on Python
float locals (fewer variables ride in frozen slots), and identical inputs
reproduce identical results bit for bit.

Structure selection for two-packet kinds.  Below the delocalization
threshold the second packet buys only a sub-resolution energy gain while
its coefficients wander an almost flat valley, so the packet decomposition
is ill conditioned there.  solve_ansatz therefore reports the single-packet
reduction (c1, c2) = (1, 0), beta2 = beta1 whenever BOTH hold:

  * the two-packet gain is below STRUCT_RTOL * max(1, |E|), and
  * reporting the reduction cannot disturb the family ordering, i.e. the
    restricted optimum is still at or below the unsqueezed two-packet
    optimum (always true for the unsqueezed kind itself).

The unsqueezed two-packet optimum of the second rule (the guard) is read
for the squeezed kind only when the first rule holds, since no other result
reads it.

The families nest, so their stages are shared: the single-packet stage of
CS2/CSS2 is the CS1/CSS1 solve, and the guard is CS2's two-packet stage.
solve_ansatz takes the results of kinds already solved at the same point
and parity (a scan point's earlier rows) and reuses these stages from them,
reading CS2's unreduced optimum (OptResult.two_packet_energy), never its
reported energy; a stage with no converged result to reuse is solved in
the call.  OptResult.starts_tried and .nfev count the stages the call ran.

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
    nfev: int = 0  # objective evaluations over the stages this call ran
    two_packet_energy: float | None = None  # two-packet kinds: the unreduced two-packet optimum


def _three(g, n):
    """The n components of a gradient, padded with frozen zeros to three."""
    if n == 3:
        return g
    return (g[0], g[1], 0.0) if n == 2 else (g[0], 0.0, 0.0)


def bfgs(fg, x0, max_iter=500):
    """Local minimum from x0 by BFGS with Armijo backtracking, in one to three variables.

    fg(x) returns (f, gradient) at a list x; f = inf rejects the point.  The
    inverse-Hessian estimate starts as the identity (steps then capped at
    unit length), is rescaled by s.y / y.y at its first update and is reset
    whenever it gives no descent direction.  A step is accepted on Armijo's
    condition or, where f is flat to its rounding eps * max(1, |f|), when it
    halves the largest gradient component.  The run stops once an iteration
    lowers f by no more than that rounding without halving the gradient, or
    when no step along the steepest descent is accepted.

    The iteration lives in float locals: three coordinates, gradients and
    steps, and the nine inverse-Hessian entries.  A problem with fewer
    variables rides in the leading slots; the rest stay frozen at zero with
    zero gradient, which adds only exact zeros to every sum, so the result
    is the same bit for bit as the textbook update on n-vectors.

    Returns (x, f, gradient, nfev); a rejected x0 returns at once with
    f = inf.  Raises NoConvergence with that tuple at the best point
    attached when max_iter iterations pass without stopping, and ValueError
    unless x0 has one to three entries.
    """
    n = len(x0)
    if not 1 <= n <= 3:
        raise ValueError(f"bfgs takes 1 to 3 variables, got {n}")
    x = [float(v) for v in x0]
    x0, x1, x2 = _three(x, n)
    f, g = fg(x)
    nfev = 1
    if math.isfinite(f):
        g0, g1, g2 = _three(g, n)
    ident = True  # the inverse-Hessian estimate is the identity; else it is h00..h22
    h00 = h01 = h02 = h10 = h11 = h12 = h20 = h21 = h22 = 0.0
    for _ in range(max_iter):
        if not math.isfinite(f):
            break
        # Every sum starts from 0.0 and runs in index order, as sum() over a
        # list does; the leading 0.0 turns a -0.0 total into +0.0.
        if ident:
            p0, p1, p2 = -g0, -g1, -g2
        else:
            p0 = -(0.0 + h00 * g0 + h01 * g1 + h02 * g2)
            p1 = -(0.0 + h10 * g0 + h11 * g1 + h12 * g2)
            p2 = -(0.0 + h20 * g0 + h21 * g1 + h22 * g2)
        slope = 0.0 + g0 * p0 + g1 * p1 + g2 * p2
        if slope >= 0.0:
            if ident:
                break  # zero gradient
            ident = True
            continue
        t = min(1.0, 1.0 / max(abs(p0), abs(p1), abs(p2))) if ident else 1.0
        noise = _EPS * max(1.0, abs(f))
        gmax = max(abs(g0), abs(g1), abs(g2))
        for _ in range(40):
            xn0, xn1, xn2 = x0 + t * p0, x1 + t * p1, x2 + t * p2
            xn = [xn0, xn1, xn2] if n == 3 else [xn0, xn1] if n == 2 else [xn0]
            fn, gn = fg(xn)
            nfev += 1
            if fn <= f + 1e-4 * t * slope:
                break
            if fn <= f + noise:
                gn0, gn1, gn2 = _three(gn, n)
                if max(abs(gn0), abs(gn1), abs(gn2)) < 0.5 * gmax:
                    break  # f is flat to rounding here; the exact gradient decides
            t *= 0.5
        else:
            if ident:
                break
            ident = True
            continue
        gn0, gn1, gn2 = _three(gn, n)
        s0, s1, s2 = xn0 - x0, xn1 - x1, xn2 - x2
        y0, y1, y2 = gn0 - g0, gn1 - g1, gn2 - g2
        gain, x, f, g = f - fn, xn, fn, gn
        x0, x1, x2, g0, g1, g2 = xn0, xn1, xn2, gn0, gn1, gn2
        if gain <= noise and max(abs(g0), abs(g1), abs(g2)) >= 0.5 * gmax:
            break
        sy = 0.0 + s0 * y0 + s1 * y1 + s2 * y2
        if sy > 0.0:
            if ident:
                d = sy / (0.0 + y0 * y0 + y1 * y1 + y2 * y2)
                h00 = h11 = h22 = d
                h01 = h02 = h10 = h12 = h20 = h21 = d * 0.0
                ident = False
            hy0 = 0.0 + h00 * y0 + h01 * y1 + h02 * y2
            hy1 = 0.0 + h10 * y0 + h11 * y1 + h12 * y2
            hy2 = 0.0 + h20 * y0 + h21 * y1 + h22 * y2
            c = (1.0 + (0.0 + y0 * hy0 + y1 * hy1 + y2 * hy2) / sy) / sy
            # h_ij += (c s_i) s_j - (hy_i s_j + s_i hy_j) / sy.  The second
            # term is symmetric bit for bit (+ and * commute in IEEE
            # arithmetic), so it is formed once per pair; the first is not.
            cs0, cs1, cs2 = c * s0, c * s1, c * s2
            q01 = (hy0 * s1 + s0 * hy1) / sy
            q02 = (hy0 * s2 + s0 * hy2) / sy
            q12 = (hy1 * s2 + s1 * hy2) / sy
            h00 = h00 + cs0 * s0 - (hy0 * s0 + s0 * hy0) / sy
            h01 = h01 + cs0 * s1 - q01
            h02 = h02 + cs0 * s2 - q02
            h10 = h10 + cs1 * s0 - q01
            h11 = h11 + cs1 * s1 - (hy1 * s1 + s1 * hy1) / sy
            h12 = h12 + cs1 * s2 - q12
            h20 = h20 + cs2 * s0 - q02
            h21 = h21 + cs2 * s1 - q12
            h22 = h22 + cs2 * s2 - (hy2 * s2 + s2 * hy2) / sy
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


def solve_ansatz(
    params: ModelParams, kind: AnsatzKind, parity: str = "even", warm=None, solved=None
) -> OptResult:
    """Multi-start minimization of the chosen trial-state energy.

    warm is an optional Ansatz1Params/Ansatz2Params from a neighboring scan
    point, added to the seed list.  solved optionally maps kinds already
    solved at these params and parity to their results: a converged CS1/CSS1
    result stands in for the single-packet stage of CS2/CSS2, and a CS2
    result's two_packet_energy for CSS2's guard.  Odd parity is valid only
    for two-packet kinds.  NoConvergence propagates with the best-so-far
    OptResult of the failing stage attached; the guard runs, and so can
    fail, only for a reduction candidate.  Two-packet results may report
    the single-packet reduction; see the module docstring for the selection
    rule.
    """
    if isinstance(kind, str):
        kind = AnsatzKind(kind)
    if parity == "odd" and not kind.two_branch:
        raise ValueError("odd parity requires a two-packet trial state")
    solved = solved or {}
    count = [0, 0]  # starts tried, objective evaluations

    def report(f, packed, grad_norm, converged=True, reduced=False, two_packet_energy=None):
        converged = converged and grad_norm < GRAD_TOL and math.isfinite(f)
        return OptResult(
            kind, parity, f, packed, count[0], grad_norm, converged, reduced, count[1], two_packet_energy
        )

    def single(x):
        xi = x[1] if kind.squeezed else 0.0
        return Ansatz2Params(1.0, 0.0, x[0], x[0], xi) if kind.two_branch else Ansatz1Params(x[0], xi)

    def two(x):
        _, _, c1, c2 = projected_energy_2css(params, *x, parity=parity)
        return canonicalize_2css(Ansatz2Params(c1, c2, x[0], x[1], x[2] if len(x) > 2 else 0.0))

    def minimize(energy_grad, starts, pack):
        """Lowest BFGS run over the starts: (x, f, grad_norm)."""
        nvar = len(starts[0])

        def fg(x):  # degenerate, overflowing or non-finite points get f = inf
            try:
                r = energy_grad(params, *x, parity=parity)
            except (DegenerateAnsatz, OverflowError):
                return math.inf, None
            e, g = r[0], r[1]
            if not math.isfinite(e):
                return math.inf, None
            return e, g if len(g) == nvar else g[:nvar]  # CS kinds leave xi out

        best, stopped = None, False
        for start in starts:
            try:
                x, f, g, nfev = bfgs(fg, start)
                stopped = True
            except NoConvergence as exc:
                x, f, g, nfev = exc.best
            count[1] += nfev
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

    def two_stage(squeezed):
        """The two-packet optimum (x, f, grad_norm) with or without squeezing."""
        return minimize(projected_energy_2css, _two_starts(params, squeezed, xs, warm), two)

    prior = solved.get(AnsatzKind.CSS1 if kind.squeezed else AnsatzKind.CS1) if kind.two_branch else None
    if prior is not None and prior.converged:  # the CS1/CSS1 solve is this single-packet stage
        p = prior.params
        xs, fs, g1 = ([p.beta, p.xi] if kind.squeezed else [p.beta]), prior.energy, prior.grad_norm
    else:
        xs, fs, g1 = minimize(energy_grad_1css, _single_starts(params, kind.squeezed, warm), single)
    if not kind.two_branch:
        return report(fs, single(xs), g1)
    xf, ff, gf = two_stage(kind.squeezed)
    if fs - ff <= STRUCT_RTOL * max(1.0, abs(ff)):
        if not kind.squeezed:  # reducing the top of the ordering chain is always safe
            return report(fs, single(xs), g1, reduced=True, two_packet_energy=ff)
        # Raising the squeezed two-packet report to its restricted optimum
        # must not lift it above the unsqueezed two-packet optimum, or the
        # family ordering would be disturbed.  A CS2 result at this point
        # gives that optimum; otherwise the stage runs here.
        fc = getattr(solved.get(AnsatzKind.CS2), "two_packet_energy", None)
        if fc is None:
            fc = two_stage(False)[1]
        if fs <= fc + 1e-10 * max(1.0, abs(fc)):
            return report(fs, single(xs), g1, reduced=True, two_packet_energy=ff)
    return report(ff, two(xf), gf, two_packet_energy=ff)
