"""Multi-start quasi-Newton minimization of the trial-state energies.

The four kinds are one family in the three variables x = (beta1, beta2,
xi), each holding some of them fixed: CS1 varies beta1, CSS1 beta1 and xi,
CS2 beta1 and beta2, CSS2 all three.  Every objective takes that x and
returns its exact gradient in all three slots, 0.0 in each slot its kind
does not read, and each stage binds its objective once
(:func:`rabivar.variational.objective`).  The one-packet energy
E_1(beta, xi) is minimized directly.  For two-packet kinds the linear
coefficients (c1, c2) are projected out: for fixed packets the energy is a
Rayleigh quotient in them, so the objective is the lowest root of the 2x2
pencil with, by the Hellmann-Feynman theorem, its gradient in (beta1,
beta2, xi).  A solve depends only on its model parameters, kind and
parity: every stage starts from fixed seeds or from another stage of the
same solve (below), never from another point.  A BFGS with Armijo
backtracking runs from each start.  A start holds 0.0 in each slot its
kind does not read, and :func:`bfgs`, a fixed three-slot kernel on Python
float locals, never moves such a slot.  Identical inputs reproduce
identical results bit for bit.

Most starts of a stage end at the optimum its first start found, so a
stage passes the optima its earlier starts found to each later run, and
the run ends as a tie once an accepted iterate comes within TIE_RADIUS of
one of them in max-norm over (beta1, beta2, xi) (the clustering idea of
multistart global optimization, Rinnooy Kan & Timmer, Math. Programming
39, 27 (1987)).  A tied run never wins the stage, and counts as neither
stopped nor capped.  A run's endpoint becomes a known optimum only if the
run stopped with gradient max-norm below GRAD_TOL**2: a stopped point in a
flat valley, or at the edge of a rejected band, may lie within the radius
of a lower optimum that a later start would reach.

Every result holds its trial state as a packet list
(:class:`rabivar.variational.PacketParams`): one packet, c = (1,) and
a = (beta,), for CS1/CSS1; two packets for CS2/CSS2, with a = (beta1,
-beta2) and c the pencil's unit eigenvector, in the canonical order of
:meth:`~rabivar.variational.PacketParams.canonical`.

Structure selection for two-packet kinds.  Below the delocalization
threshold the second packet buys only a sub-resolution energy gain while
its coefficients wander an almost flat valley, so the packet decomposition
is ill conditioned there.  solve_ansatz therefore reports the single-packet
reduction c = (1, 0), a = (beta, -beta), i.e. c2 = 0 and beta2 = beta1,
whenever BOTH hold:

  * the two-packet gain is below STRUCT_RTOL * max(1, |E|), and
  * reporting the reduction cannot disturb the family ordering, i.e. the
    restricted optimum is still at or below the unsqueezed two-packet
    optimum (always true for the unsqueezed kind itself).

The unsqueezed two-packet optimum of the second rule (the guard) is read
for the squeezed kind only when the first rule holds, since no other result
reads it.

The families nest, and a solve is built from stages, each the minimum of
one kind's objective over its starts.  A single-packet stage starts from
two fixed seeds: the small-displacement seed, carrying the squeezing
estimate when squeezed, and the unsqueezed mean-field seed.  Three more
seeds once ran after these and never won a stage over a sweep of 880
point-parities, so they were retired (see _single_starts).  A
two-packet stage starts from the optimum of the single-packet stage of
the same squeezing; the guard is the CS2 stage.  A
stage is the same problem in every solve that runs it, so solve_ansatz
takes an optional dict of stages, keyed by (params, kind, parity), that
it reads and fills: solves that share one (a scan point's rows, the
checks of rabivar verify) run each stage once and get the results each
would get alone.  OptResult.starts_tried and .nfev count the stages the
call ran.

A solve reports failure one way, OptResult.converged = False: its
gradient is not below GRAD_TOL, or a stage it read did not stop within
bfgs's iteration cap.  It raises nothing for either; the result holds the
best state found, so a caller reads one flag.

Energies of reduced results are exact restricted optima, not truncations
of the full ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams
from .variational import AnsatzKind, PacketParams, asymptotic_params, objective

GRAD_TOL = 1e-5
MAX_ITER = 500  # iterations of one bfgs run
TIE_RADIUS = 1e-3  # max-norm distance at which a run ties with a known optimum
_KNOWN_GRAD = GRAD_TOL**2  # gradient max-norm below which a stopped run's endpoint is a known optimum
STRUCT_RTOL = 1e-4
_EPS = 2.0**-52


@dataclass
class OptResult:
    """Outcome of one trial-state minimization."""

    kind: AnsatzKind
    parity: str
    energy: float
    params: PacketParams | None  # None when no start reached a finite energy
    starts_tried: int
    grad_norm: float
    converged: bool
    reduced: bool = False  # two-packet kinds: True if the single-packet reduction is reported
    nfev: int = 0  # objective evaluations over the stages this call ran


def bfgs(fg, x0, known=()):
    """Local minimum from x0 by BFGS with Armijo backtracking, in the three variables (beta1, beta2, xi).

    fg(x) returns (f, gradient) at a list x of three entries; f = inf
    rejects the point.  The inverse-Hessian estimate starts as the identity
    (steps then capped at unit length), is rescaled by s.y / y.y at its
    first update and is reset whenever it gives no descent direction.  A
    step is accepted on Armijo's condition or, where f is flat to its
    rounding eps * max(1, |f|), when it halves the largest gradient
    component.  The run stops once an iteration lowers f by no more than
    that rounding without halving the gradient, or when no step along the
    steepest descent is accepted.

    The iteration lives in float locals: three coordinates, gradients and
    steps, and the nine inverse-Hessian entries.  A slot fg does not read
    has an exactly zero gradient, so it stays at its start and adds only
    exact zeros to every sum: the iterates in the other slots are the same
    bit for bit as the textbook update on those variables alone.

    known holds optima found before, each three entries.  The run ends as
    a tie once an accepted iterate lies within TIE_RADIUS of one of them in
    max-norm; x0 itself is not tested.  With no known optima the run is the
    plain BFGS above.

    Returns (x, f, gradient, nfev, end), at the best point found: end is
    "stopped", "capped" when MAX_ITER iterations pass without stopping, or
    "tied" at the iterate that tied.  A rejected x0 returns at once,
    "stopped", with f = inf.  Raises ValueError unless x0 has three
    entries.
    """
    if len(x0) != 3:
        raise ValueError(f"bfgs takes 3 variables, got {len(x0)}")
    x0, x1, x2 = (float(v) for v in x0)
    f, g = fg([x0, x1, x2])
    nfev = 1
    if math.isfinite(f):
        g0, g1, g2 = g
    ident = True  # the inverse-Hessian estimate is the identity; else it is h00..h22
    h00 = h01 = h02 = h10 = h11 = h12 = h20 = h21 = h22 = 0.0
    for _ in range(MAX_ITER):
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
            fn, gn = fg([xn0, xn1, xn2])
            nfev += 1
            if fn <= f + 1e-4 * t * slope:
                break
            if fn <= f + noise and max(map(abs, gn)) < 0.5 * gmax:
                break  # f is flat to rounding here; the exact gradient decides
            t *= 0.5
        else:
            if ident:
                break
            ident = True
            continue
        gn0, gn1, gn2 = gn
        s0, s1, s2 = xn0 - x0, xn1 - x1, xn2 - x2
        y0, y1, y2 = gn0 - g0, gn1 - g1, gn2 - g2
        gain, f, g = f - fn, fn, gn
        x0, x1, x2, g0, g1, g2 = xn0, xn1, xn2, gn0, gn1, gn2
        for k0, k1, k2 in known:
            if abs(x0 - k0) <= TIE_RADIUS and abs(x1 - k1) <= TIE_RADIUS and abs(x2 - k2) <= TIE_RADIUS:
                return [x0, x1, x2], f, g, nfev, "tied"
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
        return [x0, x1, x2], f, g, nfev, "capped"
    return [x0, x1, x2], f, g, nfev, "stopped"


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


def _single_starts(params: ModelParams, squeezed: bool):
    """The two seeded (beta1, beta2, xi) starts of a single-packet stage; one packet reads no beta2.

    The small-displacement seed, with the squeezing estimate when squeezed,
    and the unsqueezed mean-field seed.  The seeds (0.5 beta_mf, 0) of CS1
    and (beta_mf, xi_seed) and (beta_small, 0) of CSS1 ran after these and
    never won a stage or were its only stopped run, over 880
    point-parities (tools/seed_audit.py), so they are retired.
    """
    bs, bm, xa = _seed_values(params)
    return [(bs, 0.0, xa if squeezed else 0.0), (bm, 0.0, 0.0)]


def _two_starts(params: ModelParams, squeezed: bool, single_x):
    """Three starts on the symmetric line beta1 = beta2 and one off it.

    single_x is the optimum of the single-packet stage of the same
    squeezing, whose xi is 0.0 when unsqueezed.  The start off the line
    keeps the odd solve at g = 0 from stalling on the stationary point with
    both packets at the origin.
    """
    bs, bm, xa = _seed_values(params)
    b1, _, x1 = single_x
    return [(b1, b1, x1), (bm, bm, xa if squeezed else 0.0), (bs, bs, 0.0), (b1 + 1.0, b1, x1)]


def solve_ansatz(params: ModelParams, kind: AnsatzKind, parity: str = "even", stages=None) -> OptResult:
    """Multi-start minimization of the chosen trial-state energy.

    stages optionally maps (params, stage kind, parity) to the stage's
    optimum (x, f, grad_norm, stopped), x = (beta1, beta2, xi) and stopped
    False when no start of the stage stopped within bfgs's iteration cap; a
    stage found there is read, and every stage the call solves is added to
    it.  Odd parity is valid
    only for two-packet kinds.  The result is converged when its gradient
    is below GRAD_TOL and every stage it read stopped; the guard is read
    only for a reduction candidate.  An unconverged result still holds the
    best state found, and its params is None only when no start reached a
    finite energy.  Two-packet results may report the single-packet
    reduction; see the module docstring for the selection rule.
    """
    if parity == "odd" and not kind.two_branch:
        raise ValueError("odd parity requires a two-packet trial state")
    stages = {} if stages is None else stages
    count = [0, 0]  # starts tried, objective evaluations
    single_kind = AnsatzKind.CSS1 if kind.squeezed else AnsatzKind.CS1

    def pack(stage, x):
        """The parameters of this kind's trial state at the stage's optimum x."""
        xi = x[2]  # 0.0 for unsqueezed stages, whose xi slot never moves
        if stage.two_branch:
            return PacketParams(objective(params, stage, parity)(x, True), (x[0], -x[1]), xi).canonical()
        if kind.two_branch:  # the single-packet reduction: c2 = 0, beta2 = beta1
            return PacketParams((1.0, 0.0), (x[0], -x[0]), xi)
        return PacketParams((1.0,), (x[0],), xi)

    def report(stage, x, f, grad_norm, stopped, reduced=False):
        packed = pack(stage, x) if math.isfinite(f) else None
        converged = stopped and grad_norm < GRAD_TOL  # grad_norm is inf at a non-finite f
        return OptResult(kind, parity, f, packed, count[0], grad_norm, converged, reduced, count[1])

    def minimize(stage, starts):
        """Lowest BFGS run of the stage kind's objective over the starts: (x, f, grad_norm, stopped).

        Each run is handed the known optima of the runs before it; a tied
        run is left out, and stopped is True when any run stopped.
        """
        fg = objective(params, stage, parity)
        known, best, stopped = [], None, False
        for start in starts:
            x, f, g, nfev, end = bfgs(fg, start, known)
            count[1] += nfev
            if end == "tied":
                continue
            grad_norm = max(map(abs, g)) if math.isfinite(f) else math.inf
            if end == "stopped":
                stopped = True
                if grad_norm < _KNOWN_GRAD:
                    known.append(x)
            if best is None or f < best[1]:  # the first of equal minima
                best = tuple(x), f, grad_norm
        count[0] += len(starts)
        return (*best, stopped)

    def solved(stage):
        """The stage's (x, f, grad_norm, stopped), read from stages or minimized from its starts and stored."""
        key = (params, stage, parity)
        if key not in stages:
            if stage.two_branch:
                single = solved(AnsatzKind.CSS1 if stage.squeezed else AnsatzKind.CS1)
                starts = _two_starts(params, stage.squeezed, single[0])
            else:
                starts = _single_starts(params, stage.squeezed)
            stages[key] = minimize(stage, starts)
        return stages[key]

    xs, fs, g1, stopped = solved(single_kind)
    if not kind.two_branch:
        return report(single_kind, xs, fs, g1, stopped)
    xf, ff, gf, full_stopped = solved(kind)
    stopped = stopped and full_stopped
    if fs - ff <= STRUCT_RTOL * max(1.0, abs(ff)):
        fc = math.inf  # reducing the top of the ordering chain (CS2) is always safe
        if kind.squeezed:
            # Raising the squeezed two-packet report to its restricted optimum
            # must not lift it above the unsqueezed two-packet optimum (the
            # CS2 stage), or the family ordering would be disturbed.
            _, fc, _, guard_stopped = solved(AnsatzKind.CS2)
            stopped = stopped and guard_stopped
        if fs <= fc + 1e-10 * max(1.0, abs(fc)):
            return report(single_kind, xs, fs, g1, stopped, reduced=True)
    return report(kind, xf, ff, gf, stopped)
