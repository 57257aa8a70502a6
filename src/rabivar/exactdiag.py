"""Exact diagonalization on the tridiagonal parity chains, with adaptive truncation.

Each parity sector of the Hamiltonian is a tridiagonal chain (see
:func:`parity_chain`), solved by LAPACK's bisection and inverse iteration
(``dstebz``/``dstein``, through :mod:`rabivar._lapack`); the dense
spin x Fock matrix of :mod:`rabivar.fock` is never formed here and serves
only as an independent cross-check.  A sector solve returns the vector
of the chain it solved, one amplitude per Fock level with the spin the
parity fixes, not the oracle's spin-major layout; it is phase-fixed
(largest-magnitude amplitude positive) so repeated solves are
reproducible.  The module solves one sector at a time
(:func:`solve_parity_sector`) and never compares the float sector
energies: which parity is lowest is the sign of the even-minus-odd
splitting, which in the two-packet regime lies far below double
precision.  It comes from :func:`sector_splitting`, which takes the two
sector solves, starts its decimal Newton roots from their float ones and
certifies the roots it returns by Sturm counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import _lapack
from .errors import TruncationNotConverged
from .model import PARITIES, ModelParams, Truncation, parity_sign

N_TR_CAP = 4096
SPLITTING_DIGITS = 90  # first precision of sector_splitting
SPLITTING_DIGITS_CAP = 240  # keeps a certified splitting inside double range
_EPS = float(np.finfo(float).eps)


@dataclass
class SpectrumResult:
    """Ground level of one parity sector: its energy, chain vector and parity, plus the truncation actually used.

    parity is the sector's name, "even" or "odd".  vector is the
    phase-fixed eigenvector of :func:`parity_chain` on levels 0..n_tr_used,
    in chain order: site m is Fock level m, with spin down where
    ``_down_sites(n_tr_used, parity)`` is true and spin up elsewhere.
    """

    energy: float
    vector: np.ndarray
    parity: str
    n_tr_used: int
    tail_weight: float


def _phase_fix(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return v if v[i] > 0 else -v


def _down_sites(n_tr: int, parity: str) -> np.ndarray:
    """Mask of the chain sites 0..n_tr that carry spin down: (-1)^m equals the sign of parity.

    parity is "even" or "odd"; it goes through
    :func:`rabivar.model.parity_sign`, so every chain reader built on this
    mask rejects any other value with ValueError.
    """
    return (np.arange(n_tr + 1) % 2 == 0) == (parity_sign(parity) == +1)


def parity_chain(params: ModelParams, n_tr: int, parity: str):
    """Tridiagonal form (diagonal, links) of the "even" or "odd" parity sector on levels 0..n_tr.

    Chain site m is Fock level m with the spin that puts it in the sector:
    spin down when (-1)^m equals the parity's sign (+1 even, -1 odd), spin
    up otherwise.  The diagonal is -+delta/2 + omega m, so the even chain
    starts at -delta/2 and the odd one at +delta/2; the link into site m
    is g sqrt(m) when site m is spin down and g tau sqrt(m) when it is
    spin up, so the two chains alternate the two couplings in opposite
    order (the parity basis of Braak, PRL 107, 100401 (2011)).
    """
    m = np.arange(n_tr + 1)
    down = _down_sites(n_tr, parity)
    diag = np.where(down, -0.5, 0.5) * params.delta + params.omega * m
    link = np.where(down, params.g, params.g * params.tau) * np.sqrt(m)
    return diag, link[1:]


def _norm_scale(diag: np.ndarray, link: np.ndarray, e: float) -> float:
    """Bound on the norm of T - e, the scale of an eigensolver's rounding near e."""
    return float(np.max(np.abs(diag)) + abs(e) + 2.0 * np.max(link, initial=0.0))


def solve_parity_sector(params: ModelParams, trunc: Truncation, parity: str) -> SpectrumResult:
    """Ground level of the "even" or "odd" parity sector, with adaptive truncation.

    n_tr doubles (up to N_TR_CAP) until the ground vector's tail weight
    (Truncation.tail_weight) is at most tail_tol; its top Fock levels are
    its last chain sites.  Raises TruncationNotConverged if the cap is
    insufficient.  The returned vector is the chain's, one amplitude per
    Fock level (see :class:`SpectrumResult`).  Which sector holds the
    ground state is not decided from the float energies: past the
    delocalization threshold they agree to far below double precision,
    and only the sign of :func:`sector_splitting` tells them apart.
    """
    n_tr = trunc.n_tr
    while True:
        e, v = _lapack.lowest_eigenpair(*parity_chain(params, n_tr, parity))
        tail = Truncation.tail_weight(v)
        if tail <= trunc.tail_tol:
            return SpectrumResult(e, _phase_fix(v), parity, n_tr, tail)
        if n_tr >= N_TR_CAP:
            raise TruncationNotConverged(
                f"tail weight {tail:.3e} > {trunc.tail_tol:.3e} at n_tr={n_tr}",
                n_tr=n_tr,
                tail_weight=tail,
            )
        n_tr = min(2 * n_tr if n_tr > 0 else 1, N_TR_CAP)


@dataclass
class SectorSplitting:
    """Even-minus-odd splitting of the lowest levels of the two parity sectors.

    splitting is None when its magnitude never exceeded its error bound
    within the digit and truncation caps; it then carries no sign.  error
    bounds the rounding plus truncation error of the last attempt, and
    digits and n_tr are the precision and cutoff that attempt used.
    """

    splitting: float | None
    error: float
    digits: int
    n_tr: int


_NEWTON_STEPS = 12
_LADDER = (34, 68, 136)  # digits of the passes from a float seed, whose ~17 correct digits each pass doubles
_CUT_MARGIN = 1e-2  # extrapolated truncation bound sought, relative to the rounding bound


def _exact_chain(params: ModelParams, n_tr: int, parity: str):
    """Diagonal and squared links of :func:`parity_chain` in the current decimal context.

    The squared links g^2 m and g^2 tau^2 m are built from the exact decimal
    values of the float couplings, so no rounded square root enters them.
    """
    half = Decimal(float(params.delta)) / 2
    omega = Decimal(float(params.omega))
    g2 = Decimal(float(params.g)) ** 2
    g2_tau2 = g2 * Decimal(float(params.tau)) ** 2
    diag, link2 = [], []
    for m, down in enumerate(_down_sites(n_tr, parity)):
        diag.append(omega * m - half if down else omega * m + half)
        link2.append((g2 if down else g2_tau2) * m)
    return diag, link2[1:]


def _sturm_count(diag, link2, x) -> int:
    """Number of chain eigenvalues below x: the negative pivots of T - x = L D L^T."""
    q = diag[0] - x
    count = int(q < 0)
    for d, b2 in zip(diag[1:], link2):
        q = d - x - b2 / q
        count += q < 0
    return count


def _newton_step(diag, link2, e):
    """One Newton step on det(T - E) at e, in the current decimal context.

    The logarithmic derivative of the determinant is the sum of w_m = q_m'/q_m
    over the pivots q_m of T - E, with w_m from differentiating the pivot
    recurrence, so the determinant itself, which over- and underflows, is
    never formed.  An exactly vanishing pivot makes e a root of a leading
    block of the chain, and of the chain itself where a zero link cuts it
    there (a decoupled chain, g = 0); the step is then 0, and the Sturm
    counts of :func:`_certified` decide whether e is the lowest root.
    """
    try:
        q = diag[0] - e
        w = -1 / q
        logder = w
        for d, b2 in zip(diag[1:], link2):
            r = b2 / q
            q = d - e - r
            w = (r * w - 1) / q
            logder += w
    except ArithmeticError:  # x / 0 or 0 / 0 at the vanishing pivot
        return Decimal(0)
    return 1 / logder


def _newton_lowest(diag, link2, seed, tol, ladder):
    """Newton on det(T - E) from seed; None if it has not converged to tol.

    The first passes run at the digits in ladder, below the working
    precision, then every pass runs at the working precision.  Convergence
    is quadratic, so iteration stops once a full-digit step is below tol or
    its square is below tol / 10^6: the step after it would be smaller than
    tol unless another eigenvalue lay within 10^-6.
    """
    e = Decimal(seed)
    for digits in ladder:
        with localcontext(Context(prec=digits)):
            e -= _newton_step(diag, link2, e)
    for _ in range(_NEWTON_STEPS):
        step = _newton_step(diag, link2, e)
        e -= step
        if abs(step) <= tol or (step * step).scaleb(6) <= tol:
            return e
    return None


def _truncation_bounds(diag: list, link: list, e: float, peak: int, v_peak: float, first: int) -> list:
    """Estimated drop of the lowest level when the chain cut after site n continues, n = first..N.

    diag and link hold one site beyond the chain 0..N.  The estimate is
    twice the second-order shift b_{n+1}^2 v_n^2 / (d_{n+1} - E), the factor
    2 covering the higher orders.  v_n is carried from the eigenvector's
    peak component v_peak by the backward recurrence from site N, which is
    stable from the tail up to the peak because the eigenvector grows along
    it.  At n = N this bounds the chain as given; at n < N the ratios of
    the longer chain stand in for those of the chain cut at n.  A zero link
    (g = 0) cuts the eigenvector off, so the bounds past it are 0.
    """
    n_last = len(diag) - 2
    rho, logs = 0.0, []
    for m in range(n_last, peak, -1):
        rho = link[m - 1] / (e - diag[m] - link[m] * rho)  # v_m / v_{m-1}
        logs.append(math.log(abs(rho)) if rho else -math.inf)
    log_v = list(accumulate(reversed(logs), initial=0.0))  # log |v_m / v_peak| from m = peak
    bounds = []
    for n in range(first, n_last + 1):
        gap = diag[n + 1] - e
        v_n = v_peak * math.exp(log_v[n - peak])
        bounds.append(2.0 * link[n] ** 2 * v_n**2 / gap if gap > 0.0 else math.inf)
    return bounds


class _Root(NamedTuple):
    """One chain's Newton root in one attempt of :func:`sector_splitting`, not yet certified.

    e is None when Newton did not converge, and rounding and trunc are then
    infinite.  rounding is 2r, where r, the radius, is ten units of the last
    digit on the chain's norm scale; trunc is the chain's truncation bound; tail
    is (float eigenvalue, peak site, peak component) for
    :func:`_next_cutoff`; chain is the decimal (diagonal, squared links).
    """

    e: Decimal | None
    radius: Decimal
    rounding: float
    trunc: float
    tail: tuple
    chain: tuple


def _newton_root(params: ModelParams, n_tr: int, parity: str, digits: int, solve, start=None, near=None) -> _Root:
    """Lowest chain eigenvalue in `digits` digits by Newton, with a-priori rounding and truncation bounds.

    solve is the chain's float (eigenvalue, eigenvector) on levels
    0..n_tr; only the eigenvalue, the vector's peak site and the square of
    its peak component are read, so either sign of the vector will do.
    Newton starts from near, the other chain's root in the same attempt,
    when it lies within the float resolution (ten units of eps on the
    chain's norm scale) of this chain's float eigenvalue; else from start,
    the root of an earlier attempt; else from the float eigenvalue through
    the digit ladder _LADDER.
    """
    seed, v_f = solve
    diag_f, link_f = parity_chain(params, n_tr + 1, parity)
    peak = int(np.argmax(np.abs(v_f)))
    tail = (seed, peak, float(v_f[peak]))
    scale = _norm_scale(diag_f, link_f, seed)
    if near is not None and abs(float(near) - seed) <= 10.0 * _EPS * scale:
        start = near
    ladder = () if start is not None else tuple(p for p in _LADDER if p < digits)
    with localcontext(Context(prec=digits)):
        radius = Decimal(10.0 * scale).scaleb(1 - digits)
        chain = _exact_chain(params, n_tr, parity)
        try:
            e = _newton_lowest(*chain, seed if start is None else start, radius, ladder)
        except ZeroDivisionError:  # a vanishing log-derivative
            e = None
    if e is None:
        return _Root(None, radius, math.inf, math.inf, tail, chain)
    trunc = _truncation_bounds(diag_f.tolist(), link_f.tolist(), float(e), peak, tail[2], n_tr)[0]
    return _Root(e, radius, 2.0 * float(radius), trunc, tail, chain)


def _certified(root: _Root, digits: int) -> bool:
    """Whether Sturm counts prove root.e the lowest chain eigenvalue to within 2r.

    The counts at E -+ r must find no eigenvalue below E - r and one below
    E + r, where r is root.radius; 2r covers the rounding of the counts
    themselves (Barth, Martin & Wilkinson, Numer. Math. 9 (1967)).
    """
    with localcontext(Context(prec=digits)):
        try:
            below = _sturm_count(*root.chain, root.e - root.radius)
            return below == 0 and _sturm_count(*root.chain, root.e + root.radius) >= 1
        except ArithmeticError:  # an exactly vanishing pivot
            return False


def _next_cutoff(params: ModelParams, n_tr: int, tails, target: float) -> int:
    """Least cutoff after n_tr whose truncation bound, extrapolated from the float vectors, is below target.

    tails holds each parity's (float eigenvalue, peak site, peak component)
    at n_tr.  :func:`_truncation_bounds` on chains of twice the length
    carries the peak component out to every longer cutoff.  Returns the
    doubled cutoff (at most N_TR_CAP) if none is below target.
    """
    n_far = min(max(2 * n_tr, 1), N_TR_CAP)
    total = [0.0] * (n_far - n_tr)
    for parity, (e, peak, v_peak) in zip(PARITIES, tails):
        diag, link = parity_chain(params, n_far + 1, parity)
        bounds = _truncation_bounds(diag.tolist(), link.tolist(), e, peak, v_peak, n_tr + 1)
        total = [a + b for a, b in zip(total, bounds)]
    return next((n for n, bound in zip(range(n_tr + 1, n_far + 1), total) if bound <= target), n_far)


def sector_splitting(params: ModelParams, even: SpectrumResult, odd: SpectrumResult) -> SectorSplitting:
    """Certified E_even - E_odd of the lowest parity-sector levels in extended precision.

    even and odd are the two sector solves (:func:`solve_parity_sector`)
    whose splitting is sought; each serves the chain of its own parity.
    Both parity chains are solved by Newton in SPLITTING_DIGITS decimal
    digits on Fock levels 0..n_tr, n_tr the larger of the two solves'
    cutoffs (:func:`_newton_root`): the even chain from its float
    eigenvalue through a digit ladder, the odd chain from the even root
    when the two agree to float resolution.  The float solves are the
    sector solves', a sector solved at a smaller cutoff being solved again
    at n_tr, and they serve every attempt at that cutoff.  The
    difference counts only when its magnitude exceeds the sum of both
    chains' a-priori rounding bounds and truncation bounds; Sturm counts
    then certify both roots (:func:`_certified`), and if they fail the
    attempt counts as unconverged: its rounding bound is infinite and the
    next attempt starts both chains from their float eigenvalues again.
    Otherwise, when truncation dominates the bound, n_tr grows to the
    cutoff whose truncation bound, extrapolated from the float eigenvectors
    (:func:`_next_cutoff`), is a hundredth of the rounding bound, at most
    doubling, and both chains are solved again there; when rounding
    dominates, the digits double.  Each new attempt starts Newton from the
    previous one's roots.  Past N_TR_CAP or SPLITTING_DIGITS_CAP the
    splitting stays unresolved.
    """
    n_tr = max(even.n_tr_used, odd.n_tr_used)
    solves = {
        res.parity: (res.energy, res.vector) if res.n_tr_used == n_tr
        else _lapack.lowest_eigenpair(*parity_chain(params, n_tr, res.parity))
        for res in (even, odd)
    }
    digits = SPLITTING_DIGITS
    starts = (None, None)
    while True:
        root_even = _newton_root(params, n_tr, "even", digits, solves["even"], starts[0])
        root_odd = _newton_root(params, n_tr, "odd", digits, solves["odd"], starts[1], root_even.e)
        rounding = root_even.rounding + root_odd.rounding
        truncation = root_even.trunc + root_odd.trunc
        if math.isfinite(rounding):
            with localcontext(Context(prec=digits)):
                split = root_even.e - root_odd.e
            if abs(split) > Decimal(rounding + truncation):
                if _certified(root_even, digits) and _certified(root_odd, digits):
                    return SectorSplitting(float(split), rounding + truncation, digits, n_tr)
                rounding = math.inf  # the counts failed: an unconverged attempt
        starts = (root_even.e, root_odd.e) if math.isfinite(rounding) else (None, None)
        if truncation > rounding and n_tr < N_TR_CAP:
            n_tr = _next_cutoff(params, n_tr, (root_even.tail, root_odd.tail), _CUT_MARGIN * rounding)
            solves = {parity: _lapack.lowest_eigenpair(*parity_chain(params, n_tr, parity)) for parity in PARITIES}
        elif truncation <= rounding and digits < SPLITTING_DIGITS_CAP:
            digits = min(2 * digits, SPLITTING_DIGITS_CAP)
        else:
            return SectorSplitting(None, rounding + truncation, digits, n_tr)


def spin_x_projection(res: SpectrumResult):
    """Coefficient lists (c_plus, c_minus) of a sector's vector in the sigma_x eigenbasis.

    c_{n,+-} = (c_up(n) +- c_down(n)) / sqrt(2); level n carries one spin in
    the chain, so c_plus is the chain vector over sqrt(2) and c_minus is
    -c_plus on the spin-down sites, +c_plus elsewhere.
    """
    c_plus = (1.0 / np.sqrt(2.0)) * res.vector
    return c_plus, np.where(_down_sites(res.n_tr_used, res.parity), -c_plus, c_plus)


def mean_photon_ed(res: SpectrumResult) -> float:
    """Mode-occupation expectation sum_n n (c_up(n)^2 + c_down(n)^2) of a sector's vector.

    The two spins' sums are taken apart, each over the chain vector with
    the other spin's sites zeroed, so the value is bit for bit that of the
    two blocks of the spin x Fock vector.
    """
    n = np.arange(res.n_tr_used + 1)
    down, v = _down_sites(res.n_tr_used, res.parity), res.vector
    return float(np.dot(n, np.where(down, 0.0, v) ** 2) + np.dot(n, np.where(down, v, 0.0) ** 2))
