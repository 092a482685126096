"""Large-system (deterministic-equivalent) rates for correlated MIMO links.

A link at a precoder P is seen through the spectrum of
K = T^(1/2) P T^(1/2) and its receive antenna count N (R = I). Its
ergodic MI is approximated in closed form from them and a pair
(e, delta) that solves two coupled trace equations (Hachem, Loubaton
and Najim, 2007). FixedPoint is that evaluated link, which Monte Carlo
samples too. The secrecy rate is the clamped difference of the two
links' MIs. All rates here are in nats per transmit antenna; conversion
to bits happens at the reporting boundary.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import ChannelStatistics
from .errors import NoConvergence, as_value
from .linalg import psd_eigh_stack

_FP_TOL = 1e-12
_FP_MAX_ITER = 10_000


@dataclass(frozen=True)
class FixedPoint:
    """One link evaluated at a precoder P: the solution (e, delta) of its
    coupled trace equations, the eigenvalues k_eigs of K = T^(1/2) P T^(1/2)
    that the solve used, and the link's stats; together they give its MI.

    mi is the deterministic-equivalent ergodic MI, nats per transmit
    antenna: (1/M) ln det(I + b e K) + (N/M) ln(1 + d) - (b/rho) d e,
    with K = T^(1/2) P T^(1/2) (same determinant as T P, but guaranteed
    HPD), and 0 at rho = 0. The solve evaluates it with (e, delta).
    """

    e: float
    delta: float
    iterations: int
    residual: float
    mi: float
    k_eigs: np.ndarray = field(repr=False, compare=False)
    stats: ChannelStatistics = field(repr=False, compare=False)

    @cached_property
    def mi_variance(self) -> float:
        """Variance of one realization of the per-antenna MI that Monte
        Carlo averages, from the CLT for Kronecker channels (Hachem,
        Loubaton and Najim, Ann. Appl. Probab., 2008): -ln(1 - a b) / M^2,
        with a = rho / (1 + delta)^2, the receive sum at R = I, and
        b = (rho/M) beta sum k^2 / (1 + beta e k)^2.

        1 - a b is the derivative dg of solve_fixed_point's scalar equation
        at its root, here evaluated on demand so that the solve does no
        extra work.
        """
        rho, beta, m, k = self.stats.snr, self.stats.beta, self.stats.num_tx, self.k_eigs
        a = rho / (1.0 + self.delta) ** 2
        b = (rho / m) * beta * np.sum((k / (1.0 + beta * self.e * k)) ** 2)
        return float(-np.log1p(-a * b) / m**2)


@dataclass(frozen=True)
class LslRate:
    """Deterministic-equivalent secrecy rate: the clamped gap of the MIs
    of both links, evaluated at the same precoder."""

    fp_main: FixedPoint
    fp_eave: FixedPoint

    @property
    def rs(self) -> float:
        return max(0.0, self.fp_main.mi - self.fp_eave.mi)


def solve_fixed_point(stats: ChannelStatistics, p: np.ndarray, start: float | None = None) -> FixedPoint:
    """Solve e = (rho/N) tr{(I + d I)^-1} = rho / (1 + d), the receive
    equation at R = I, and d = (rho/M) tr{K(I + b e K)^-1}.

    K's eigenvalues come from an eigendecomposition of the symmetrized
    T^(1/2) P T^(1/2), clipped at 0 (one below -1e-12 raises NotPsd);
    solve_fixed_points also takes them from the caller, as a design
    knows them. The returned FixedPoint carries them and stats, so its
    mi and Monte Carlo reuse them. The first equation gives e as an
    explicit function e(d), which turns the pair into the scalar
    equation

        g(d) = d - (rho/M) sum_i k_i / (1 + b e(d) k_i) = 0.

    The sum is positive and at most (rho/M) sum_i k_i, so g(0) <= 0 <=
    g(hi) on the bracket [0, hi = (rho/M) sum_i k_i], and the root is
    unique because g(d)/d increases. Newton steps d - g(d)/g'(d), with
    g' from the chain rule through e'(d) = -e / (1 + d), start at start
    if it lies in (0, hi), and at hi otherwise: without a start, or with
    one that is out of the bracket or not a number, the solve is the
    cold one. Each evaluation shrinks the bracket to the side that keeps
    the sign change, and a step that would leave the bracket is replaced
    by its midpoint. A start near the root, such as the delta of the
    same link at a nearby precoder, saves iterations; the root is the
    same to the tolerance, not bit for bit.

    The solve stops once one more substitution step would move d by at
    most 1e-12 relative to max(1, d); that size is the returned
    residual. rho = 0 returns e = d = 0 exactly.

    This is the one-pair case of solve_fixed_points.
    """
    (result,) = solve_fixed_points([(stats, p)], [start])
    if isinstance(result, Exception):
        raise result
    return result


def solve_fixed_points(
    pairs: Sequence[tuple[ChannelStatistics, np.ndarray]],
    starts: Sequence[float | None] | None = None,
    spectra: Sequence[np.ndarray | None] | None = None,
) -> list[FixedPoint | Exception]:
    """solve_fixed_point of every (stats, p) in pairs, each from its start
    in starts (all cold when starts is None), solved together.

    spectra holds, per pair, None or the eigenvalues of its K as the
    caller already knows them, ascending and clipped at 0, as the designs
    do (precoders.Design); such a pair's K is not factored, and its
    FixedPoint carries the spectrum given. The other Ks with the same M
    are factored in one stacked eigendecomposition.

    The Newton iterations of all pairs with the same M run together, as
    one stack, whatever their N: their arrays stack as columns, each
    reduced along its own contiguous column, with beta and rho held per
    column, so every sum and every elementwise operation is the one a
    pair alone makes. Each pair keeps its own bracket, start, step test
    and stop, in Python floats, and leaves the stack when it stops. So
    each result is bit for bit what solve_fixed_point returns for its
    pair alone from the same start and spectrum; a pair that fails
    gets, in place of its FixedPoint, the exception it would raise there
    (NotPsd, NoConvergence, or a LinAlgError from LAPACK), without a
    traceback, and fails alone.
    """
    if starts is None:
        starts = [None] * len(pairs)
    results = _k_spectra(pairs, spectra)
    groups = {}
    for i, ((stats, _), k_eigs) in enumerate(zip(pairs, results)):
        if not isinstance(k_eigs, Exception):
            groups.setdefault(stats.num_tx, []).append(i)
    for slots in groups.values():
        _newton([pairs[i][0] for i in slots], [results[i] for i in slots], [starts[i] for i in slots], slots, results)
    return results


def _k_spectra(
    pairs: Sequence[tuple[ChannelStatistics, np.ndarray]], spectra: Sequence[np.ndarray | None] | None
) -> list[np.ndarray | Exception]:
    """The clipped eigenvalues of each pair's K: the one given in spectra,
    else from one psd_eigh_stack per transmit size M, or the error that
    factoring it raises. Each link's T^(1/2) was built with its
    Transmit. The stacks stay small: at most 29 Ks of order 4 in a
    fig2-fig5 pass, and 4 of order 8 in the benchmark's stress sweeps."""
    known = [None] * len(pairs) if spectra is None else list(spectra)
    by_m = {}
    for i, (stats, _) in enumerate(pairs):
        if known[i] is None:
            by_m.setdefault(stats.num_tx, []).append(i)
    for same_m in by_m.values():
        _factor_ks(pairs, same_m, known)
    return known


def _factor_ks(pairs: Sequence[tuple[ChannelStatistics, np.ndarray]], slots: list[int], spectra: list) -> None:
    """Write to spectra[i] the clipped eigenvalues of pairs[i]'s K, or
    the error that factoring it raises, for each i in slots, with one
    psd_eigh_stack. If LAPACK fails on the stack, its matrices are
    factored one at a time, so that the failure stays with its pair."""
    t_sqrt = np.stack([pairs[i][0].transmit.t_sqrt for i in slots])
    try:
        k_eigs, _, errors = psd_eigh_stack(t_sqrt @ np.stack([pairs[i][1] for i in slots]) @ t_sqrt)
    except np.linalg.LinAlgError as exc:
        if len(slots) > 1:
            for i in slots:
                _factor_ks(pairs, [i], spectra)
        else:
            spectra[slots[0]] = as_value(exc)
        return
    for i, k, error in zip(slots, k_eigs, errors):
        spectra[i] = k if error is None else error


def _newton(
    stats: list[ChannelStatistics], k_eigs: list[np.ndarray], starts: list, slots: list[int], results: list
) -> None:
    """The safeguarded Newton iteration of solve_fixed_point for links
    that share M, each from its start, writing each FixedPoint or
    NoConvergence to results[slot]. The links run on (M, B) arrays whose
    columns are contiguous, so each column's sum is a 1-D sum; the
    receive equation at R = I is the closed form e = rho / (1 + d),
    whatever N. The MIs of all links that solve are evaluated together
    at the end."""
    m = stats[0].num_tx
    k = np.stack(k_eigs).T
    rho, beta = np.array([s.snr for s in stats]), np.array([s.beta for s in stats])
    link_columns = k, rho, beta
    # Per link: its (e, delta, iterations, residual) once solved; and the
    # links still iterating, by index.
    solved = [None] * len(stats)
    columns = list(range(len(stats)))

    # Loop invariants; each product keeps the equations' left-to-right
    # grouping, x * x is x**2, and np.add.reduce(x, 0) is np.sum(x) of
    # each column without its Python wrappers, so every iterate is
    # bit-identical to the plain transcription.
    column_sum = np.add.reduce
    rho_m = rho / m
    rho_m_beta = rho_m * beta
    hi = (rho_m * column_sum(k, 0)).tolist()
    lo = [0.0] * len(hi)
    delta = [top if start is None or not 0.0 < start < top else float(start) for start, top in zip(starts, hi)]
    residual = [np.inf] * len(hi)
    for it in range(1, _FP_MAX_ITER + 1):
        d = np.array(delta)
        e = rho / (1.0 + d)
        de = -e / (1.0 + d)
        k_q = k / (1.0 + beta * e * k)
        g = d - rho_m * column_sum(k_q, 0)
        g_list = g.tolist()
        residual = [abs(gj) / max(1.0, dj) for gj, dj in zip(g_list, delta)]
        # Each residual on its own: a NaN one must not hide the others.
        if any(res <= _FP_TOL for res in residual):
            e_list = e.tolist()
            keep = []
            for j, res in enumerate(residual):
                if res <= _FP_TOL:
                    solved[columns[j]] = e_list[j], delta[j], it, res
                else:
                    keep.append(j)
            if not keep:
                break
            columns = [columns[j] for j in keep]
            lo, hi, delta = [lo[j] for j in keep], [hi[j] for j in keep], [delta[j] for j in keep]
            g_list, residual = [g_list[j] for j in keep], [residual[j] for j in keep]
            # Rows of the transposes, so that the columns stay contiguous.
            k, k_q = (x.T[keep].T for x in (k, k_q))
            rho, rho_m, rho_m_beta, beta, de = rho[keep], rho_m[keep], rho_m_beta[keep], beta[keep], de[keep]
        dg = 1.0 + rho_m_beta * de * column_sum(k_q * k_q, 0)
        dg_list = dg.tolist()
        for j, (dj, gj, dgj) in enumerate(zip(delta, g_list, dg_list)):
            if gj < 0.0:
                lo[j] = dj
            else:
                hi[j] = dj
            if dgj > 0.0 and lo[j] < dj - gj / dgj < hi[j]:
                delta[j] = dj - gj / dgj
            else:
                delta[j] = 0.5 * (lo[j] + hi[j])
    else:
        for j, res in zip(columns, residual):
            results[slots[j]] = NoConvergence(f"fixed point residual {res:.3e} after {_FP_MAX_ITER} iterations")

    done = [j for j, fp in enumerate(solved) if fp is not None]
    if not done:
        return
    k, rho, beta = link_columns
    n = np.array([stats[j].num_rx for j in done], dtype=float)
    if len(done) < len(solved):
        k, rho, beta = k.T[done].T, rho[done], beta[done]
    e, delta = np.array([solved[j][0] for j in done]), np.array([solved[j][1] for j in done])
    for j, mi in zip(done, _mi(beta, n, k, rho, e, delta)):
        results[slots[j]] = FixedPoint(*solved[j], mi, k_eigs[j], stats[j])


def _mi(beta: np.ndarray, n: np.ndarray, k: np.ndarray, rho: np.ndarray, e: np.ndarray, delta: np.ndarray) -> list[float]:
    """FixedPoint.mi of each column of _newton's (M, B) spectra k, whose
    columns are contiguous, at its beta, receive count n, rho, e and
    delta (B,). Each product keeps the formula's left-to-right grouping
    and each column's sum is a 1-D sum, so every MI is bit for bit that
    of its link alone. rho = 0 gives 0.0."""
    m = k.shape[0]
    term_t = np.add.reduce(np.log1p(beta * e * k), 0)
    term_r = n * np.log1p(delta)
    positive = rho > 0.0
    scale = np.divide(beta, rho, out=np.zeros_like(rho), where=positive)
    mi = (term_t + term_r) / m - scale * delta * e
    return np.where(positive, mi, 0.0).tolist()


def lsl_secrecy_rate(
    stats_m: ChannelStatistics,
    stats_e: ChannelStatistics,
    p: np.ndarray,
    starts: tuple[float | None, float | None] | None = None,
) -> LslRate:
    """Clamped difference of both links' deterministic-equivalent MIs;
    the one-item case of lsl_secrecy_rates."""
    (result,) = lsl_secrecy_rates([(stats_m, stats_e, p)], None if starts is None else [starts])
    if isinstance(result, Exception):
        raise result
    return result


def lsl_secrecy_rates(
    items: Sequence[tuple[ChannelStatistics, ChannelStatistics, np.ndarray]],
    starts: Sequence[tuple[float | None, float | None]] | None = None,
    spectra: Sequence[tuple[np.ndarray | None, np.ndarray | None]] | None = None,
) -> list[LslRate | Exception]:
    """lsl_secrecy_rate of every (stats_m, stats_e, p) in items, with both
    links of all of them in one solve_fixed_points call. starts holds,
    per item, the start delta of its main link's solve and of its
    eavesdropper's (see solve_fixed_point); without it every solve is
    cold. spectra holds, per item, K's known eigenvalues or None for
    each link, in the same order (see solve_fixed_points); without it
    every K is factored. An item that fails gets its main link's error,
    else its eavesdropper's."""
    if any(stats_m.num_tx != stats_e.num_tx for stats_m, stats_e, _ in items):
        raise ValueError("both links must share the transmit antenna count")
    fps = solve_fixed_points(
        [(stats, p) for stats_m, stats_e, p in items for stats in (stats_m, stats_e)],
        None if starts is None else [start for pair in starts for start in pair],
        None if spectra is None else [k for pair in spectra for k in pair],
    )
    return [
        main if isinstance(main, Exception) else eave if isinstance(eave, Exception) else LslRate(main, eave)
        for main, eave in zip(fps[::2], fps[1::2])
    ]
