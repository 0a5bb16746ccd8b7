"""Scaled cumulant generating functions of multiplicative ergodic averages,
their Legendre-transform rate functions, and the Monte Carlo harness.

For a first-layer observable f the SCGF is F(t) = sum_k 2^{-(k+2)} P^k(t f*),
P^k the tilted layer pressures.  One forward-mode prefix pass gives P^k and
dP^k, so F and F' are exact up to the series truncation; rate_curve solves
F'(t*) = x on it by a bracketed secant.  The CLT variance F''(0) sums Var S_k
from the linear pass ising1d.prefix_variances.  Every series is summed by
arith.dyadic_sum to the depth arith.dyadic_depth picks from the growths
(k+1) |t| sup|f*| of P^k, (k+1) sup|f*| of dP^k and (k+1)^2 sup|f*|^2 of
d2P^k; the depth covers the F'' growth also where only F and F' are summed.
I(x) = sup_t (tx - F(t)) is the large-deviation rate of
X_N = (1/N) sum_{i<=N} f(s_{i.}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import arith, gibbs
from .errors import PreconditionError
from .ising1d import (
    ModelParams,
    _as_transfer,
    _tilted_steps,
    log_partition_prefix,
    prefix_sum_range,
    prefix_variances,
)
from .observables import FirstLayerObservable, Observable, to_first_layer

__all__ = [
    "ScgfCurve",
    "RateCurve",
    "EmpiricalRow",
    "series_depth_for",
    "scgf",
    "scgf_values",
    "scgf_curve",
    "scgf_via_free_energy",
    "legendre",
    "rate_curve",
    "clt_variance",
    "multiplicative_average",
    "empirical_ldp_check",
    "clt_mc_summary",
]

# window-state entries per tilt block of the prefix pass.  A block holds only
# its window states, because the series is summed as the pass runs: seven
# arrays of this many doubles (1.8 MB) on the log route, four (1.0 MB) on the
# linear route, and no more where a block splits between them; larger blocks
# cut the per-step numpy overhead, smaller ones keep the step arrays in cache
_BLOCK_ENTRIES = 1 << 15
_SOLVE_MAX_ITER = 200


def series_depth_for(fstar: FirstLayerObservable, t_max: float, tol: float) -> int:
    """Smallest K at which the tail bounds for F, F' and F'' are all below
    tol: with sup bounding |f*|, |P^k| <= (k+1) |t| sup, |dP^k| <= (k+1) sup
    and |d2P^k| <= (k+1)^2 sup^2, growths in the sense of arith.dyadic_depth.
    """
    if not math.isfinite(t_max):
        raise ValueError(f"tilt t must be finite, got {t_max!r}")
    sup = fstar.sup_bound
    s = sup * max(1.0, abs(t_max))
    return arith.dyadic_depth(tol, (s, s, 0.0), (sup * sup, 2 * sup * sup, sup * sup))


def _series(fstar: FirstLayerObservable, td, t: np.ndarray, depth: int):
    """F and F' truncated after P^depth, and the tail bound of F, for a 1-d
    array of tilts.  Each tilt block's pass is summed step by step as it
    runs, so no (P, dP) table is built."""
    out = np.empty((3, t.size))
    block = max(1, _BLOCK_ENTRIES >> max(max(fstar.widths), 2))
    for start in range(0, t.size, block):
        tb = t[start:start + block]
        s = np.abs(tb) * fstar.sup_bound
        values, tail = arith.dyadic_sum(_tilted_steps(depth, fstar, tb, td), (s, s, 0.0))
        out[:-1, start:start + block] = values
        out[-1, start:start + block] = tail
    return tuple(out)


def scgf_values(fstar: FirstLayerObservable, params, t, tol: float = 1e-10):
    """Vectorized SCGF on an array of tilts: returns (F, F', trunc_err).

    The layer-pressure series is summed to the common depth
    series_depth_for(fstar, max |t|, tol); trunc_err bounds the truncation
    error of F at each tilt, and the error of F' is below tol."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    t_max = float(np.max(np.abs(t_arr))) if t_arr.size else 0.0
    depth = series_depth_for(fstar, t_max, tol)
    return _series(fstar, _as_transfer(params), t_arr, depth)


def scgf(fstar: FirstLayerObservable, params, t: float, tol: float = 1e-10) -> Tuple[float, float]:
    """F(t) = sum_k P^k(t f*) / 2^{k+2} and its truncation-error bound."""
    values, _, errs = scgf_values(fstar, params, t, tol)
    return float(values[0]), float(errs[0])


def scgf_via_free_energy(t: float, params: ModelParams, tol: float = 1e-10) -> float:
    """SCGF of the coupling observable s_1 s_2 through the free-energy route:
    the difference of layer free-energy series at bond weights
    beta*J + t and beta*J (per-site factors cancel in the difference).

    Independent of the tilted-transfer route; the two agree at h = 0, where
    the finite free-boundary chain law coincides with the infinite chain
    marginal.
    """
    bond = params.beta * params.J
    field = params.beta * params.h
    # |d log Z / d bond| <= number of bonds = p+1
    growth = (abs(t), abs(t), 0.0)
    depth = arith.dyadic_depth(tol, growth)
    diff = (log_partition_prefix(depth + 1, bond + t, field)[1:]
            - log_partition_prefix(depth + 1, bond, field)[1:])
    return float(arith.dyadic_sum(diff, growth)[0])


# ---------------------------------------------------------------------------
# Curves.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScgfCurve:
    """Sampled (t, F, F') with per-point truncation bounds of F."""

    grid: np.ndarray
    F: np.ndarray
    Fprime: np.ndarray
    trunc_err: np.ndarray

    def validate(self) -> None:
        g = self.grid
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        zero = np.where(g == 0.0)[0]
        if zero.size and abs(self.F[zero[0]]) > 1e-12:
            raise ValueError("F(0) must vanish")
        if g.size >= 3:
            second = np.diff(self.F, 2)
            if np.any(second < -1e-9 * np.maximum(1.0, np.abs(self.F[1:-1]))):
                raise ValueError("curve is not convex")
        if np.any(np.diff(self.Fprime) < -1e-9):
            raise ValueError("derivative is not increasing")

    def csv_header(self) -> List[str]:
        return ["t", "F", "Fprime", "trunc_err"]

    def csv_columns(self) -> Tuple[np.ndarray, ...]:
        return (self.grid, self.F, self.Fprime, self.trunc_err)


def scgf_curve(fstar: FirstLayerObservable, params, t_grid, tol: float = 1e-10) -> ScgfCurve:
    grid = np.asarray(t_grid, dtype=float)
    values, fprime, errs = scgf_values(fstar, params, grid, tol)
    curve = ScgfCurve(grid=grid, F=values, Fprime=fprime, trunc_err=errs)
    curve.validate()
    return curve


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Sampled rate function: x, I(x), maximizing tilt t*, and a domain flag
    (0 inside, 1 outside the open range `domain` of F')."""

    x: np.ndarray
    I: np.ndarray
    t_star: np.ndarray
    domain_flag: np.ndarray
    domain: Tuple[float, float]

    def csv_header(self) -> List[str]:
        return ["x", "I", "t_star", "domain_flag"]

    def csv_columns(self) -> Tuple[np.ndarray, ...]:
        return (self.x, self.I, self.t_star, self.domain_flag)


def legendre(curve: ScgfCurve, x: float) -> Tuple[float, float]:
    """I(x) = sup_t (t x - F(t)) from a sampled curve, with t* interpolated
    where F' crosses x.  Outside the sampled range of F' the supremum is not
    resolved: returns (inf, nan)."""
    if np.any(np.diff(curve.Fprime) < -1e-12):
        raise ValueError("non-convex curve: F' must be increasing")
    if x < curve.Fprime[0] or x > curve.Fprime[-1]:
        return math.inf, math.nan
    t_star = float(np.interp(x, curve.Fprime, curve.grid))
    f_at = float(np.interp(t_star, curve.grid, curve.F))
    val = t_star * x - f_at
    return (0.0 if -1e-10 < val < 0.0 else val), t_star


def _secant_tilts(fstar, td, xs: np.ndarray, t: np.ndarray, depth: int):
    """Solve F'(t) = x for every x at once, F truncated after P^depth, by
    secant steps safeguarded with a bracket; the slope is 1 on the first
    step.  While a side of the bracket is still open, a step is at most
    max(1, |t|) long, so that the flat tail of a steep F' cannot throw t far
    out; a step that leaves a closed bracket is replaced by bisection.
    After the first step, where the secant of the last two iterates is not
    finite and positive, as where F' is flat to rounding, the step is the
    full max(1, |t|) while the bracket is open, so |t| grows geometrically,
    and bisection once it is closed.  Starts from t; every x must lie
    inside the range of F'.  Returns (t*, t* x - F(t*))."""
    t = t.copy()
    value = np.empty(xs.size)
    lo = np.full(xs.size, -math.inf)
    hi = np.full(xs.size, math.inf)
    t_prev, g_prev = np.full((2, xs.size), math.nan)
    active = np.arange(xs.size)
    for _ in range(_SOLVE_MAX_ITER):
        if not active.size:
            return t, value
        ta, xa = t[active], xs[active]
        F, fprime, _ = _series(fstar, td, ta, depth)
        value[active] = ta * xa - F
        g = fprime - xa
        la = np.where(g < 0.0, ta, lo[active])
        ha = np.where(g < 0.0, hi[active], ta)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (g - g_prev[active]) / (ta - t_prev[active])
            secant = np.isfinite(slope) & (slope > 0.0)
            # the stand-in slope 0 makes an infinite step: cut to reach in an
            # open bracket, and out of a closed one, so bisection
            step = np.where(g == 0.0, 0.0, g / np.where(
                secant, slope, np.where(np.isnan(t_prev[active]), 1.0, 0.0)))
        reach = np.maximum(1.0, np.abs(ta))
        # the error of t - step is of order the product of the errors of the
        # last two iterates, |step| and |step| + |t - t_prev|: below that of a
        # Newton step of 1e-8 reach, and t x - F(t) is short of I by
        # F'' step^2 / 2 at most; a step of the stand-in slope tells nothing
        near = np.abs(step) * (np.abs(step) + np.abs(ta - t_prev[active])) <= (1e-8 * reach) ** 2
        converged = (g == 0.0) | (secant & near)
        # a bracket a few ulps wide is as far as rounding lets F' resolve t*
        pinned = (ha - la) <= 4e-16 * reach
        is_open = np.isinf(la) | np.isinf(ha)
        nxt = ta - np.where(is_open, np.clip(step, -reach, reach), step)
        inside = (nxt > la) & (nxt < ha)
        fallback = np.where(is_open, ta, 0.5 * (la + ha))
        t[active] = np.where(converged | inside, nxt, np.where(pinned, ta, fallback))
        lo[active], hi[active] = la, ha
        t_prev[active], g_prev[active] = ta, g
        active = active[~(converged | pinned)]
    raise PreconditionError("rate function solve did not converge")


def rate_curve(fstar: FirstLayerObservable, params, x_values, tol: float = 1e-10) -> RateCurve:
    """I(x) and t* on a grid of x, solving F'(t*) = x for all x at once.

    The range of F' is (lo, hi) with lo, hi the limits of F'(t) as
    t -> -inf, +inf, computed exactly from the extreme window-path sums.  x
    outside the open range gets I = inf, t* = nan and domain flag 1.  The
    series depth covers the truncation of F', and is raised to cover that of
    F at the largest |t*| found, so I is within tol."""
    td = _as_transfer(params)
    xs = np.asarray(x_values, dtype=float)
    t = np.zeros(xs.size)
    depth = series_depth_for(fstar, 0.0, tol)
    sup = fstar.sup_bound
    while True:
        ranges = np.stack(prefix_sum_range(depth, fstar), axis=1)
        domain = tuple(float(v) for v in arith.dyadic_sum(ranges, (sup, sup, 0.0))[0])
        interior = (xs > domain[0]) & (xs < domain[1])
        t_in, value = _secant_tilts(fstar, td, xs[interior], t[interior], depth)
        t[interior] = t_in
        t_max = float(np.max(np.abs(t_in))) if t_in.size else 0.0
        need = series_depth_for(fstar, t_max, tol)
        if need <= depth:
            break
        depth = need
    I = np.full(xs.size, math.inf)
    # the supremum is at least -F(0) = 0; a negative value is rounding
    I[interior] = np.maximum(value, 0.0)
    t_star = np.where(interior, t, math.nan)
    flags = np.where(interior, 0, 1)
    return RateCurve(x=xs, I=I, t_star=t_star, domain_flag=flags, domain=domain)


def clt_variance(fstar: FirstLayerObservable, params, tol: float = 1e-12) -> float:
    """F''(0) = sum_k 2^{-(k+2)} Var S_k to the depth series_depth_for(fstar,
    0, tol).  The truncation bound, below tol, is absolute, not relative to
    F''(0).  A negative sum is rounding and reads 0."""
    sup = fstar.sup_bound
    variances = prefix_variances(series_depth_for(fstar, 0.0, tol), fstar, params)
    return max(float(arith.dyadic_sum(variances, (sup * sup, 2 * sup * sup, sup * sup))[0]), 0.0)


# ---------------------------------------------------------------------------
# Monte Carlo harness.
# ---------------------------------------------------------------------------


def multiplicative_average(batch: "gibbs.SampleBatch", f: Observable, n: int) -> np.ndarray:
    """X_n(f) = (1/n) sum_{i<=n} f(s_{i.}) per replica; the batch must cover
    sites up to n * max_site(f)."""
    if n * f.max_site > batch.N:
        raise ValueError("batch volume too small for the requested average")
    cfg = batch.configurations
    x = np.zeros(batch.count)
    chunk = 4096
    for key, coeff in f.terms:
        if not key:
            x += coeff * n  # a constant contributes coeff at every shift
            continue
        # factor b at the shifts i = 1..n reads sites i b: a strided view
        factors = [cfg[:, b - 1:n * b:b] for b in sorted(key)]
        for lo in range(0, n, chunk):
            prod = factors[0][:, lo:lo + chunk]
            for column in factors[1:]:
                prod = prod * column[:, lo:lo + chunk]
            x += coeff * prod.sum(axis=1, dtype=np.float64)
    return x / n


@dataclass(frozen=True)
class EmpiricalRow:
    x: float
    emp_rate: float
    rate: float
    censored: bool
    n_tail: int


def empirical_ldp_check(f: Observable, params, n: int, count: int, seed: int,
                        thresholds: Sequence[float], tol: float = 1e-8) -> List[EmpiricalRow]:
    """Empirical tail decay rates -(1/n) log P(X_n >= x) next to the analytic
    rate I(x).  Diagnostic output: tail estimation converges slowly, so no
    tolerance is enforced here; empty tails are reported as censored."""
    fstar = to_first_layer(f)
    batch = gibbs.sample(n * f.max_site, params, count, seed)
    x_vals = multiplicative_average(batch, f, n)
    rates = rate_curve(fstar, params, thresholds, tol).I
    rows = []
    for x, rate in zip(thresholds, rates):
        n_tail = int(np.count_nonzero(x_vals >= x))
        if n_tail == 0:
            emp = math.inf
            censored = True
        else:
            emp = -math.log(n_tail / count) / n
            censored = False
        rows.append(EmpiricalRow(float(x), emp, float(rate), censored, n_tail))
    return rows


def clt_mc_summary(f: Observable, params, n: int, count: int, seed: int,
                   tol: float = 1e-12) -> dict:
    """Seeded mean/variance check of X_n against F'(0) and F''(0)."""
    fstar = to_first_layer(f)
    batch = gibbs.sample(n * f.max_site, params, count, seed)
    x_vals = multiplicative_average(batch, f, n)
    emp_mean = float(x_vals.mean())
    emp_var = float(x_vals.var(ddof=1))
    return {
        "emp_mean": emp_mean,
        "emp_se": float(x_vals.std(ddof=1) / math.sqrt(count)),
        "fprime0": float(scgf_values(fstar, params, 0.0, tol)[1][0]),
        "n_times_var": n * emp_var,
        "sigma2": clt_variance(fstar, params, tol),
    }
