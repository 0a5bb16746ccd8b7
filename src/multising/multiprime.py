"""Higher-dimensional layer machinery.

The spins interact only along the prime 2: the chains (pi, Q) run along
axis 0, the powers of 2.  The other primes that divide the site indices of
a local observable add interaction-free axes, so a layer becomes a
d-dimensional exponent region and its measure is the product of independent
chains along the axis-0 lines.  Region pressures over those layers feed the
smooth-number weight series, giving the pressure of any local observable.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import arith
from .arith import Region
from .errors import InfeasibleSizeError, PreconditionError
from .ising1d import ModelParams, _as_transfer, log_q_power, log_site_law, transfer
from .observables import FirstLayerObservable, Observable, extend_observable

__all__ = [
    "RegionPressureKey",
    "SeriesRow",
    "extend_observable",
    "region_pressure",
    "kie_pressure",
    "finite_pressure_exact_d",
]

WIDTH_CAP = 22  # sites spanned by the largest intermediate factor: 2^22 doubles, 32 MB
_MAX_TERMS = 100_000  # smooth-number series terms


@dataclass(frozen=True)
class RegionPressureKey:
    region: Region
    fstar: FirstLayerObservable
    t: float


# ---------------------------------------------------------------------------
# Exact region pressures.
# ---------------------------------------------------------------------------

_SPIN = np.array([1.0, -1.0])  # spin value of table index 0 and 1


@dataclass(frozen=True)
class _Plan:
    """The factor graph of a region pressure and its elimination schedule.

    Sites are numbered in lexicographic order.  Factors are numbered in the
    order: one initial law per line, the chain links, the tilt monomials,
    then the output of each elimination step.  A step sums the factors
    `inputs` over the joint scope `union` and eliminates `site` from it.
    """

    starts: Tuple[int, ...]  # axial coordinate of each line's first site
    links: Tuple[int, ...]  # gap of each pair of consecutive line sites
    monomials: Tuple[Tuple[int, float], ...]  # (number of sites, coefficient)
    scopes: Tuple[Tuple[int, ...], ...]  # sorted sites of every factor
    steps: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], int], ...]  # (inputs, union, site)


@lru_cache(maxsize=512)
def _plan(points: frozenset, fstar: FirstLayerObservable) -> _Plan:
    """Build the factor graph of the region and a greedy min-fill
    elimination order, refusing it if some intermediate factor would span
    more than WIDTH_CAP sites.  Symbolic only: no table is formed here."""
    monos: Dict[Tuple[Tuple[int, ...], ...], float] = {}
    for x in points:
        for offs, coeff in fstar.terms:
            if offs:
                inst = tuple(sorted(tuple(a + b for a, b in zip(x, o)) for o in offs))
                monos[inst] = monos.get(inst, 0.0) + coeff
    site_list = sorted({s for inst in monos for s in inst})
    site_id = {s: i for i, s in enumerate(site_list)}
    lines: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for s in site_list:  # lexicographic order runs along each line
        lines.setdefault(s[1:], []).append(s)
    starts, links, scopes = [], [], []
    for line in lines.values():
        starts.append(line[0][0])
        scopes.append((site_id[line[0]],))
    for line in lines.values():
        for a, b in zip(line, line[1:]):
            links.append(b[0] - a[0])
            scopes.append((site_id[a], site_id[b]))
    for inst in monos:
        scopes.append(tuple(site_id[s] for s in inst))

    n = len(site_list)
    adj = [set() for _ in range(n)]
    holders = [set() for _ in range(n)]  # factors whose scope holds the site
    for f, scope in enumerate(scopes):
        for v in scope:
            adj[v].update(scope)
            holders[v].add(f)
    for v in range(n):
        adj[v].discard(v)

    def score(v):  # (fill-in edges, degree, site)
        nb = adj[v]
        return (sum(len(nb - adj[a]) for a in nb) - len(nb)) // 2, len(nb), v

    current = {v: score(v) for v in range(n)}
    heap = list(current.values())
    heapq.heapify(heap)
    steps = []
    while heap:
        entry = heapq.heappop(heap)
        v = entry[2]
        if current.get(v) != entry:
            continue
        del current[v]
        nb = adj[v]
        if len(nb) + 1 > WIDTH_CAP:
            raise InfeasibleSizeError(
                f"eliminating the {n} sites of the dependence set needs a factor "
                f"over {len(nb) + 1} sites (cap {WIDTH_CAP}); an exact contraction is "
                "infeasible, use a looser tolerance or a Monte Carlo estimate"
            )
        inputs = tuple(sorted(holders[v]))
        union = tuple(sorted(nb | {v}))
        out = len(scopes)
        scopes.append(tuple(sorted(nb)))
        for f in inputs:
            for u in scopes[f]:
                holders[u].discard(f)
        for u in nb:
            holders[u].add(out)
        steps.append((inputs, union, v))
        near = set()
        for a in nb:
            adj[a] |= nb
            adj[a] -= {a, v}
            near |= adj[a]
        # the fill of a site changes only if its neighbours changed or two
        # of them were newly joined
        for u in nb | {u for u in near - nb if len(adj[u] & nb) > 1}:
            current[u] = score(u)
            heapq.heappush(heap, current[u])
    return _Plan(tuple(starts), tuple(links),
                 tuple((len(inst), c) for inst, c in monos.items()),
                 tuple(scopes), tuple(steps))


def _log_sum_exp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp of a along axis, overwriting a; a slice of -inf sums to
    -inf."""
    m = a.max(axis=axis, keepdims=True)
    m[m == -np.inf] = 0.0
    a -= m
    np.exp(a, out=a)
    with np.errstate(divide="ignore"):
        return np.log(a.sum(axis=axis)) + np.squeeze(m, axis)


def region_pressure(key: RegionPressureKey, params) -> float:
    """Psi = log E exp(t * sum_{x in region} f*(theta_x .)) under the
    product-of-lines layer measure of the chain `params` (ModelParams or
    TransferData), exactly.

    The dependence set S = region + support(f*) carries three kinds of
    log-scale factor: the initial law log(pi Q^v0) of each line along axis
    0, the links log Q^gap between consecutive sites of a line, and the tilt
    t * c * prod s of each monomial instance.  The sites are summed out one
    at a time in a greedy min-fill order, so the cost follows the width of
    the factor graph rather than |S|; lines coupled by no monomial separate
    by themselves.  An order whose largest intermediate factor spans more
    than WIDTH_CAP sites (2^WIDTH_CAP entries) is refused before any table
    is formed.
    """
    region, fstar, t = key.region, key.fstar, key.t
    if region.points and region.dim != fstar.dim:
        raise ValueError("region / observable dimension mismatch")
    psi = t * sum(c for offs, c in fstar.terms if not offs) * region.cardinality
    plan = _plan(region.points, fstar)
    if not plan.scopes:
        return psi
    td = _as_transfer(params)
    log_q = {gap: log_q_power(td, gap) for gap in set(plan.links)}
    tables = [log_site_law(td, v0) for v0 in plan.starts]
    tables += [log_q[gap] for gap in plan.links]
    for size, coeff in plan.monomials:
        table = np.full((), t * coeff)
        for _ in range(size):
            table = np.multiply.outer(table, _SPIN)
        tables.append(table)
    for inputs, union, site in plan.steps:
        acc = np.zeros((2,) * len(union))
        for f in inputs:
            scope = plan.scopes[f]
            acc += tables[f].reshape([2 if u in scope else 1 for u in union])
            tables[f] = None
        tables.append(_log_sum_exp(acc, union.index(site)))
    return psi + sum(float(table) for table in tables if table is not None)


# ---------------------------------------------------------------------------
# The smooth-number pressure series.
# ---------------------------------------------------------------------------


def _psi_table(points: List[Tuple[int, ...]], js: Sequence[int], fstar: FirstLayerObservable,
               t: float, td, need: str) -> Dict[int, float]:
    """{j: Psi_j} for the increasing js, on the canonical regions of the
    first j points.  All are planned first, widest first, so one past the
    factor-width cap fails (with `need`, what takes it) before any Psi_j is
    computed; a Psi_j that is not finite is a PreconditionError."""
    for j in reversed(js):
        try:
            _plan(frozenset(points[:j]), fstar)
        except InfeasibleSizeError as err:
            raise InfeasibleSizeError(
                f"{need}, and term j={j} exceeds the factor-width cap: {err}") from err
    table = {}
    for j in js:
        table[j] = region_pressure(RegionPressureKey(Region(frozenset(points[:j])), fstar, t), td)
        if not math.isfinite(table[j]):
            raise PreconditionError(f"the region pressure Psi_{j} is {table[j]}, not finite")
    return table


@dataclass(frozen=True)
class SeriesRow:
    j: int
    n_j: int
    w_j: float
    psi_j: float
    partial_sum: float
    tail_bound: float


def kie_pressure(f: Observable, params: ModelParams, t: float,
                 tol: float) -> Tuple[float, List[SeriesRow]]:
    """Pressure of a local observable under the multiplicative measure via
    the smooth-number series kappa * sum_j (1/n_j - 1/n_{j+1}) Psi_j.

    Psi_j is evaluated on the canonical cardinality-j region (the exponent
    vectors of the first j smooth numbers, which every layer region of
    cardinality j equals); the chain's transfer data are built once from
    params and shared by every Psi_j.  Truncation uses |Psi_j| <= j |t|
    sup|f*| together with the exact remaining mass sum_{j>J} j w_j that
    iter_kie_weights yields (mass identity), the rule kie_weights stops on.
    That bound does not involve Psi, so J is found first and _psi_table
    checks every region j <= J against the factor-width cap before any
    Psi_j is computed: a tolerance past the cap, or one that _mass_floor
    puts past _MAX_TERMS terms, fails at once, and a NaN or infinite tilt
    before J is chosen.  A Psi_j that is not finite raises PreconditionError.
    """
    if not math.isfinite(t):
        raise ValueError(f"tilt t must be finite, got {t!r}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    basis, fstar = extend_observable(f)
    td = transfer(params)
    sup = fstar.sup_bound
    refusal = InfeasibleSizeError(
        f"the series needs more than {_MAX_TERMS} terms (cap) to reach tol={tol:g}")
    if arith._mass_floor(basis, _MAX_TERMS) * abs(t) * sup >= tol:
        raise refusal
    terms = []  # (j, n_j, w_j, tail bound after term j)
    points: List[Tuple[int, ...]] = []  # region j is the first j of them
    for j, n_j, w_j, mass in arith.iter_kie_weights(basis):
        points.append(arith.decompose(n_j, basis).exponents)
        terms.append((j, n_j, w_j, mass * abs(t) * sup))
        if terms[-1][3] < tol:
            break
        if j >= _MAX_TERMS:
            raise refusal
    psi = _psi_table(points, range(1, len(terms) + 1), fstar, t, td,
                     f"reaching tol={tol:g} takes the series terms j <= {len(terms)}")
    value = 0.0
    rows: List[SeriesRow] = []
    for j, n_j, w_j, tail in terms:
        value += w_j * psi[j]
        rows.append(SeriesRow(j, n_j, w_j, psi[j], value, tail))
    return value, rows


def finite_pressure_exact_d(f: Observable, t: float, n: int, params: ModelParams) -> float:
    """(1/n) log E exp(t sum_{i<=n} f(s_{i.})) on [1, n], exactly, for
    convergence diagnostics and as the authoritative fallback.  A layer
    region of cardinality j is the canonical region of Psi_j, so this is
    (1/n) sum_j c_j(n) Psi_j over the c_j > 0 of arith.layer_counts, one
    region per smooth n_j <= n (306 for (2, 3) at n = 10^9), guarded alike."""
    if n < 1:
        raise ValueError("volume must be >= 1")
    basis, fstar = extend_observable(f)
    td = transfer(params)
    counts = arith.layer_counts(n, basis)
    points = [arith.decompose(n_j, basis).exponents for _, n_j, _ in counts]
    layers = {j: c for j, _, c in counts if c}
    psi = _psi_table(points, list(layers), fstar, t, td,
                     f"the volume n={n} holds layer regions up to cardinality {len(points)}")
    total = 0.0
    for j, c in layers.items():
        total += c * psi[j]
    return total / n
