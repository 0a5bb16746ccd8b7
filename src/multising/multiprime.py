"""Higher-dimensional layer machinery.

A local observable whose site indices involve primes beyond the model's own
is handled by extending the model: the prime support of the observable is
merged into the basis, layers become d-dimensional exponent regions, and the
layer measure is the product, over lines parallel to the interacting axis, of
independent chains (pi, Q).  Region pressures over those layers feed the
smooth-number weight series, giving the pressure of any local observable.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from . import arith
from .arith import PrimeBasis, Region
from .errors import InfeasibleSizeError, PreconditionError
from .ising1d import ModelParams, TransferData, log_q_power, log_site_law, transfer
from .observables import FirstLayerObservable, Observable

__all__ = [
    "ExtendedModel",
    "RegionPressureKey",
    "SeriesRow",
    "extend_observable",
    "region_pressure",
    "kie_pressure",
    "finite_pressure_exact_d",
    "layer_region_shapes",
]

WIDTH_CAP = 22  # sites spanned by the largest intermediate factor: 2^22 doubles, 32 MB
_MAX_TERMS = 100_000  # smooth-number series terms


def _prime_factors(n: int) -> Dict[int, int]:
    fs: Dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            fs[f] = fs.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


@dataclass(frozen=True, eq=False)
class ExtendedModel:
    """Merged prime basis, the axis carrying the chain interaction, and the
    chain parameters.  All other axes are interaction-free, so the layer
    measure is a product of independent chains along base_axis lines."""

    basis: PrimeBasis
    base_axis: int
    params: ModelParams

    def transfer(self) -> TransferData:
        td = getattr(self, "_td", None)
        if td is None:
            td = transfer(self.params)
            object.__setattr__(self, "_td", td)
        return td


@dataclass(frozen=True)
class RegionPressureKey:
    region: Region
    fstar: FirstLayerObservable
    t: float


def extend_observable(f: Observable, base_basis: PrimeBasis,
                      params: ModelParams) -> Tuple[ExtendedModel, FirstLayerObservable]:
    """Merge the prime support of f into the basis and rewrite each monomial
    as exponent-vector offsets; f becomes a first-layer observable of the
    extended model."""
    if base_basis.dim != 1:
        raise PreconditionError(
            "the base model interacts along a single prime; multi-prime "
            "interacting bases are not supported"
        )
    if f.is_zero():
        raise ValueError("cannot extend the zero observable")
    primes = set(base_basis.primes)
    for key, _ in f.terms:
        for i in key:
            primes.update(_prime_factors(i))
    merged = tuple(sorted(primes))
    basis = PrimeBasis(merged)
    dim = basis.dim
    pairs = []
    for key, coeff in f.terms:
        offsets = []
        for i in key:
            li = arith.decompose(i, basis)
            if li.r != 1:
                raise RuntimeError("index does not factor over its own prime support")
            offsets.append(li.exponents)
        pairs.append((offsets, coeff))
    fstar = FirstLayerObservable.make(pairs, dim=dim)
    model = ExtendedModel(basis=basis, base_axis=merged.index(base_basis.primes[0]),
                          params=params)
    return model, fstar


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
def _plan(points: frozenset, fstar: FirstLayerObservable, axis: int, cap: int) -> _Plan:
    """Build the factor graph of the region and a greedy min-fill
    elimination order, refusing it if some intermediate factor would span
    more than `cap` sites.  Symbolic only: no table is formed here."""
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
        lines.setdefault(s[:axis] + s[axis + 1:], []).append(s)
    starts, links, scopes = [], [], []
    for line in lines.values():
        starts.append(line[0][axis])
        scopes.append((site_id[line[0]],))
    for line in lines.values():
        for a, b in zip(line, line[1:]):
            links.append(b[axis] - a[axis])
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
        if len(nb) + 1 > cap:
            raise InfeasibleSizeError(
                f"eliminating the {n} sites of the dependence set needs a factor "
                f"over {len(nb) + 1} sites (cap {cap}); an exact contraction is "
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


def region_pressure(key: RegionPressureKey, model: ExtendedModel,
                    cap: int = WIDTH_CAP) -> float:
    """Psi = log E exp(t * sum_{x in region} f*(theta_x .)) under the
    product-of-lines layer measure, exactly.

    The dependence set S = region + support(f*) carries three kinds of
    log-scale factor: the initial law log(pi Q^v0) of each line along the
    interacting axis, the links log Q^gap between consecutive sites of a
    line, and the tilt t * c * prod s of each monomial instance.  The sites
    are summed out one at a time in a greedy min-fill order, so the cost
    follows the width of the factor graph rather than |S|; lines coupled by
    no monomial separate by themselves.  An order whose largest
    intermediate factor spans more than `cap` sites (2^cap entries) is
    refused before any table is formed.
    """
    region, fstar, t = key.region, key.fstar, key.t
    dim = model.basis.dim
    if fstar.dim != dim or (region.points and region.dim != dim):
        raise ValueError("region / observable dimension mismatch with the model")
    psi = t * sum(c for offs, c in fstar.terms if not offs) * region.cardinality
    plan = _plan(region.points, fstar, model.base_axis, cap)
    if not plan.scopes:
        return psi
    td = model.transfer()
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


@dataclass(frozen=True)
class SeriesRow:
    j: int
    n_j: int
    w_j: float
    psi_j: float
    partial_sum: float
    tail_bound: float


def kie_pressure(f: Observable, params: ModelParams, t: float, tol: float,
                 base_prime: int = 2, cap: int = WIDTH_CAP) -> Tuple[float, List[SeriesRow]]:
    """Pressure of a local observable under the multiplicative measure via
    the smooth-number series kappa * sum_j (1/n_j - 1/n_{j+1}) Psi_j.

    Psi_j is evaluated on the canonical cardinality-j region (the exponent
    vectors of the first j smooth numbers, which every layer region of
    cardinality j equals).  Truncation uses |Psi_j| <= j |t| sup|f*| together
    with the exact remaining mass sum_{j>J} j w_j (mass identity).  That
    bound does not involve Psi, so the stopping index J is found first and
    every region j <= J is checked against the factor-width cap before any
    Psi_j is computed; a tolerance past the cap fails at once.  A NaN or
    infinite tilt is refused before J is chosen, and a Psi_j that is not
    finite raises PreconditionError rather than entering the table.
    """
    if not math.isfinite(t):
        raise ValueError(f"tilt t must be finite, got {t!r}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    model, fstar = extend_observable(f, PrimeBasis((base_prime,)), params)
    sup = fstar.sup_bound
    kappa_fr = model.basis.kappa_fraction()
    mass = Fraction(0)
    terms = []  # (j, n_j, w_j, tail bound after term j)
    points: List[Tuple[int, ...]] = []  # region j is the first j of them
    for j, n_j, n_next, w_j in arith.iter_kie_weights(model.basis):
        points.append(arith.decompose(n_j, model.basis).exponents)
        mass += j * kappa_fr * Fraction(n_next - n_j, n_j * n_next)
        terms.append((j, n_j, w_j, float(1 - mass) * abs(t) * sup))
        if terms[-1][3] < tol:
            break
        if j >= _MAX_TERMS:
            raise InfeasibleSizeError(
                f"the series needs more than {_MAX_TERMS} terms (cap) to reach tol={tol:g}"
            )
    for j in range(len(terms), 0, -1):  # the widest region first
        try:
            _plan(frozenset(points[:j]), fstar, model.base_axis, cap)
        except InfeasibleSizeError as err:
            raise InfeasibleSizeError(
                f"reaching tol={tol:g} takes the series terms j <= {len(terms)}, "
                f"and term j={j} exceeds the factor-width cap: {err}"
            ) from err
    value = 0.0
    rows: List[SeriesRow] = []
    for j, n_j, w_j, tail in terms:
        region = Region(frozenset(points[:j]))
        psi = region_pressure(RegionPressureKey(region, fstar, t), model, cap=cap)
        if not math.isfinite(psi):
            raise PreconditionError(f"the region pressure Psi_{j} is {psi}, not finite")
        value += w_j * psi
        rows.append(SeriesRow(j, n_j, w_j, psi, value, tail))
    return value, rows


def finite_pressure_exact_d(f: Observable, t: float, n: int, params: ModelParams,
                            base_prime: int = 2, cap: int = WIDTH_CAP) -> float:
    """(1/n) sum over layers r <= n of the exact region pressure of the layer
    region; the finite-volume counterpart of kie_pressure, used for
    convergence diagnostics and as the authoritative fallback."""
    if n < 1:
        raise ValueError("volume must be >= 1")
    model, fstar = extend_observable(f, PrimeBasis((base_prime,)), params)
    partition = arith.layer_partition(n, model.basis)
    cache: Dict[frozenset, float] = {}
    total = 0.0
    for region in partition.values():
        if region.points not in cache:
            cache[region.points] = region_pressure(
                RegionPressureKey(region, fstar, t), model, cap=cap
            )
        total += cache[region.points]
    return total / n


def layer_region_shapes(basis: PrimeBasis, n_max: int,
                        max_cardinality: int) -> Dict[int, set]:
    """Distinct layer-region point sets of cardinality <= max_cardinality
    arising as some layer of some volume n <= n_max, grouped by cardinality.

    For a fixed basis the region of layer r at volume n is determined by
    floor(n / r), so equal-cardinality regions coincide; the scan verifies
    that instead of assuming it.
    """
    shapes: Dict[int, set] = {}
    for n in range(1, n_max + 1):
        for region in arith.layer_partition(n, basis).values():
            c = region.cardinality
            if c <= max_cardinality:
                shapes.setdefault(c, set()).add(region.points)
    return shapes
