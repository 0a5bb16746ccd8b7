"""Integer-side structure of the multiplicative lattice.

Every positive integer factors uniquely as r * prod(p_i^{x_i}) with r coprime
to the chosen prime basis.  The i <-> (r, x) relabeling partitions [1, N] into
geometric-progression layers; the counting measures of those layers converge
to explicit weight series (the dyadic 1/2^{p+2} weights for basis {2}, and
the smooth-number series kappa * (1/n_j - 1/n_{j+1}) for general bases).
Everything here is exact integer / rational arithmetic; floating point enters
only when a weight is finally materialized.  kie_weights keeps the smooth
numbers n_1 .. n_{J+1} as exact ints and the weights as one float64 array of
length J, weights[j - 1] = w_j, each a correctly rounded integer division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from .errors import InfeasibleSizeError, PreconditionError

__all__ = [
    "PrimeBasis",
    "LayerIndex",
    "Region",
    "WeightSeries",
    "decompose",
    "psi2",
    "layer_partition",
    "koroa_finite_average",
    "dyadic_depth",
    "dyadic_sum",
    "smooth_numbers",
    "iter_kie_weights",
    "kie_weights",
    "canonical_region",
]

LOG2 = math.log(2.0)
_MAX_WEIGHT_TERMS = 10_000_000  # kie_weights refuses a longer series

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeBasis:
    """A strictly increasing tuple of distinct primes p_1 < ... < p_d."""

    primes: Tuple[int, ...]

    def __post_init__(self):
        if not self.primes:
            raise ValueError("prime basis must be non-empty")
        for p in self.primes:
            if not isinstance(p, int) or not _is_prime(p):
                raise ValueError(f"{p!r} is not prime")
        if any(a >= b for a, b in zip(self.primes, self.primes[1:])):
            raise ValueError("primes must be strictly increasing")

    @classmethod
    def of(cls, *primes) -> "PrimeBasis":
        return cls(tuple(int(p) for p in primes))

    @property
    def dim(self) -> int:
        return len(self.primes)

    def kappa_fraction(self) -> Fraction:
        """Density of integers coprime to the basis: prod(1 - 1/p_i)."""
        total = Fraction(1)
        for p in self.primes:
            total *= Fraction(p - 1, p)
        return total

    @property
    def kappa(self) -> float:
        return float(self.kappa_fraction())


@dataclass(frozen=True)
class LayerIndex:
    """i = r * prod(p_i^x_i) with r coprime to every basis prime."""

    r: int
    exponents: Tuple[int, ...]


@dataclass(frozen=True)
class Region:
    """A finite set of exponent vectors in N_0^d.  The layer regions produced
    here are always lower sets (closed under coordinatewise decrease)."""

    points: frozenset

    @property
    def cardinality(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        for pt in self.points:
            return len(pt)
        raise ValueError("empty region has no dimension")

    def is_lower_set(self) -> bool:
        for pt in self.points:
            for axis, x in enumerate(pt):
                if x > 0:
                    below = pt[:axis] + (x - 1,) + pt[axis + 1 :]
                    if below not in self.points:
                        return False
        return True


def decompose(i: int, basis: PrimeBasis) -> LayerIndex:
    """Factor out the basis primes of i, exactly."""
    if i < 1:
        raise ValueError("index must be a positive integer")
    r = i
    exps = []
    for p in basis.primes:
        x = 0
        while r % p == 0:
            r //= p
            x += 1
        exps.append(x)
    return LayerIndex(r, tuple(exps))


def psi2(r: int, n: int) -> int:
    """Largest k with r * 2^k <= n, for odd r <= n.

    Pure integer arithmetic (repeated doubling); floating logarithms would
    misclassify the boundary cases n = r * 2^k.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError("r must be an odd positive integer")
    if r > n:
        raise ValueError("r must not exceed n")
    m = r
    k = 0
    while m * 2 <= n:
        m *= 2
        k += 1
    return k


def layer_partition(n: int, basis: PrimeBasis) -> Dict[int, Region]:
    """Map r -> region of exponent vectors x with r * prod(p^x) <= n.

    The regions partition [1, n]: every i corresponds to exactly one (r, x).
    """
    if n < 1:
        raise ValueError("volume must be >= 1")
    buckets: Dict[int, set] = {}
    for i in range(1, n + 1):
        li = decompose(i, basis)
        buckets.setdefault(li.r, set()).add(li.exponents)
    return {r: Region(frozenset(pts)) for r, pts in buckets.items()}


# ---------------------------------------------------------------------------
# Dyadic layer series (basis {2}).
# ---------------------------------------------------------------------------


def koroa_finite_average(phi: Callable[[int], object], n: int):
    """(1/n) * sum over odd i <= n of phi(psi2(i, n)), computed exactly.

    If phi returns ints or Fractions the result is an exact Fraction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for i in range(1, n + 1, 2):
        total = total + phi(psi2(i, n))
    if isinstance(total, (int, Fraction)):
        return Fraction(total, n)
    return total / n


def _dyadic_tail(k: int, growth):
    a, b, c = growth
    return 0.5 ** (k + 2) * (a + b * (k + 2) + c * (k * k + 4 * k + 6))


def dyadic_depth(tol: float, *growths) -> int:
    """Smallest K at which the tail bound of every growth is below tol.

    A growth (a, b, c) certifies |g(p)| <= a + b p + c p^2 for a layer
    quantity g.  The tail sum_{p>K} g(p) / 2^{p+2} of its layer series is
    then at most 2^{-(K+2)} (a + b (K+2) + c (K^2 + 4K + 6)).  A tail bound
    that is not finite is a PreconditionError: no depth would meet it.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    k = 0
    while True:
        tails = [_dyadic_tail(k, g) for g in growths]
        if not math.isfinite(sum(tails)):
            raise PreconditionError("layer series tail bound is not finite; parameters too large")
        if max(tails) < tol:
            return k
        k += 1


def dyadic_sum(prefix, growth):
    """(sum_{p<=K} g(p) / 2^{p+2}, tail bound) for the layer quantities
    g(0), ..., g(K) along axis 0 of prefix and a growth as in dyadic_depth.
    The weights 1/2^{p+2} are the limiting frequencies of psi2(i, N) = p
    over odd i <= N, and sum to 1/2.  The terms are added in order of p."""
    prefix = np.asarray(prefix, dtype=float)
    k = prefix.shape[0] - 1
    weights = np.ldexp(1.0, -np.arange(2, k + 3)).reshape((-1,) + (1,) * (prefix.ndim - 1))
    terms = weights * prefix
    # numpy reduces a leading axis row by row when a row holds more than one
    # entry, but a contiguous axis pairwise; cumsum goes in order
    value = terms.sum(axis=0) if terms[0].size > 1 else np.cumsum(terms, axis=0)[-1]
    return value, _dyadic_tail(k, growth)


# ---------------------------------------------------------------------------
# Smooth-number weight series (general basis).
# ---------------------------------------------------------------------------


def smooth_numbers(basis: PrimeBasis, count: int) -> List[int]:
    """First `count` integers whose prime factors all lie in the basis,
    in increasing order (n_1 = 1).  Every smooth n <= X is enumerated with
    integer products and comparisons.  log X starts at the lattice-point
    count inverted to its third term, y0 - S/2 + (d-1) Q / (24 y0) with
    y0 = (count d! P)^(1/d) and P, S, Q the product, sum and sum of squares
    of the log p_i, plus a quarter of the smallest log p for the lattice
    discrepancy: one pass at every count up to 100,000 for every basis of
    two to four of the first six primes.  log X grows by 5% while fewer
    than `count` numbers are <= X."""
    if count < 1:
        raise ValueError("count must be >= 1")
    logs = [math.log(p) for p in basis.primes]
    d = basis.dim
    y0 = (count * math.factorial(d) * math.prod(logs)) ** (1 / d)
    y = y0 + (d - 1) * sum(v * v for v in logs) / (24 * y0)
    log_x = max(1.0, y - sum(logs) / 2 + min(logs) / 4)
    while True:
        shift = max(0, math.ceil(log_x / LOG2) - 53)  # keep exp in range
        limit = int(math.exp(log_x - shift * LOG2)) << shift
        found = [1]  # every smooth m <= limit, prime by prime; drops a short list
        for p in basis.primes:
            grown = []
            for m in found:
                while m <= limit:
                    grown.append(m)
                    m *= p
            found = grown
        if len(found) >= count:
            break
        log_x *= 1.05
    found.sort()
    del found[count:]
    return found


def _smooth_stream(basis: PrimeBasis) -> Iterator[int]:
    """The basis-smooth numbers 1 = n_1 < n_2 < ..., read from blocks of
    smooth_numbers that double in length from 64."""
    done, count = 0, 64
    while True:
        yield from islice(smooth_numbers(basis, count), done, None)
        done, count = count, 2 * count


def canonical_region(basis: PrimeBasis, cardinality: int) -> Region:
    """The lower set realized by layer r = 1 at the smallest volume whose
    region has the given cardinality: the exponent vectors of the first
    `cardinality` basis-smooth numbers."""
    pts = []
    for m in smooth_numbers(basis, cardinality):
        pts.append(decompose(m, basis).exponents)
    return Region(frozenset(pts))


def _upper_gamma_int(n: int, z: float) -> float:
    # Gamma(n, z) for integer n >= 1: (n-1)! e^{-z} sum_{k<n} z^k/k!
    s = 0.0
    term = 1.0
    for k in range(n):
        if k:
            term *= z / k
        s += term
    return math.factorial(n - 1) * math.exp(-z) * s


def _weight_tail_bound(j_last: int, dim: int, kappa: float) -> float:
    """Conservative bound on kappa * sum_{j > j_last} j / n_j using
    n_j >= 2^{j^{1/d} - 1}: explicit terms until x * 2^{1-x^{1/d}} is
    decreasing, then an incomplete-gamma integral bound."""
    c = LOG2
    x_dec = (dim / c) ** dim
    a = max(j_last, int(math.ceil(x_dec)))
    s = 0.0
    for j in range(j_last + 1, a + 1):
        s += j * 2.0 ** (1.0 - j ** (1.0 / dim))
    integral = 2.0 * dim * c ** (-2 * dim) * _upper_gamma_int(2 * dim, c * a ** (1.0 / dim))
    return kappa * (s + integral)


def iter_kie_weights(basis: PrimeBasis) -> Iterator[Tuple[int, int, int, float]]:
    """Yield (j, n_j, n_{j+1}, w_j) with w_j = kappa * (1/n_j - 1/n_{j+1}).

    n_j is the j-th basis-smooth number; since distinct smooth numbers have
    distinct logarithms, the counting function of {x : sum x_i log p_i <= rho}
    increments by exactly one, so these differences are the layer-cardinality
    frequencies.  With kappa = a/b, w_j is the single integer division
    a (n_{j+1} - n_j) / (b n_j n_{j+1}), which Python rounds correctly.
    """
    kappa = basis.kappa_fraction()
    a, b = kappa.numerator, kappa.denominator
    stream = _smooth_stream(basis)
    n_cur = next(stream)
    for j, n_next in enumerate(stream, 1):
        yield j, n_cur, n_next, a * (n_next - n_cur) / (b * n_cur * n_next)
        n_cur = n_next


@dataclass(frozen=True)
class WeightSeries:
    """Truncated smooth-number weight series for a prime basis.

    weights is a float64 array of length J with weights[j - 1] = w_j =
    kappa * (1/n_j - 1/n_{j+1}), the limiting frequency (per unit volume) of
    layers whose region has cardinality j; smooth holds n_1 .. n_{J+1}.
    Mass identities: sum_j w_j = kappa and sum_j j * w_j = 1, both up to the
    declared tail.
    """

    basis: PrimeBasis
    kappa_fraction: Fraction
    smooth: Tuple[int, ...]  # n_1 .. n_{J+1}
    weights: np.ndarray  # w_1 .. w_J
    truncation_tail: float

    @property
    def kappa(self) -> float:
        return float(self.kappa_fraction)

    @property
    def j_max(self) -> int:
        return len(self.weights)

    def sum_weights(self) -> float:
        return math.fsum(self.weights)

    def sum_j_weights(self) -> float:
        return math.fsum(np.arange(1, self.j_max + 1) * self.weights)


def kie_weights(basis: PrimeBasis, tolerance: float) -> WeightSeries:
    """Enumerate the weight series up to the first J at which the
    conservative bound on the remaining mass sum_{j>J} j * w_j drops below
    `tolerance`.  The bound decreases in J, so J is found by bisection
    before any weight is formed; a J past _MAX_WEIGHT_TERMS is refused.
    Each weight is the correctly rounded division of iter_kie_weights."""
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    kappa_fr = basis.kappa_fraction()

    def below(j: int) -> bool:
        return _weight_tail_bound(j, basis.dim, float(kappa_fr)) < tolerance

    if not below(_MAX_WEIGHT_TERMS):
        raise InfeasibleSizeError(
            f"the weight series needs more than {_MAX_WEIGHT_TERMS} terms "
            f"(cap) to reach tolerance {tolerance:g}"
        )
    lo, hi = 0, _MAX_WEIGHT_TERMS  # J lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    smooth = smooth_numbers(basis, hi + 1)
    a, b = kappa_fr.numerator, kappa_fr.denominator
    pairs = zip(smooth, islice(smooth, 1, None))
    weights = np.fromiter((a * (m - n) / (b * n * m) for n, m in pairs), dtype=float, count=hi)
    return WeightSeries(
        basis=basis,
        kappa_fraction=kappa_fr,
        smooth=tuple(smooth),
        weights=weights,
        truncation_tail=_weight_tail_bound(hi, basis.dim, float(kappa_fr)),
    )
