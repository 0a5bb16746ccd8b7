"""Integer-side structure of the multiplicative lattice.

Every positive integer factors uniquely as r * prod(p_i^{x_i}) with r coprime
to the chosen prime basis.  The i <-> (r, x) relabeling partitions [1, N] into
geometric-progression layers; the counting measures of those layers converge
to explicit weight series (the dyadic 1/2^{p+2} weights for basis {2}, and
the smooth-number series kappa * (1/n_j - 1/n_{j+1}) for general bases).
layer_counts gives the number c_j(n) = Phi(n // n_j) - Phi(n // n_{j+1}) of
layers of [1, n] of region cardinality j (Phi: Legendre's count of integers
coprime to the basis), exact to n = 10^9 and past; layer_partition lists them.
Everything here is exact integer / rational arithmetic; floating point enters
only when a weight is finally materialized.  iter_kie_weights streams the
smooth numbers by a heap merge with each weight w_j and the exact remaining
mass sum_{i>j} i w_i, both correctly rounded; kie_weights stops at the first
J whose remaining mass is below the tolerance and keeps n_1 .. n_J as exact
ints and the weights as one float64 array, weights[j - 1] = w_j.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from .errors import InfeasibleSizeError, PreconditionError

__all__ = [
    "PrimeBasis",
    "LayerIndex",
    "Region",
    "WeightSeries",
    "is_prime",
    "factor",
    "decompose",
    "psi2",
    "layer_partition",
    "layer_counts",
    "koroa_finite_average",
    "dyadic_depth",
    "dyadic_sum",
    "iter_kie_weights",
    "kie_weights",
]

_MAX_WEIGHT_TERMS = 10_000_000  # kie_weights refuses a longer series
_TRIAL_BOUND = 1 << 16  # factor divides n by every integer below this
# these bases decide every n < _MR_LIMIT (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime, by a deterministic Miller-Rabin test.  An n past
    _MR_LIMIT with no factor among the bases is refused with
    InfeasibleSizeError: the bases do not decide it."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= _MR_LIMIT:
        raise InfeasibleSizeError(f"{n} exceeds {_MR_LIMIT}, past which the primality "
                                  "test is not deterministic")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:  # a strong probable prime: a^d = 1 or a^(d 2^k) = -1, k < s
        x = pow(a, d, n)
        if x != 1 and n - 1 not in (pow(x, 1 << k, n) for k in range(s)):
            return False
    return True


def factor(n: int) -> Dict[int, int]:
    """The prime factorization {p: e} of a positive integer n: trial
    division by 2 and the odd numbers below _TRIAL_BOUND, then is_prime on
    what is left.  A cofactor that is composite with no factor below the
    bound, or past the range of is_prime, is an InfeasibleSizeError."""
    if n < 1:
        raise ValueError("index must be a positive integer")
    fs: Dict[int, int] = {}
    for p in itertools.chain((2,), range(3, _TRIAL_BOUND, 2)):
        if p * p > n:
            break
        while n % p == 0:
            fs[p] = fs.get(p, 0) + 1
            n //= p
    if n > 1:
        if not is_prime(n):
            raise InfeasibleSizeError(f"cannot factor {n}: it is composite with no "
                                      f"prime factor below {_TRIAL_BOUND}")
        fs[n] = 1
    return fs


@dataclass(frozen=True)
class PrimeBasis:
    """A strictly increasing tuple of distinct primes p_1 < ... < p_d."""

    primes: Tuple[int, ...]

    def __post_init__(self):
        if not self.primes:
            raise ValueError("prime basis must be non-empty")
        for p in self.primes:
            if not isinstance(p, int) or not is_prime(p):
                raise ValueError(f"{p!r} is not prime")
        if any(a >= b for a, b in zip(self.primes, self.primes[1:])):
            raise ValueError("primes must be strictly increasing")

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


BASIS2 = PrimeBasis((2,))  # the one-prime basis of the psi2 layers


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


def layer_counts(n: int, basis: PrimeBasis) -> List[Tuple[int, int, int]]:
    """(j, n_j, c_j) for every basis-smooth n_j <= n, zero counts included:
    the c_j layers r of [1, n] with n // n_{j+1} < r <= n // n_j hold the
    n_1 .. n_j times r, so c_j = Phi(n // n_j) - Phi(n // n_{j+1}) with
    Phi(x) = sum_{d | rad} mu(d) (x // d).  sum_j j c_j = n exactly."""
    if n < 1:
        raise ValueError("volume must be >= 1")
    mobius = [(1, 1)]  # (d, mu(d)) for the squarefree basis products d <= n
    for p in basis.primes:
        mobius += [(d * p, -mu) for d, mu in mobius if d * p <= n]
    smooth = list(itertools.takewhile(lambda m: m <= n, _smooth_heap(basis.primes)))
    phi = [sum(mu * (n // m // d) for d, mu in mobius) for m in smooth] + [0]
    return [(j, m, phi[j - 1] - phi[j]) for j, m in enumerate(smooth, 1)]


# ---------------------------------------------------------------------------
# Dyadic layer series (basis {2}).
# ---------------------------------------------------------------------------


def koroa_finite_average(phi: Callable[[int], object], n: int):
    """(1/n) * sum over odd i <= n of phi(psi2(i, n)), computed exactly from
    the c_j odd i with psi2(i, n) = j - 1 that layer_counts gives.

    If phi returns ints or Fractions the result is an exact Fraction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = sum(c * phi(j - 1) for j, _, c in layer_counts(n, BASIS2) if c)
    if isinstance(total, (int, Fraction)):
        return Fraction(total, n)
    return total / n


def _dyadic_tail(k: int, growth):
    a, b, c = growth
    return 0.5 ** (k + 2) * (a + b * (k + 2) + c * (k * k + 4 * k + 6))


def _depth_floor(tol: float, growth) -> int:
    # A depth at or below the first K whose tail bound is below tol.  With
    # x = K + 2 the bound is 2^-x poly(x), poly(x) = a + b x + c (x^2 + 2),
    # which falls in x by a factor of at least 12/11 a step for a, b, c >= 0,
    # so every x with bound < tol exceeds log2(poly(x0) / tol) for any x0
    # below it; iterating from x0 = 2 climbs towards the root from below.
    # Rounding is monotone, so the computed bounds fall below tol no earlier
    # than one step before the exact ones do; the floor keeps that step and
    # one more of margin, and stays below 1073, past which 2^-(K+2) is 0.
    a, b, c = growth
    if not (a >= 0 and b >= 0 and c >= 0):
        return 0
    x = 2.0
    for _ in range(4):
        poly = a + b * x + c * (x * x + 2)
        if not 0 < poly < math.inf:
            break
        x = max(x, math.log2(poly) - math.log2(tol))
    return min(max(0, math.ceil(x) - 4), 1072)


def dyadic_depth(tol: float, *growths) -> int:
    """Smallest K at which the tail bound of every growth is below tol.

    A growth (a, b, c) certifies |g(p)| <= a + b p + c p^2 for a layer
    quantity g.  The tail sum_{p>K} g(p) / 2^{p+2} of its layer series is
    then at most 2^{-(K+2)} (a + b (K+2) + c (K^2 + 4K + 6)).  A tail bound
    that is not finite is a PreconditionError: no depth would meet it.

    The bounds fall in K, so the scan for K starts from a floor computed in
    closed form rather than from 0.  A sum of bounds that overflows at some
    depth overflows at 0 too, and a bound that stops being finite stays so;
    so checking depth 0 and the scanned depths raises wherever the scan from
    0 would.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")

    def worst(k):
        tails = [_dyadic_tail(k, g) for g in growths]
        if not math.isfinite(sum(tails)):
            raise PreconditionError("layer series tail bound is not finite; parameters too large")
        return max(tails)

    worst(0)
    k = max((_depth_floor(tol, g) for g in growths), default=0)
    while worst(k) >= tol:
        k += 1
    return k


def dyadic_sum(prefix, growth):
    """(sum_{p<=K} g(p) / 2^{p+2}, tail bound) for the layer quantities
    g(0), ..., g(K) and a growth as in dyadic_depth.  prefix holds them
    along axis 0 of an array, or is an iterator that yields them in turn, so
    that a pass can be summed as it runs.  The weights 1/2^{p+2} are the
    limiting frequencies of psi2(i, N) = p over odd i <= N, and sum to 1/2.
    The terms are added in order of p."""
    if isinstance(prefix, Iterator):
        value = None
        for k, g in enumerate(prefix):
            term = np.ldexp(g, -(k + 2))
            value = term if value is None else value + term
        return value, _dyadic_tail(k, growth)
    prefix = np.asarray(prefix, dtype=float)
    k = prefix.shape[0] - 1
    weights = np.ldexp(1.0, -np.arange(2, k + 3)).reshape((-1,) + (1,) * (prefix.ndim - 1))
    terms = weights * prefix
    # numpy reduces a leading axis row by row when a row holds more than one
    # entry, as the iterator branch adds, but a contiguous axis pairwise;
    # cumsum goes in order
    value = terms.sum(axis=0) if terms[0].size > 1 else np.cumsum(terms, axis=0)[-1]
    return value, _dyadic_tail(k, growth)


# ---------------------------------------------------------------------------
# Smooth-number weight series (general basis).
# ---------------------------------------------------------------------------


def _smooth_heap(primes: Tuple[int, ...]) -> Iterator[int]:
    """The primes-smooth numbers 1 = n_1 < n_2 < ... by a heap merge.  m is
    multiplied only by the primes up to its smallest prime factor, so each
    number enters the heap once, as (n / q) * q with q its smallest prime."""
    heap = [1]
    while True:
        m = heapq.heappop(heap)
        yield m
        for p in primes:
            heapq.heappush(heap, m * p)
            if m % p == 0:
                break


def iter_kie_weights(basis: PrimeBasis) -> Iterator[Tuple[int, int, float, float]]:
    """Yield (j, n_j, w_j, mass_j): the j-th basis-smooth number, its weight
    w_j = kappa * (1/n_j - 1/n_{j+1}) and the remaining mass
    mass_j = sum_{i>j} i w_i = 1 - kappa (sum_{i<=j} 1/n_i - j/n_{j+1}).

    Distinct smooth numbers have distinct logarithms, so the counting
    function of {x : sum x_i log p_i <= rho} increments by exactly one and
    the w_j are the layer-cardinality frequencies, with sum_j j w_j = 1.
    With kappa = a/b, w_j is the integer division a (n_{j+1} - n_j) /
    (b n_j n_{j+1}); the mass is one integer numerator over b L, with
    L = lcm(n_1 .. n_{j+1}), divided once.  Both are correctly rounded.
    """
    kappa = basis.kappa_fraction()
    a, b = kappa.numerator, kappa.denominator
    stream = _smooth_heap(basis.primes)
    n = next(stream)
    lcm, inv_sum = 1, 0  # inv_sum / lcm = sum_{i<=j} 1/n_i
    for j, m in enumerate(stream, 1):
        if lcm % m:
            grow = m // math.gcd(lcm, m)
            lcm *= grow
            inv_sum *= grow
        inv_sum += lcm // n
        den = b * lcm
        yield j, n, a * (m - n) / (b * n * m), (den - a * (inv_sum - j * (lcm // m))) / den
        n = m


def _mass_floor(basis: PrimeBasis, terms: int) -> float:
    """Lower bound on mass_terms, the mass left after `terms` weights.

    mass_J = kappa (J / n_{J+1} + sum_{j>J} 1/n_j) >= kappa (J + 1) / n_{J+1}
    by parts.  The unit cubes at the lattice points
    of {x >= 0 : sum x_i log p_i <= y} cover that simplex, so there are at
    least y^d / (d! prod log p_i) smooth numbers <= e^y; with y chosen to
    make that J + 1, n_{J+1} <= e^y."""
    d = basis.dim
    log_count = math.log(terms + 1)
    y = math.exp((log_count + math.lgamma(d + 1)
                  + sum(math.log(math.log(p)) for p in basis.primes)) / d)
    return math.exp(log_count + math.log(basis.kappa) - y)


@dataclass(frozen=True)
class WeightSeries:
    """Truncated smooth-number weight series for a prime basis.

    weights is a float64 array of length J with weights[j - 1] = w_j =
    kappa * (1/n_j - 1/n_{j+1}), the limiting frequency (per unit volume) of
    layers whose region has cardinality j; smooth holds n_1 .. n_J.
    truncation_tail is the exact remaining mass sum_{j>J} j w_j, correctly
    rounded.  Mass identities: sum_j w_j = kappa and sum_j j w_j = 1; the
    float sums of the J weights differ from kappa and from 1 by at most
    truncation_tail + 3 * 2^-53.
    """

    basis: PrimeBasis
    kappa_fraction: Fraction
    smooth: Tuple[int, ...]  # n_1 .. n_J
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
    """The weight series up to the first J whose exact remaining mass
    sum_{j>J} j w_j is below `tolerance`, from iter_kie_weights.

    A series longer than _MAX_WEIGHT_TERMS is refused: at once, before any
    weight is formed, when _mass_floor at the cap is not below `tolerance`
    (the mass decreases in J); otherwise once the stream passes the cap."""
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    refusal = InfeasibleSizeError(f"the weight series needs more than {_MAX_WEIGHT_TERMS} "
                                  f"terms (cap) to reach tolerance {tolerance:g}")
    if _mass_floor(basis, _MAX_WEIGHT_TERMS) >= tolerance:
        raise refusal
    smooth, weights = [], array("d")
    for j, n_j, w_j, mass in iter_kie_weights(basis):
        smooth.append(n_j)
        weights.append(w_j)
        if mass < tolerance:
            break
        if j >= _MAX_WEIGHT_TERMS:
            raise refusal
    return WeightSeries(
        basis=basis,
        kappa_fraction=basis.kappa_fraction(),
        smooth=tuple(smooth),
        weights=np.array(weights),
        truncation_tail=mass,
    )
