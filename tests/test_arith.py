import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multising import arith
from multising.arith import PrimeBasis, Region
from multising.errors import InfeasibleSizeError, PreconditionError

import oracles

B2 = PrimeBasis((2,))
B23 = PrimeBasis((2, 3))
B235 = PrimeBasis((2, 3, 5))


def layer_value(li, basis):
    return li.r * math.prod(p**x for p, x in zip(basis.primes, li.exponents))


def trial_division_decompose(i, primes):
    exps = []
    for p in primes:
        e = 0
        while i % p == 0:
            i //= p
            e += 1
        exps.append(e)
    return i, tuple(exps)


def smallest_prime_factors(n):
    """spf[m] is the smallest prime factor of m for 2 <= m < n, by a sieve."""
    spf = list(range(n))
    for p in range(2, math.isqrt(n - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, n, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


SPF = smallest_prime_factors(10**5 + 1)
SMALL_PRIMES = [p for p in range(2, arith._TRIAL_BOUND) if p == SPF[p]]
# the Carmichael numbers up to 825265, and a strong pseudoprime to every
# prime base 2 .. 23
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
              52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461,
              252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041, 449065,
              488881, 512461, 530881, 552721, 656601, 658801, 670033, 748657, 825265]
PSEUDOPRIME_2_TO_23 = 3825123056546413051


class TestFactor:
    def test_every_n_up_to_1e5_against_a_sieve(self):
        assert arith.factor(1) == {}
        for n in range(2, len(SPF)):
            assert arith.is_prime(n) == (SPF[n] == n)
            want, m = {}, n
            while m > 1:
                want[SPF[m]] = want.get(SPF[m], 0) + 1
                m //= SPF[m]
            assert arith.factor(n) == want
        assert not arith.is_prime(0) and not arith.is_prime(1)

    def test_carmichael_numbers_and_a_strong_pseudoprime_are_composite(self):
        for n in CARMICHAEL:
            fs = arith.factor(n)
            # Korselt: squarefree, and p - 1 divides n - 1 for every p | n
            assert len(fs) >= 3 and set(fs.values()) == {1} and math.prod(fs) == n
            assert all((n - 1) % (p - 1) == 0 for p in fs)
            assert not arith.is_prime(n)
        assert not arith.is_prime(PSEUDOPRIME_2_TO_23)

    def test_squares_of_primes_below_the_trial_bound(self):
        # every 50th prime and the ten largest; a square near the bound
        # takes the whole trial division, a few ms
        assert SMALL_PRIMES[-1] == 65521
        for p in SMALL_PRIMES[::50] + SMALL_PRIMES[-10:]:
            assert arith.factor(p * p) == {p: 2}

    def test_large_prime_times_small_prime(self):
        m61 = 2**61 - 1
        assert arith.is_prime(m61) and arith.is_prime(10**18 + 3)
        assert arith.factor(3 * m61) == {3: 1, m61: 1}
        assert arith.factor(2**5 * 7 * (10**18 + 3)) == {2: 5, 7: 1, 10**18 + 3: 1}

    @pytest.mark.parametrize("n", [
        65537**2,  # the first prime past the trial bound, squared
        2_147_483_647 * 2_147_483_629,  # two primes near 2^31
        PSEUDOPRIME_2_TO_23,  # 149491 * 747451 * 34233211
        2**89 - 1,  # a prime past the deterministic Miller-Rabin range
    ])
    def test_unsplittable_cofactor_is_refused(self, n):
        with pytest.raises(InfeasibleSizeError):
            arith.factor(n)

    def test_rejects_nonpositive(self):
        for n in (0, -6):
            with pytest.raises(ValueError):
                arith.factor(n)


class TestPrimeBasis:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeBasis((2, 4))
        for n in (1, 9, 561):
            with pytest.raises(ValueError, match="not prime"):
                PrimeBasis((n,))

    def test_accepts_a_large_prime(self):
        assert PrimeBasis((2, 10**18 + 3)).dim == 2

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            PrimeBasis((3, 2))
        with pytest.raises(ValueError):
            PrimeBasis((2, 2))
        with pytest.raises(ValueError):
            PrimeBasis(())

    def test_kappa_inclusion_exclusion_matches_product(self):
        for basis in (B2, B23, B235, PrimeBasis((3, 7, 11))):
            total = Fraction(0)
            for k in range(basis.dim + 1):
                for subset in itertools.combinations(basis.primes, k):
                    total += Fraction((-1) ** k, math.prod(subset))
            assert basis.kappa_fraction() == total

    def test_kappa_23_is_one_third(self):
        assert B23.kappa_fraction() == Fraction(1, 3)


class TestDecompose:
    def test_examples(self):
        assert arith.decompose(12, B2) == arith.LayerIndex(3, (2,))
        assert arith.decompose(1, B23) == arith.LayerIndex(1, (0, 0))
        li = arith.decompose(24, B23)
        assert (li.r, li.exponents) == trial_division_decompose(24, (2, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            arith.decompose(0, B2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6))
    def test_reconstruction(self, i):
        for basis in (B2, B23, B235):
            li = arith.decompose(i, basis)
            assert layer_value(li, basis) == i
            for p in basis.primes:
                assert li.r % p != 0


class TestPsi2:
    def test_examples(self):
        assert arith.psi2(1, 8) == 3
        assert arith.psi2(3, 8) == 1
        assert arith.psi2(5, 8) == 0

    def test_rejects(self):
        with pytest.raises(ValueError):
            arith.psi2(9, 8)
        with pytest.raises(ValueError):
            arith.psi2(2, 8)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**5), st.integers(min_value=1, max_value=10**9))
    def test_exact_inequalities(self, half_r, n):
        r = 2 * half_r + 1
        if r > n:
            return
        k = arith.psi2(r, n)
        assert r * 2**k <= n < r * 2 ** (k + 1)

    def test_boundary_powers_of_two(self):
        # exactly the cases floating logarithms get wrong
        for k in range(1, 60):
            assert arith.psi2(1, 2**k) == k
            assert arith.psi2(1, 2**k - 1) == k - 1


class TestLayerPartition:
    def test_example_dyadic_8(self):
        part = arith.layer_partition(8, B2)
        assert {r: sorted(x for (x,) in reg.points) for r, reg in part.items()} == {
            1: [0, 1, 2, 3],
            3: [0, 1],
            5: [0],
            7: [0],
        }
        assert sum(reg.cardinality for reg in part.values()) == 8

    def test_example_single(self):
        part = arith.layer_partition(1, B23)
        assert part == {1: Region(frozenset({(0, 0)}))}

    def test_example_six(self):
        part = arith.layer_partition(6, B23)
        assert part[1].points == frozenset({(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)})
        assert part[5].points == frozenset({(0, 0)})
        assert set(part) == {1, 5}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=2000))
    def test_partition_properties(self, n):
        for basis in (B2, B23, B235):
            part = arith.layer_partition(n, basis)
            total = 0
            values = set()
            for r, region in part.items():
                assert oracles.is_lower_set(region)
                total += region.cardinality
                for x in region.points:
                    values.add(layer_value(arith.LayerIndex(r, x), basis))
            assert total == n
            assert values == set(range(1, n + 1))

    def test_partition_large_volume(self):
        n = 10**5
        for basis in (B2, B23, B235):
            part = arith.layer_partition(n, basis)
            assert sum(reg.cardinality for reg in part.values()) == n
            assert all(oracles.is_lower_set(reg) for reg in part.values())


class TestLayerCounts:
    BASES = [PrimeBasis(b) for b in ((2, 3), (2, 5), (2, 3, 5), (3, 7), (2, 3, 5, 7))]

    @staticmethod
    def depth_classes(n):
        return {j - 1: c for j, _, c in arith.layer_counts(n, B2) if c}

    def test_one_prime_counts_are_the_psi2_classes(self):
        for n in range(1, 3000):
            want = Counter(arith.psi2(r, n) for r in range(1, n + 1, 2))
            assert self.depth_classes(n) == want, n

    def test_one_prime_classes_tile_the_odd_numbers_at_a_large_volume(self):
        # psi2(r, n) falls in r, so the classes are runs of odd r: deepest
        # first, each run's ends carry its depth, and the runs end at n
        n = 2**40 + 3
        r = 1
        for p, c in sorted(self.depth_classes(n).items(), reverse=True):
            last = r + 2 * (c - 1)
            assert arith.psi2(r, n) == arith.psi2(last, n) == p
            r = last + 2
        assert r - 2 <= n < r

    def test_counts_are_the_partition_histograms(self):
        for basis in self.BASES:
            for n in range(1, 400):
                want = Counter(reg.cardinality for reg in arith.layer_partition(n, basis).values())
                counts = arith.layer_counts(n, basis)
                assert [m for _, m, _ in counts] == oracles.smooth_numbers_upto(n, basis.primes)
                assert {j: c for j, _, c in counts if c} == want, (basis.primes, n)

    def test_counts_cover_the_volume(self):
        for basis in [B2] + self.BASES:
            for k in range(13):
                n = 10**k
                assert sum(j * c for j, _, c in arith.layer_counts(n, basis)) == n, (basis.primes, k)

    @pytest.mark.parametrize("n", [0, -1])
    def test_volume_must_be_positive(self, n):
        with pytest.raises(ValueError):
            arith.layer_counts(n, B23)


class TestDyadicWeights:
    def test_first_weights(self):
        assert arith.dyadic_sum([1.0], (1.0, 0.0, 0.0))[0] == 0.25
        assert arith.dyadic_sum([0.0, 1.0], (1.0, 0.0, 0.0))[0] == 0.125

    def test_series_sums_to_half(self):
        growth = (1.0, 0.0, 0.0)
        depth = arith.dyadic_depth(1e-12, growth)
        value, tail = arith.dyadic_sum([1.0] * (depth + 1), growth)
        assert tail < 1e-12
        assert abs(value - 0.5) <= tail + 1e-15

    def test_identity_series_sums_to_half(self):
        growth = (0.0, 1.0, 0.0)
        depth = arith.dyadic_depth(1e-12, growth)
        value, tail = arith.dyadic_sum([float(p) for p in range(depth + 1)], growth)
        assert tail < 1e-12
        assert abs(value - 0.5) <= tail + 1e-15

    @pytest.mark.parametrize("growth", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    def test_tail_is_the_explicit_remainder(self, growth):
        a, b, c = growth

        def g(p):
            return a + b * p + c * p * p

        for k in range(0, 40, 3):
            _, tail = arith.dyadic_sum([g(p) for p in range(k + 1)], growth)
            explicit = math.fsum(g(p) * 0.5 ** (p + 2) for p in range(k + 1, k + 400))
            assert tail == pytest.approx(explicit, rel=1e-14)

    def test_terms_are_added_in_order(self):
        rng = np.random.default_rng(3)
        for shape in [(45,), (45, 1), (45, 2), (45, 3, 1), (45, 3, 7)]:
            scale = rng.uniform(0.0, 50.0, (45,) + (1,) * (len(shape) - 1))
            g = rng.standard_normal(shape) * scale
            want = np.zeros(shape[1:])
            for p in range(45):
                want = want + 0.5 ** (p + 2) * g[p]
            assert np.array_equal(arith.dyadic_sum(g, (50.0, 0.0, 0.0))[0], want)

    def test_depth_is_the_first_below_tolerance(self):
        growth = (2.0, 0.5, 0.1)
        depth = arith.dyadic_depth(1e-9, growth)
        assert arith.dyadic_sum([0.0] * (depth + 1), growth)[1] < 1e-9
        assert arith.dyadic_sum([0.0] * depth, growth)[1] >= 1e-9

    def test_depth_is_the_scan_from_zero(self):
        # the depth starts from a closed-form floor; it must be the first K
        # a scan up from 0 meets, and raise where that scan raises
        def scan(tol, *growths):
            k = 0
            while True:
                tails = [0.5 ** (k + 2) * (a + b * (k + 2) + c * (k * k + 4 * k + 6))
                         for a, b, c in growths]
                if not math.isfinite(sum(tails)):
                    return "not finite"
                if max(tails) < tol:
                    return k
                k += 1

        def depth(tol, *growths):
            try:
                return arith.dyadic_depth(tol, *growths)
            except PreconditionError:
                return "not finite"

        values = [0.0, 1e-300, 1e-3, math.log(2.0), 3.0, 1e100, 1e305, 1e307, math.inf, math.nan]
        for tol in (1e-310, 1e-300, 1e-12, 1e-10, 0.05, 1e10, math.inf):
            # the scans to a subnormal tolerance run past K = 1000
            for growth in itertools.product(values if tol > 1e-300 else values[::3], repeat=3):
                assert depth(tol, growth) == scan(tol, growth), (tol, growth)
        # five bounds that are finite each but overflow in their sum at K = 0
        assert depth(1e-10, *[(1.7e308, 0.0, 0.0)] * 5) == scan(1e-10, *[(1.7e308, 0.0, 0.0)] * 5)
        rng = np.random.default_rng(5)
        for _ in range(200):
            tol = 10.0 ** rng.uniform(-300, 2)
            growths = [tuple(10.0 ** rng.uniform(-20, 300, 3) * (rng.random(3) < 0.7))
                       for _ in range(rng.integers(1, 4))]
            assert depth(tol, *growths) == scan(tol, *growths), (tol, growths)
        # a tolerance equal to a tail bound, or one ulp either side of it
        for _ in range(200):
            growth = tuple(10.0 ** rng.uniform(-5, 300, 3) * (rng.random(3) < 0.7))
            k = int(rng.integers(0, 1073))
            bound = arith.dyadic_sum([0.0] * (k + 1), growth)[1]
            for tol in (bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)):
                if 0.0 < tol < math.inf:
                    assert depth(tol, growth) == scan(tol, growth), (tol, growth)

    def test_depth_rejects_bad_input(self):
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                arith.dyadic_depth(tol, (1.0, 0.0, 0.0))
        for growth in ((math.inf, 0.0, 0.0), (1.0, math.nan, 0.0), (0.0, 0.0, 1e308)):
            with pytest.raises(PreconditionError):
                arith.dyadic_depth(1e-10, growth)

    def test_finite_average_of_one_is_odd_density(self):
        assert arith.koroa_finite_average(lambda p: 1, 1024) == Fraction(1, 2)
        assert arith.koroa_finite_average(lambda p: 1, 1000) == Fraction(1, 2)

    def test_finite_average_identity_exact_at_dyadic(self):
        for k in (4, 10, 14):
            assert arith.koroa_finite_average(lambda p: p, 2**k) == Fraction(1, 2)

    def test_finite_average_identity_error_bound(self):
        for n in (1000, 3000, 77777):
            err = abs(float(arith.koroa_finite_average(lambda p: p, n)) - 0.5)
            assert err <= math.log(n) / n


class TestSmoothNumbers:
    def test_first_smooth_23(self):
        assert oracles.smooth_numbers(B23, 8) == [1, 2, 3, 4, 6, 8, 9, 12]

    def test_canonical_region(self):
        reg = oracles.canonical_region(B23, 5)
        assert reg.points == frozenset({(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)})
        assert oracles.is_lower_set(reg)

    @pytest.mark.parametrize("basis", [B2, B23, B235, PrimeBasis((3, 7))])
    def test_matches_trial_division(self, basis):
        got = oracles.smooth_numbers(basis, 300)
        want = [1]
        for p in basis.primes:  # every p-power multiple up to the 300th
            want = [m * p**e for m in want for e in range(got[-1].bit_length())
                    if m * p**e <= got[-1]]
        assert got == sorted(want)
        assert all(trial_division_decompose(m, basis.primes)[0] == 1 for m in got)

    @pytest.mark.parametrize("primes", [(2,), (2, 3), (2, 3, 5), (3, 7), (2, 3, 5, 7)])
    def test_matches_heap_merge(self, primes):
        # the heap merge behind smooth_numbers and iter_kie_weights, against
        # every smooth number up to the last one, enumerated by products
        counts = [1, 2, 63, 64, 65, 128, 129, 5000] + [186_713] * (primes == (2, 3, 5))
        basis = PrimeBasis(primes)
        got = oracles.smooth_numbers(basis, max(counts))
        assert got == oracles.smooth_numbers_upto(got[-1], primes)
        for count in counts:
            assert oracles.smooth_numbers(basis, count) == got[:count]
        streamed = itertools.islice(arith.iter_kie_weights(basis), 5000)
        assert [n for _, n, _, _ in streamed] == got[:5000]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=60))
    def test_canonical_region_cardinality(self, j):
        reg = oracles.canonical_region(B235, j)
        assert reg.cardinality == j
        assert oracles.is_lower_set(reg)


class TestKieWeights:
    def test_dyadic_weights_exact(self):
        ws = arith.kie_weights(B2, 1e-8)
        assert ws.kappa_fraction == Fraction(1, 2)
        for j, w in enumerate(ws.weights, 1):
            assert w == 0.5 ** (j + 1)

    def test_smooth_pair_weights(self):
        ws = arith.kie_weights(B23, 1e-4)
        assert ws.smooth[:6] == (1, 2, 3, 4, 6, 8)
        assert ws.weights[0] == float(Fraction(1, 6))
        assert ws.weights[1] == float(Fraction(1, 18))

    def test_mass_identities(self):
        for basis in (B2, B23, B235):
            ws = arith.kie_weights(basis, 1e-5)
            assert abs(ws.sum_weights() - ws.kappa) <= 1e-5
            assert abs(ws.sum_j_weights() - 1.0) <= 1e-5

    def test_telescoping_starts_at_one(self):
        # e^{-rho^-(1)} = 1: the first smooth number is 1
        for basis in (B2, B23, B235):
            assert oracles.smooth_numbers(basis, 1) == [1]

    def test_conservative_tail_bounds_exact_tail(self):
        # the closed-form floor that refuses a tolerance past the cap is a
        # lower bound on the remaining mass (exact to rounding, checked in
        # test_weights_are_the_rounded_fractions)
        for basis in (B2, B23, B235, PrimeBasis((2, 3, 5, 7))):
            stream = itertools.islice(arith.iter_kie_weights(basis), 10_000)
            mass = {j: m for j, _, _, m in stream}
            for j in (1, 10, 100, 1000, 10_000):
                assert arith._mass_floor(basis, j) <= mass[j]

    def test_peak_memory_of_the_bench_size_series(self):
        # 2,608 weights with n_j up to 7.8e10 peak at about 0.17 MiB: the
        # exact ints, one tuple of them, the weights and the heap
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ws = arith.kie_weights(B235, 1e-8)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert ws.j_max == 2_608
        assert peak <= 2**19

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            arith.kie_weights(B2, 0.0)

    @pytest.mark.parametrize("basis", [B2, B23, B235, PrimeBasis((3, 7))])
    def test_weights_are_the_rounded_fractions(self, basis):
        kappa = basis.kappa_fraction()
        terms = list(itertools.islice(arith.iter_kie_weights(basis), 3001))
        mass = Fraction(1)
        for (j, n_j, w, rest), (_, n_next, _, _) in zip(terms, terms[1:]):
            exact = kappa * Fraction(n_next - n_j, n_j * n_next)
            mass -= j * exact
            assert w == float(exact)
            assert rest == float(mass)

    @pytest.mark.parametrize("tol", [0.3, 1e-3, 1e-8])
    def test_stops_at_first_bound_below_tolerance(self, tol):
        # an independent Fraction loop over the product-enumerated numbers:
        # the series stops at the first J with mass_J < tol <= mass_{J-1}
        ws = arith.kie_weights(B235, tol)
        n = oracles.smooth_numbers_upto(2 * ws.smooth[-1], B235.primes)
        kappa = B235.kappa_fraction()
        masses = [Fraction(1)]
        for j in range(1, ws.j_max + 1):
            masses.append(masses[-1] - j * kappa * Fraction(n[j] - n[j - 1], n[j - 1] * n[j]))
        assert masses[-1] < tol <= masses[-2]
        assert ws.truncation_tail == float(masses[-1])
        assert ws.smooth == tuple(n[:ws.j_max])

    @pytest.mark.parametrize("basis", [B2, B23, B235, PrimeBasis((3, 7)), PrimeBasis((2, 3, 5, 7))])
    @pytest.mark.parametrize("tol", [0.3, 1e-3, 1e-5, 1e-8])
    def test_float_sums_within_the_exact_tail(self, basis, tol):
        ws = arith.kie_weights(basis, tol)
        slack = ws.truncation_tail + 3 * 2.0**-53
        assert abs(ws.sum_j_weights() - 1.0) <= slack
        assert abs(ws.sum_weights() - ws.kappa) <= slack

    def test_four_primes_reach_what_the_analytic_bound_refused(self):
        assert arith.kie_weights(PrimeBasis((2, 3, 5, 7)), 1e-5).j_max == 3_392

    def test_unreachable_tolerance_is_a_cap_error(self, monkeypatch):
        # (2, 3, 5, 7) at 1e-100 needs more than 10^7 terms; the closed-form
        # floor refuses it before the stream yields a term
        def no_terms(basis):
            raise AssertionError("a term was pulled")
            yield

        monkeypatch.setattr(arith, "iter_kie_weights", no_terms)
        with pytest.raises(InfeasibleSizeError, match="cap"):
            arith.kie_weights(PrimeBasis((2, 3, 5, 7)), 1e-100)
