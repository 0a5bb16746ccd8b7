import math

import numpy as np
import pytest

from multising import arith, ldp, multiprime
from multising.acceptance import brute_region_pressure, lower_closure
from multising.arith import PrimeBasis, Region
from multising.errors import InfeasibleSizeError, PreconditionError
from multising.ising1d import ModelParams, tilted_prefix_pressures
from multising.multiprime import RegionPressureKey
from multising.numutil import RunningLogSum
from multising.observables import FirstLayerObservable, Observable, to_first_layer

import oracles

P_FREE = ModelParams(0.0, 1.0, 0.0)
P_UNIT = ModelParams(1.0, 1.0, 0.0)
F_BOND = Observable.make([((1, 2), 1.0)])
F_TWO = Observable.make([((1, 2), 1.0), ((1, 3), 1.0)])


class TestExtendObservable:
    def test_two_prime_example(self):
        basis, fstar = multiprime.extend_observable(F_TWO)
        assert basis.primes == (2, 3)
        assert fstar.terms == (
            (frozenset({(0, 0), (0, 1)}), 1.0),
            (frozenset({(0, 0), (1, 0)}), 1.0),
        )

    def test_identity_observable(self):
        basis, fstar = multiprime.extend_observable(Observable.make([((1,), 1.0)]))
        assert basis.primes == (2,)
        assert fstar.terms == ((frozenset({(0,)}), 1.0),)

    def test_prime_five(self):
        basis, fstar = multiprime.extend_observable(Observable.make([((1, 5), 1.0)]))
        assert basis.primes == (2, 5)
        assert fstar.terms == ((frozenset({(0, 0), (0, 1)}), 1.0),)

    def test_offsets_give_back_each_index(self):
        # one single-site monomial per index, its coefficient the index
        indices = list(range(1, 201)) + [2**40, 3**20 * 5, 210]
        f = Observable.make([((i,), float(i)) for i in indices])
        basis, fstar = multiprime.extend_observable(f)
        assert basis.primes == tuple(p for p in range(2, 201) if all(p % q for q in range(2, p)))
        assert fstar.dim == basis.dim and len(fstar.terms) == len(indices)
        for key, coeff in fstar.terms:
            (x,) = key
            assert math.prod(p**v for p, v in zip(basis.primes, x)) == coeff

    @pytest.mark.parametrize("pairs, primes", [
        ([((3, 9), 1.0)], (2, 3)),
        ([((5, 7), 1.0), ((1,), -0.5)], (2, 5, 7)),
        ([((15, 49), 1.0), ((2, 8), 2.0)], (2, 3, 5, 7)),
        ([((), 1.0)], (2,)),
    ])
    def test_basis_is_the_prime_support_with_two(self, pairs, primes):
        basis, fstar = multiprime.extend_observable(Observable.make(pairs))
        assert basis.primes == primes and fstar.dim == len(primes)

    def test_zero_observable_has_zero_pressure(self):
        # the zero observable takes the one-prime route, and every route
        # gives its exact pressure, 0
        zero = Observable.make([((1, 2), 0.0)])
        basis, fstar = multiprime.extend_observable(zero)
        assert basis.primes == (2,) and fstar.dim == 1 and fstar.terms == ()
        value, rows = multiprime.kie_pressure(zero, P_UNIT, 0.5, 1e-3)
        assert value == 0.0 and [r.psi_j for r in rows] == [0.0]
        assert multiprime.finite_pressure_exact_d(zero, 0.5, 8, P_UNIT) == 0.0
        assert ldp.scgf(fstar, P_UNIT, 0.5, 1e-10)[0] == 0.0

    @pytest.mark.parametrize("index", [10**18 + 3, 2**61 - 1])
    def test_large_prime_index(self, index):
        basis, fstar = multiprime.extend_observable(Observable.make([((1, index), 1.0)]))
        assert basis.primes == (2, index)
        assert fstar.terms == ((frozenset({(0, 0), (0, 1)}), 1.0),)

    def test_unfactorable_index_is_a_size_error(self):
        with pytest.raises(InfeasibleSizeError, match="cannot factor"):
            multiprime.extend_observable(Observable.make([((1, 65537**2), 1.0)]))

    def test_first_layer_is_the_one_prime_route(self):
        f = Observable.make([((1, 8), 1.0), ((2,), -0.5), ((), 0.25)])
        basis, fstar = multiprime.extend_observable(f)
        assert basis.primes == (2,) and to_first_layer(f) == fstar
        assert fstar == FirstLayerObservable.make([((0, 3), 1.0), ((1,), -0.5), ((), 0.25)])
        with pytest.raises(ValueError, match="site index 6 is not a power of two"):
            to_first_layer(Observable.make([((1, 12), 1.0), ((6,), 1.0)]))


class TestRegionPressure:
    def test_zero_tilt(self):
        basis, fstar = multiprime.extend_observable(F_TWO)
        region = oracles.canonical_region(basis, 4)
        v = multiprime.region_pressure(RegionPressureKey(region, fstar, 0.0), P_UNIT)
        assert abs(v) <= 1e-12

    def test_single_point_two_bonds(self):
        _, fstar = multiprime.extend_observable(F_TWO)
        region = Region(frozenset({(0, 0)}))
        for t in (-0.9, 0.4, 1.3):
            v = multiprime.region_pressure(RegionPressureKey(region, fstar, t), P_FREE)
            assert v == pytest.approx(2 * math.log(math.cosh(t)), abs=1e-12)

    @pytest.mark.parametrize("k", range(9))
    def test_one_dimensional_reduction(self, k):
        # s1 s8 ties sites i and i + 3: at k = 0 nothing lies on sites 1 and
        # 2 (at k = 1 on site 2), so both region enumerations sum over a gap
        region = Region(frozenset((i,) for i in range(k + 1)))
        for f in (F_BOND, Observable.make([((1, 8), 1.0)])):
            _, fstar = multiprime.extend_observable(f)
            b = tilted_prefix_pressures(k, to_first_layer(f), 0.9, P_UNIT)[0][-1]
            a = multiprime.region_pressure(RegionPressureKey(region, fstar, 0.9), P_UNIT)
            assert a == pytest.approx(b, abs=1e-11)
            brute = brute_region_pressure(region.points, fstar, 0.9, P_UNIT)
            assert brute == pytest.approx(b, abs=1e-11)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(5)
        params = ModelParams(0.6, 1.1, -0.4)
        _, fstar = multiprime.extend_observable(F_TWO)
        for _ in range(8):
            pts = {(0, 0), (1, 0), (0, 1)}
            if rng.random() < 0.5:
                pts.add((1, 1))
            t = float(rng.uniform(-1, 1))
            key = RegionPressureKey(Region(frozenset(pts)), fstar, t)
            a = multiprime.region_pressure(key, params)
            b = brute_region_pressure(pts, fstar, t, params)
            assert a == pytest.approx(b, abs=1e-11)

    def test_width_cap(self):
        # the cap bounds the largest intermediate factor, not |S|: the
        # 40-site canonical region 30 needs a factor over 6 sites only,
        # while region 600 (632 sites) needs one over more than 22
        basis, fstar = multiprime.extend_observable(F_TWO)
        region = oracles.canonical_region(basis, 30)
        key = RegionPressureKey(region, fstar, 0.5)
        assert math.isfinite(multiprime.region_pressure(key, P_UNIT))
        plan = multiprime._plan(region.points, fstar)
        assert max(len(union) for _, union, _ in plan.steps) == 6
        wide = RegionPressureKey(oracles.canonical_region(basis, 600), fstar, 0.5)
        with pytest.raises(InfeasibleSizeError, match="cap 22"):
            multiprime.region_pressure(wide, P_UNIT)

    def test_uncoupled_lines_factor(self):
        # s1 s2 + s3 s6 over {2, 3}: the two bonds lie on the lines y = 0
        # and y = 1, which no monomial couples
        f = Observable.make([((1, 2), 1.0), ((3, 6), 1.0)])
        _, fstar = multiprime.extend_observable(f)
        key = RegionPressureKey(Region(frozenset({(0, 0)})), fstar, 0.7)
        bond = tilted_prefix_pressures(0, to_first_layer(F_BOND), 0.7, P_UNIT)[0][-1]
        assert multiprime.region_pressure(key, P_UNIT) == pytest.approx(2 * bond, abs=1e-13)

    def test_running_log_sum_skips_zero_weights(self):
        acc = RunningLogSum()
        acc.add([-np.inf, -np.inf])
        assert acc.value() == -np.inf
        acc.add([0.0, -np.inf])
        assert acc.value() == 0.0

    def test_log_sum_exp_of_impossible_slice(self):
        a = np.array([[-np.inf, -np.inf], [0.0, 1.0]])
        out = multiprime._log_sum_exp(a, 1)
        assert out[0] == -np.inf
        assert out[1] == pytest.approx(np.logaddexp(0.0, 1.0), abs=1e-15)

    def test_constant_term_shift(self):
        f = Observable.make([((1, 2), 1.0), ((), 0.5)])
        _, fstar = multiprime.extend_observable(f)
        region = Region(frozenset({(0,), (1,)}))
        with_const = multiprime.region_pressure(RegionPressureKey(region, fstar, 0.8), P_FREE)
        f0 = Observable.make([((1, 2), 1.0)])
        _, fstar0 = multiprime.extend_observable(f0)
        without = multiprime.region_pressure(RegionPressureKey(region, fstar0, 0.8), P_FREE)
        assert with_const == pytest.approx(without + 0.8 * 0.5 * 2, abs=1e-12)


class TestKiePressure:
    def test_zero_tilt(self):
        v, rows = multiprime.kie_pressure(F_TWO, P_UNIT, 0.0, 1e-6)
        assert abs(v) <= 1e-12
        assert rows[0].j == 1

    @pytest.mark.parametrize("params", [P_FREE, P_UNIT])
    def test_one_dimensional_reduction(self, params):
        tol = 1e-4
        fstar = to_first_layer(F_BOND)
        for t in (-2.0, -0.5, 1.0, 2.0):
            v, _ = multiprime.kie_pressure(F_BOND, params, t, tol)
            w, _ = ldp.scgf(fstar, params, t, 1e-11)
            assert abs(v - w) <= 2 * tol

    def test_two_prime_agrees_with_finite_volume(self):
        # the finite-volume computation is the authoritative value to
        # compare against
        v, rows = multiprime.kie_pressure(F_TWO, P_FREE, 0.1, tol=0.03)
        w = multiprime.finite_pressure_exact_d(F_TWO, 0.1, 48, P_FREE)
        assert abs(v - w) <= 1e-2
        assert rows[-1].tail_bound < 0.03
        tails = [r.tail_bound for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))

    def test_series_table_fields(self):
        _, rows = multiprime.kie_pressure(F_BOND, P_UNIT, 0.7, 1e-3)
        assert [r.j for r in rows] == list(range(1, len(rows) + 1))
        assert all(r.w_j > 0 for r in rows)
        smooth = oracles.smooth_numbers(PrimeBasis((2,)), len(rows))
        assert [r.n_j for r in rows] == smooth

    def test_unreachable_tolerance_raises_cap_error(self):
        # tol 1e-10 needs the terms j <= 589, whose regions need factors
        # over more than 22 sites; the width check fails before any Psi_j
        with pytest.raises(InfeasibleSizeError, match="cap"):
            multiprime.kie_pressure(F_TWO, P_UNIT, 1.0, 1e-10)

    def test_tolerance_below_the_mass_floor_is_refused_at_once(self, monkeypatch):
        # the mass left after the 10^5-term cap is at least 1.09e-165 for
        # (2, 3), so tol 1e-300 at t = 1 is refused before a weight is drawn
        def no_terms(basis):
            raise AssertionError("a term was pulled")
            yield

        monkeypatch.setattr(arith, "iter_kie_weights", no_terms)
        assert arith._mass_floor(PrimeBasis((2, 3)), multiprime._MAX_TERMS) > 1e-165
        with pytest.raises(InfeasibleSizeError, match="cap"):
            multiprime.kie_pressure(Observable.make([((1, 3), 1.0)]), P_UNIT, 1.0, 1e-300)

    def test_small_tolerance_and_its_bound(self):
        # tol 1e-4 at t = 1 takes 144 terms; every partial sum lies within
        # its tail bound of the final value
        v, rows = multiprime.kie_pressure(F_TWO, ModelParams(1.0, 1.0, 0.2), 1.0, 1e-4)
        assert len(rows) == 144 and rows[-1].tail_bound < 1e-4
        for r in rows:
            assert abs(r.psi_j) <= r.j * 2.0 * (1 + 1e-12)
            assert abs(v - r.partial_sum) <= r.tail_bound + 1e-12

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_tilt_is_refused(self, t):
        # refused before the stopping index is sought, which a NaN tilt
        # would never reach
        with pytest.raises(ValueError, match="tilt") as info:
            multiprime.kie_pressure(F_TWO, P_UNIT, t, 1e-10)
        assert not isinstance(info.value, (InfeasibleSizeError, PreconditionError))

    @pytest.mark.parametrize("params", [ModelParams(1.0, 1e308, 0.0), ModelParams(1.0, 1.0, 1e308)])
    def test_non_finite_region_pressure_raises(self, params):
        # 2 beta*J or beta*h overflows, so the transfer data do not exist;
        # the series must not carry NaN
        f = Observable.make([((1, 3), 1.0)])
        with pytest.raises(PreconditionError, match="not finite"):
            multiprime.kie_pressure(f, params, 0.1, 0.05)

    def test_non_finite_psi_is_refused(self, monkeypatch):
        monkeypatch.setattr(multiprime, "region_pressure", lambda *a, **k: math.nan)
        with pytest.raises(PreconditionError, match="Psi_1"):
            multiprime.kie_pressure(Observable.make([((1, 3), 1.0)]), P_UNIT, 0.1, 0.05)


class TestFiniteVolume:
    def test_single_site(self):
        v = multiprime.finite_pressure_exact_d(F_TWO, 0.7, 1, P_FREE)
        _, fstar = multiprime.extend_observable(F_TWO)
        w = multiprime.region_pressure(
            RegionPressureKey(Region(frozenset({(0, 0)})), fstar, 0.7), P_FREE
        )
        assert v == pytest.approx(w, abs=1e-12)

    def test_zero_tilt(self):
        assert abs(multiprime.finite_pressure_exact_d(F_TWO, 0.0, 12, P_UNIT)) <= 1e-12

    def test_hand_checkable_two_layer_volume(self):
        # volume 6 over primes {2,3}: layer 1 carries {1,2,3,4,6} and layer 5
        # a single point
        basis, fstar = multiprime.extend_observable(F_TWO)
        part = arith.layer_partition(6, basis)
        assert set(part) == {1, 5}
        t = 0.35
        direct = sum(
            brute_region_pressure(reg.points, fstar, t, P_FREE) for reg in part.values()
        ) / 6
        v = multiprime.finite_pressure_exact_d(F_TWO, t, 6, P_FREE)
        assert v == pytest.approx(direct, abs=1e-11)

    def test_non_finite_psi_is_refused(self, monkeypatch):
        # layer 5 of [1, 5] is the first with c_j > 0: Psi_1 is the first computed
        monkeypatch.setattr(multiprime, "region_pressure", lambda *a, **k: math.nan)
        with pytest.raises(PreconditionError, match="Psi_1"):
            multiprime.finite_pressure_exact_d(Observable.make([((1, 3), 1.0)]), 0.1, 5, P_UNIT)

    def test_volume_past_the_cap_fails_before_any_psi(self, monkeypatch):
        # n = 10^12 holds a layer of cardinality 534 over (2, 3), past the
        # 341 regions that fit the factor-width cap
        def no_psi(*args):
            raise AssertionError("a region pressure was computed")

        monkeypatch.setattr(multiprime, "region_pressure", no_psi)
        with pytest.raises(InfeasibleSizeError, match="n=1000000000000 .* cardinality 534"):
            multiprime.finite_pressure_exact_d(F_TWO, 1.0, 10**12, P_UNIT)

    def test_converges_to_the_series_within_the_count_bound(self):
        # finite(n) - F_J = sum_{j<=J} (c_j/n - w_j) Psi_j + sum_{j>J} (c_j/n) Psi_j,
        # and |Psi_j| <= j |t| sup|f*| bounds the second sum by the layer mass
        # that the regions j <= J leave uncovered
        params, t = ModelParams(1.0, 1.0, 0.2), 0.1
        value, rows = multiprime.kie_pressure(F_TWO, params, t, 1e-4)
        assert len(rows) == 97
        basis, fstar = multiprime.extend_observable(F_TWO)
        bounds = []
        for k in range(1, 7):
            n = 10**k
            counts = {j: c for j, _, c in arith.layer_counts(n, basis)}
            gap = abs(multiprime.finite_pressure_exact_d(F_TWO, t, n, params) - value)
            covered = sum(r.j * counts.get(r.j, 0) for r in rows) / n
            bound = (sum(abs(counts.get(r.j, 0) / n - r.w_j) * abs(r.psi_j) for r in rows)
                     + abs(t) * fstar.sup_bound * (1 - covered))
            assert gap <= bound + 1e-12, (n, gap, bound)
            bounds.append(bound)
        assert bounds[-1] < 1e-3 < bounds[0]

    def test_d1_matches_layer_route(self):
        fstar = to_first_layer(F_BOND)
        for n in (5, 16, 37):
            a = multiprime.finite_pressure_exact_d(F_BOND, 0.8, n, P_UNIT)
            b = oracles.finite_pressure_exact(fstar, 0.8, n, P_UNIT)
            assert a == pytest.approx(b, abs=1e-11)


class TestShapeScan:
    def test_equal_cardinality_regions_coincide(self):
        # every layer region of every volume is the canonical region of its
        # cardinality, so equal-cardinality regions coincide
        basis = PrimeBasis((2, 3))
        for n in range(1, 101):
            for region in arith.layer_partition(n, basis).values():
                canonical = oracles.canonical_region(basis, region.cardinality)
                assert region.points == canonical.points, n


class TestEnumeratorOracle:
    """region_pressure against acceptance.brute_region_pressure, which sums
    all 2^m configurations of the full lines, on every case with a
    dependence set of at most 22 sites."""

    POINTS = [  # (beta, J, h, t)
        (1.0, 1.0, 0.3, 0.5),
        (1.5, 4.0, -0.7, -5.0),
        (2.0, -3.0, 1.2, 3.0),
    ]

    @pytest.mark.parametrize("point", POINTS)
    def test_canonical_regions(self, point):
        *args, t = point
        params = ModelParams(*args)
        basis, fstar = multiprime.extend_observable(F_TWO)
        for j in range(1, 16):  # region 15 has 22 sites, region 16 has 23
            key = RegionPressureKey(oracles.canonical_region(basis, j), fstar, t)
            want = brute_region_pressure(key.region.points, fstar, t, params)
            assert multiprime.region_pressure(key, params) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_lower_sets_three_site_monomial(self, dim):
        # s1 s2 s3 - 0.5 s1 s3 over {2, 3}, s1 s3 s5 + 0.7 s1 s2 over {2, 3, 5}
        rng = np.random.default_rng(10 + dim)
        pairs = {2: [((1, 2, 3), 1.0), ((1, 3), -0.5)], 3: [((1, 3, 5), 1.0), ((1, 2), 0.7)]}[dim]
        f = Observable.make(pairs)
        done = 0
        while done < 10:
            params = ModelParams(float(rng.uniform(0.2, 2.0)), float(rng.choice([-3.0, 1.0, 3.0])),
                                 float(rng.uniform(-1.0, 1.0)))
            basis, fstar = multiprime.extend_observable(f)
            assert basis.dim == dim
            pts = lower_closure([rng.integers(0, 4 if dim == 2 else 3, size=dim)
                                 for _ in range(int(rng.integers(1, 4)))])
            sites = {tuple(a + b for a, b in zip(x, o)) for x in pts
                     for offs, _ in fstar.terms for o in offs}
            if len(sites) > 18:
                continue
            t = float(rng.uniform(-5.0, 5.0))
            key = RegionPressureKey(Region(frozenset(pts)), fstar, t)
            want = brute_region_pressure(pts, fstar, t, params)
            assert multiprime.region_pressure(key, params) == pytest.approx(want, abs=1e-12)
            done += 1

