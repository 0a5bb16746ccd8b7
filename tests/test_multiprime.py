import math

import numpy as np
import pytest

from multising import arith, ldp, multiprime
from multising.acceptance import brute_region_pressure
from multising.arith import PrimeBasis, Region
from multising.errors import InfeasibleSizeError, PreconditionError
from multising.ising1d import ModelParams, tilted_prefix_pressures
from multising.multiprime import RegionPressureKey
from multising.numutil import RunningLogSum
from multising.observables import Observable, to_first_layer

import oracles

P_FREE = ModelParams(0.0, 1.0, 0.0)
P_UNIT = ModelParams(1.0, 1.0, 0.0)
F_BOND = Observable.make([((1, 2), 1.0)])
F_TWO = Observable.make([((1, 2), 1.0), ((1, 3), 1.0)])


class TestExtendObservable:
    def test_two_prime_example(self):
        model, fstar = multiprime.extend_observable(F_TWO, PrimeBasis((2,)), P_UNIT)
        assert model.basis.primes == (2, 3)
        assert model.base_axis == 0
        assert fstar.terms == (
            (frozenset({(0, 0), (0, 1)}), 1.0),
            (frozenset({(0, 0), (1, 0)}), 1.0),
        )

    def test_identity_observable(self):
        model, fstar = multiprime.extend_observable(
            Observable.make([((1,), 1.0)]), PrimeBasis((2,)), P_UNIT
        )
        assert model.basis.primes == (2,)
        assert fstar.terms == ((frozenset({(0,)}), 1.0),)

    def test_prime_five(self):
        model, fstar = multiprime.extend_observable(
            Observable.make([((1, 5), 1.0)]), PrimeBasis((2,)), P_UNIT
        )
        assert model.basis.primes == (2, 5)
        assert fstar.terms == ((frozenset({(0, 0), (0, 1)}), 1.0),)

    def test_rejects_multi_prime_base(self):
        with pytest.raises(PreconditionError):
            multiprime.extend_observable(F_BOND, PrimeBasis((2, 3)), P_UNIT)


class TestRegionPressure:
    def test_zero_tilt(self):
        model, fstar = multiprime.extend_observable(F_TWO, PrimeBasis((2,)), P_UNIT)
        region = arith.canonical_region(model.basis, 4)
        v = multiprime.region_pressure(RegionPressureKey(region, fstar, 0.0), model)
        assert abs(v) <= 1e-12

    def test_single_point_two_bonds(self):
        model, fstar = multiprime.extend_observable(F_TWO, PrimeBasis((2,)), P_FREE)
        region = Region(frozenset({(0, 0)}))
        for t in (-0.9, 0.4, 1.3):
            v = multiprime.region_pressure(RegionPressureKey(region, fstar, t), model)
            assert v == pytest.approx(2 * math.log(math.cosh(t)), abs=1e-12)

    @pytest.mark.parametrize("k", range(9))
    def test_one_dimensional_reduction(self, k):
        model, fstar = multiprime.extend_observable(F_BOND, PrimeBasis((2,)), P_UNIT)
        region = Region(frozenset((i,) for i in range(k + 1)))
        a = multiprime.region_pressure(RegionPressureKey(region, fstar, 0.9), model)
        b = tilted_prefix_pressures(k, to_first_layer(F_BOND), 0.9, P_UNIT)[0][-1]
        assert a == pytest.approx(b, abs=1e-11)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(5)
        params = ModelParams(0.6, 1.1, -0.4)
        model, fstar = multiprime.extend_observable(F_TWO, PrimeBasis((2,)), params)
        for _ in range(8):
            pts = {(0, 0), (1, 0), (0, 1)}
            if rng.random() < 0.5:
                pts.add((1, 1))
            t = float(rng.uniform(-1, 1))
            a = multiprime.region_pressure(RegionPressureKey(Region(frozenset(pts)), fstar, t), model)
            b = brute_region_pressure(pts, fstar, t, model)
            assert a == pytest.approx(b, abs=1e-11)

    def test_width_cap(self):
        # the cap bounds the largest intermediate factor, not |S|: the
        # 40-site canonical region 30 needs a factor over 6 sites only,
        # while region 600 (632 sites) needs one over more than 22
        model, fstar = multiprime.extend_observable(F_TWO, PrimeBasis((2,)), P_UNIT)
        region = arith.canonical_region(model.basis, 30)
        key = RegionPressureKey(region, fstar, 0.5)
        assert math.isfinite(multiprime.region_pressure(key, model))
        with pytest.raises(InfeasibleSizeError, match="cap 5"):
            multiprime.region_pressure(key, model, cap=5)
        wide = RegionPressureKey(arith.canonical_region(model.basis, 600), fstar, 0.5)
        with pytest.raises(InfeasibleSizeError, match="cap 22"):
            multiprime.region_pressure(wide, model)

    def test_uncoupled_lines_factor(self):
        # s1 s2 + s3 s6 over {2, 3}: the two bonds lie on the lines y = 0
        # and y = 1, which no monomial couples
        f = Observable.make([((1, 2), 1.0), ((3, 6), 1.0)])
        model, fstar = multiprime.extend_observable(f, PrimeBasis((2,)), P_UNIT)
        key = RegionPressureKey(Region(frozenset({(0, 0)})), fstar, 0.7)
        bond = tilted_prefix_pressures(0, to_first_layer(F_BOND), 0.7, P_UNIT)[0][-1]
        assert multiprime.region_pressure(key, model) == pytest.approx(2 * bond, abs=1e-13)

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
        model, fstar = multiprime.extend_observable(f, PrimeBasis((2,)), P_FREE)
        region = Region(frozenset({(0,), (1,)}))
        with_const = multiprime.region_pressure(RegionPressureKey(region, fstar, 0.8), model)
        f0 = Observable.make([((1, 2), 1.0)])
        _, fstar0 = multiprime.extend_observable(f0, PrimeBasis((2,)), P_FREE)
        without = multiprime.region_pressure(RegionPressureKey(region, fstar0, 0.8), model)
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
        smooth = arith.smooth_numbers(PrimeBasis((2,)), len(rows))
        assert [r.n_j for r in rows] == smooth

    def test_unreachable_tolerance_raises_cap_error(self):
        # tol 1e-10 needs the terms j <= 589, whose regions need factors
        # over more than 22 sites; the width check fails before any Psi_j
        with pytest.raises(InfeasibleSizeError, match="cap"):
            multiprime.kie_pressure(F_TWO, P_UNIT, 1.0, 1e-10)

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
        model, fstar = multiprime.extend_observable(F_TWO, PrimeBasis((2,)), P_FREE)
        w = multiprime.region_pressure(
            RegionPressureKey(Region(frozenset({(0, 0)})), fstar, 0.7), model
        )
        assert v == pytest.approx(w, abs=1e-12)

    def test_zero_tilt(self):
        assert abs(multiprime.finite_pressure_exact_d(F_TWO, 0.0, 12, P_UNIT)) <= 1e-12

    def test_hand_checkable_two_layer_volume(self):
        # volume 6 over primes {2,3}: layer 1 carries {1,2,3,4,6} and layer 5
        # a single point
        model, fstar = multiprime.extend_observable(F_TWO, PrimeBasis((2,)), P_FREE)
        part = arith.layer_partition(6, model.basis)
        assert set(part) == {1, 5}
        t = 0.35
        direct = sum(
            brute_region_pressure(reg.points, fstar, t, model) for reg in part.values()
        ) / 6
        v = multiprime.finite_pressure_exact_d(F_TWO, t, 6, P_FREE)
        assert v == pytest.approx(direct, abs=1e-11)

    def test_d1_matches_layer_route(self):
        fstar = to_first_layer(F_BOND)
        for n in (5, 16, 37):
            a = multiprime.finite_pressure_exact_d(F_BOND, 0.8, n, P_UNIT)
            b = ldp.finite_pressure_exact(fstar, 0.8, n, P_UNIT)
            assert a == pytest.approx(b, abs=1e-11)


class TestShapeScan:
    def test_equal_cardinality_regions_coincide(self):
        shapes = multiprime.layer_region_shapes(PrimeBasis((2, 3)), 100, 6)
        assert set(shapes) == {1, 2, 3, 4, 5, 6}
        for c, shape_set in shapes.items():
            assert len(shape_set) == 1
            region = Region(next(iter(shape_set)))
            assert region.cardinality == c
            assert region.is_lower_set()
            assert region.points == arith.canonical_region(PrimeBasis((2, 3)), c).points


class TestEnumeratorOracle:
    """region_pressure against the chunked 2^|S| enumerator on every case
    with a dependence set of at most 22 sites."""

    POINTS = [  # (beta, J, h, t)
        (1.0, 1.0, 0.3, 0.5),
        (1.5, 4.0, -0.7, -5.0),
        (2.0, -3.0, 1.2, 3.0),
    ]

    @pytest.mark.parametrize("point", POINTS)
    def test_canonical_regions(self, point):
        *params, t = point
        model, fstar = multiprime.extend_observable(F_TWO, PrimeBasis((2,)), ModelParams(*params))
        for j in range(1, 16):  # region 15 has 22 sites, region 16 has 23
            key = RegionPressureKey(arith.canonical_region(model.basis, j), fstar, t)
            want = oracles.enumerated_region_pressure(key, model)
            assert multiprime.region_pressure(key, model) == pytest.approx(want, abs=1e-12)

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
            model, fstar = multiprime.extend_observable(f, PrimeBasis((2,)), params)
            assert model.basis.dim == dim
            pts = _random_lower_set(rng, dim, 4 if dim == 2 else 3)
            sites = {tuple(a + b for a, b in zip(x, o)) for x in pts
                     for offs, _ in fstar.terms for o in offs}
            if len(sites) > 18:
                continue
            key = RegionPressureKey(Region(frozenset(pts)), fstar, float(rng.uniform(-5.0, 5.0)))
            want = oracles.enumerated_region_pressure(key, model)
            assert multiprime.region_pressure(key, model) == pytest.approx(want, abs=1e-12)
            done += 1


def _random_lower_set(rng, dim, extent):
    """The lower-set closure of a few random points in [0, extent)^dim."""
    pts = {(0,) * dim}
    for _ in range(int(rng.integers(1, 4))):
        pts.add(tuple(int(v) for v in rng.integers(0, extent, size=dim)))
    stack = list(pts)
    while stack:
        x = stack.pop()
        for axis in range(dim):
            if x[axis] > 0:
                y = x[:axis] + (x[axis] - 1,) + x[axis + 1:]
                if y not in pts:
                    pts.add(y)
                    stack.append(y)
    return pts
