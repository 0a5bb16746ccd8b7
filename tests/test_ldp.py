import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from multising import arith, gibbs, ising1d, ldp
from multising.ising1d import ModelParams
from multising.observables import Observable, to_first_layer

import oracles

F_BOND = Observable.make([((1, 2), 1.0)])
F_MAG = Observable.make([((1,), 1.0)])
FS_BOND = to_first_layer(F_BOND)
FS_MAG = to_first_layer(F_MAG)
P_FREE = ModelParams(0.0, 1.0, 0.0)
P_UNIT = ModelParams(1.0, 1.0, 0.0)


def logcosh_conjugate(x):
    return ((1 + x) / 2) * math.log(1 + x) + ((1 - x) / 2) * math.log(1 - x)


class TestScgf:
    def test_zero_tilt(self):
        for fstar in (FS_BOND, FS_MAG):
            v, err = ldp.scgf(fstar, P_UNIT, 0.0, 1e-10)
            assert abs(v) <= 1e-12
            assert err == 0.0

    def test_infinite_temperature_closed_forms(self):
        # F = log cosh t and F' = tanh t, both exact from one pass
        t = np.array([-2.5, -0.3, 0.0, 0.7, 3.0])
        for fstar in (FS_BOND, FS_MAG):
            F, F1, err = ldp.scgf_values(fstar, P_FREE, t, 1e-10)
            assert np.all(err < 1e-10)
            assert np.allclose(F, np.log(np.cosh(t)), rtol=0.0, atol=1e-10)
            assert np.allclose(F1, np.tanh(t), rtol=0.0, atol=1e-10)
            for ti in t:
                v, _ = ldp.scgf(fstar, P_FREE, float(ti), 1e-10)
                assert v == pytest.approx(math.log(math.cosh(ti)), abs=1e-10)

    def test_zero_field_bond_closed_form(self):
        # bond variables are iid signs with P(+) = alpha at h=0
        alpha = 1 / (1 + math.exp(-2))
        for t in (-1.5, 0.4, 2.0):
            v, _ = ldp.scgf(FS_BOND, P_UNIT, t, 1e-12)
            target = math.log(alpha * math.exp(t) + (1 - alpha) * math.exp(-t))
            assert v == pytest.approx(target, abs=1e-11)

    def test_series_depth_known_answer(self):
        # the F'' tail (K^2+6K+11) 2^-(K+2) first drops below 1e-12 at K = 50
        assert ldp.series_depth_for(FS_BOND, 0.0, 1e-12) == 50

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tilt_is_named(self, bad):
        with pytest.raises(ValueError, match="tilt"):
            ldp.scgf(FS_BOND, P_UNIT, bad)
        with pytest.raises(ValueError, match="tilt"):
            ldp.scgf_values(FS_BOND, P_UNIT, [0.5, bad, -0.5])
        with pytest.raises(ValueError, match="tilt"):
            ldp.series_depth_for(FS_BOND, bad, 1e-10)

    def test_truncation_bound_is_honest(self):
        v9, err9 = ldp.scgf(FS_BOND, P_UNIT, 1.3, 1e-6)
        v12, _ = ldp.scgf(FS_BOND, P_UNIT, 1.3, 1e-13)
        assert abs(v9 - v12) <= err9

    def test_route_equivalence(self):
        for bj in (0.0, 0.5, 1.0, 2.0):
            params = ModelParams(1.0, bj, 0.0)
            for t in np.arange(-3.0, 3.01, 0.5):
                a, _ = ldp.scgf(FS_BOND, params, float(t), 1e-9)
                b = ldp.scgf_via_free_energy(float(t), params, 1e-9)
                assert abs(a - b) <= 2e-9

    def test_free_energy_route_closed_form(self):
        for t in (-2.0, 0.3, 1.1):
            assert ldp.scgf_via_free_energy(t, P_FREE, 1e-10) == pytest.approx(
                math.log(math.cosh(t)), abs=1e-8
            )
        assert ldp.scgf_via_free_energy(0.0, P_UNIT, 1e-10) == 0.0


class TestScgfCurve:
    def test_invariants_and_supporting_line(self):
        curve = ldp.scgf_curve(FS_BOND, P_UNIT, np.arange(-2.0, 2.001, 0.1), 1e-11)
        curve.validate()
        i0 = int(np.argmin(np.abs(curve.grid)))
        assert abs(curve.F[i0]) <= 1e-12
        slope0 = curve.Fprime[i0]
        assert np.all(curve.F >= curve.grid * slope0 - 1e-9)

    def test_csv_schema(self):
        curve = ldp.scgf_curve(FS_BOND, P_UNIT, np.arange(-0.5, 0.51, 0.25), 1e-10)
        assert curve.csv_header() == ["t", "F", "Fprime", "trunc_err"]
        columns = curve.csv_columns()
        assert len(columns) == 4 and all(len(c) == curve.grid.size for c in columns)
        assert columns[0] is curve.grid and columns[1] is curve.F

    def test_first_order_curve_matches_second_order_values(self):
        # 5,001 tilts of a width-4 observable span three tilt blocks of the
        # pass; the curve is the series of the second-order reference pass,
        # bit for bit, summed to the same depth
        fstar = to_first_layer(Observable.make([((1, 8), 1.0), ((2,), -0.5)]))
        params = ModelParams(1.0, 1.0, 0.3)
        grid = np.linspace(-3.0, 3.0, 5001)
        assert grid.size > 2 * (ldp._BLOCK_ENTRIES >> max(fstar.widths))
        curve = ldp.scgf_curve(fstar, params, grid)
        F, fprime, errs = ldp.scgf_values(fstar, params, grid)
        assert np.array_equal(curve.F, F)
        assert np.array_equal(curve.Fprime, fprime)
        assert np.array_equal(curve.trunc_err, errs)
        depth = ldp.series_depth_for(fstar, 3.0, 1e-10)
        P, dP, _ = oracles.tilted_prefix_moments(depth, fstar, grid, params)
        s = np.abs(grid) * fstar.sup_bound
        (want_F, want_fprime), want_errs = arith.dyadic_sum(np.stack([P, dP], axis=1), (s, s, 0.0))
        assert np.array_equal(curve.F, want_F)
        assert np.array_equal(curve.Fprime, want_fprime)
        assert np.array_equal(curve.trunc_err, want_errs)

    def test_streamed_series_is_the_sum_of_the_table(self, monkeypatch):
        # small blocks of 32 tilts make 301 tilts span ten blocks; each block's
        # pass is summed step by step, bit for bit as dyadic_sum sums the
        # whole (P, dP) table of tilted_prefix_pressures
        monkeypatch.setattr(ldp, "_BLOCK_ENTRIES", 1 << 8)
        fstar = to_first_layer(Observable.make([((1,), 1.0), ((1, 4), 0.5)]))
        params = ModelParams(1.0, 1.0, 0.3)
        grid = np.concatenate([np.linspace(-4.0, 4.0, 299), [-1000.0, 1000.0]])
        depth = ldp.series_depth_for(fstar, 1000.0, 1e-10)
        got = ldp._series(fstar, ising1d.transfer(params), grid, depth)
        table = np.stack(ising1d.tilted_prefix_pressures(depth, fstar, grid, params), axis=1)
        s = np.abs(grid) * fstar.sup_bound
        (want_F, want_fprime), want_errs = arith.dyadic_sum(table, (s, s, 0.0))
        assert np.array_equal(got[0], want_F)
        assert np.array_equal(got[1], want_fprime)
        assert np.array_equal(got[2], want_errs)

    def test_derivative_matches_secants_to_second_order(self):
        step = 0.1
        curve = ldp.scgf_curve(FS_BOND, P_UNIT, np.arange(-1.0, 1.001, step), 1e-12)
        secants = (curve.F[2:] - curve.F[:-2]) / (2 * step)
        # central secants agree with the tabulated derivative to O(step^2)
        assert np.max(np.abs(secants - curve.Fprime[1:-1])) <= step**2


class TestLegendre:
    # beta = 0, f = s1 s2: F(t) = log cosh t, so I is the conjugate of log cosh
    # and t* = atanh(x)

    def test_rate_vanishes_at_mean(self):
        x0 = ldp.scgf_values(FS_BOND, P_FREE, 0.0, 1e-12)[1]
        rc = ldp.rate_curve(FS_BOND, P_FREE, x0, 1e-12)
        assert 0.0 <= rc.I[0] <= 1e-10
        assert abs(rc.t_star[0]) <= 1e-10

    def test_matches_analytic_conjugate(self):
        xs = [-0.8, -0.25, 0.1, 0.5, 0.9]
        rc = ldp.rate_curve(FS_BOND, P_FREE, xs, 1e-12)
        for x, val, t_star in zip(xs, rc.I, rc.t_star):
            assert val == pytest.approx(logcosh_conjugate(x), abs=1e-10)
            assert t_star == pytest.approx(math.atanh(x), abs=1e-10)

    def test_out_of_range_sentinel(self):
        rc = ldp.rate_curve(FS_BOND, P_FREE, [1.5, -2.0, 1.0, -1.0], 1e-12)
        assert np.all(rc.I == math.inf)
        assert np.all(np.isnan(rc.t_star))
        assert list(rc.domain_flag) == [1, 1, 1, 1]

    def test_conjugate_recovers_curve(self):
        t = np.arange(-2.0, 2.01, 0.25)
        F, x_star, _ = ldp.scgf_values(FS_BOND, P_FREE, t, 1e-12)
        rc = ldp.rate_curve(FS_BOND, P_FREE, x_star, 1e-12)
        assert np.allclose(t * x_star - rc.I, F, rtol=0.0, atol=1e-10)
        assert np.allclose(rc.t_star, t, rtol=0.0, atol=1e-9)

    def test_curve_input_path(self):
        curve = ldp.scgf_curve(FS_BOND, P_FREE, np.arange(-4.0, 4.001, 0.02), 1e-12)
        val, t_star = ldp.legendre(curve, 0.5)
        assert val == pytest.approx(logcosh_conjugate(0.5), abs=1e-4)
        assert ldp.legendre(curve, 0.9999)[0] == math.inf

    def test_non_convex_curve_rejected(self):
        bogus = ldp.ScgfCurve(
            grid=np.array([-1.0, 0.0, 1.0]),
            F=np.array([1.0, 0.0, 1.0]),
            Fprime=np.array([1.0, 0.0, -1.0]),
            trunc_err=np.zeros(3),
        )
        with pytest.raises(ValueError):
            ldp.legendre(bogus, 0.3)

    def test_rate_curve_invariants(self):
        xs = np.linspace(-0.8, 0.8, 17)
        rc = ldp.rate_curve(FS_BOND, P_FREE, xs, 1e-11)
        assert np.all(rc.I >= 0.0)
        assert np.all(np.diff(rc.I, 2) >= -1e-9)
        assert np.all(np.diff(rc.t_star) > 0)
        assert rc.I[8] <= 1e-10  # x = 0 = F'(0) at beta = 0

    def test_rate_curve_flags_and_duality(self):
        xs = np.array([-1.5, -0.5, 0.0, 0.5, 1.5])
        rc = ldp.rate_curve(FS_BOND, P_FREE, xs, 1e-11)
        assert list(rc.domain_flag) == [1, 0, 0, 0, 1]
        assert rc.I[0] == math.inf and rc.I[-1] == math.inf
        assert np.all(rc.I[1:4] >= 0.0)
        assert rc.csv_header() == ["x", "I", "t_star", "domain_flag"]
        columns = rc.csv_columns()
        assert len(columns) == 4 and columns[3].tolist() == [1, 0, 0, 0, 1]
        interior = rc.I[1:4]
        assert np.all(np.diff(rc.t_star[1:4]) > 0)
        assert interior[1] <= min(interior[0], interior[2])

    @pytest.mark.parametrize("bj", [3.5, 5.0])
    def test_steep_slope_at_low_temperature(self, bj):
        # at h = 0, F(t) = lc(t + bJ) - lc(bJ) with lc = log cosh, so
        # t* = atanh(x) - bJ; F'(0) = tanh(bJ) is near 1 and F''(0) tiny, so
        # an unguarded Newton step from t = 0 lands hundreds of units out
        xs = np.round(np.arange(-0.9, 0.9001, 0.05), 12)
        rc = ldp.rate_curve(FS_BOND, ModelParams(bj, 1.0, 0.0), xs, 1e-11)
        t_star = np.arctanh(xs) - bj

        def lc(u):
            return np.logaddexp(u, -u) - math.log(2.0)

        assert np.allclose(rc.t_star, t_star, rtol=0.0, atol=1e-10)
        assert np.allclose(rc.I, t_star * xs - lc(t_star + bj) + lc(bj), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("bj", [25.0, 100.0, 400.0])
    def test_fprime_flat_to_rounding_at_strong_coupling(self, bj):
        # F'(t) = tanh(t + bJ) rounds to exactly +-1 for |t| well short of
        # bJ, so the secant of two iterates there is 0 and the search has to
        # widen geometrically to reach t* = atanh(x) - bJ; at bJ = 400,
        # x = 0.05 needs the stopping rule to account for the previous step
        xs = np.array([-0.99, -0.9, 0.05, 0.9, 0.99])
        rc = ldp.rate_curve(FS_BOND, ModelParams(1.0, bj, 0.0), xs, 1e-11)
        assert list(rc.domain_flag) == [0, 0, 0, 0, 0]
        assert np.allclose(rc.t_star, np.arctanh(xs) - bj, rtol=0.0, atol=1e-10)

    def test_range_of_fprime_narrower_than_sup(self):
        # f* = s0 s1 + s0 takes values in [-2, 2], but along a path its sum
        # cannot fall faster than about -1 per site: the range of F' is
        # (-4/3, 2) at beta = 0, and x below -4/3 has an infinite rate
        fstar = to_first_layer(Observable.make([((1, 2), 1.0), ((1,), 1.0)]))
        xs = np.array([-1.5, -1.3, -0.5, 0.0, 1.9])
        rc = ldp.rate_curve(fstar, P_FREE, xs, 1e-11)
        assert rc.domain == pytest.approx((-4.0 / 3.0, 2.0), abs=1e-10)
        assert list(rc.domain_flag) == [1, 0, 0, 0, 0]
        _, fprime, _ = ldp.scgf_values(fstar, P_FREE, rc.t_star[1:], 1e-11)
        assert np.allclose(fprime, xs[1:], rtol=0.0, atol=1e-10)
        assert np.all(np.isfinite(rc.I[1:])) and np.all(rc.I[1:] >= 0.0)


class TestCltVariance:
    def test_infinite_temperature_unit_variance(self):
        assert ldp.clt_variance(FS_BOND, P_FREE) == pytest.approx(1.0, abs=1e-6)
        assert ldp.clt_variance(FS_MAG, P_FREE) == pytest.approx(1.0, abs=1e-6)

    def test_zero_field_bond_variance(self):
        # iid bonds: variance 1 - tanh(beta J)^2
        assert ldp.clt_variance(FS_BOND, P_UNIT) == pytest.approx(
            1 - math.tanh(1.0) ** 2, abs=1e-6
        )

    def test_zero_field_bond_variance_is_exact(self):
        assert abs(ldp.clt_variance(FS_BOND, P_UNIT) - (1 - math.tanh(1.0) ** 2)) <= 1e-12

    def test_nonnegative(self):
        for params in (P_UNIT, ModelParams(0.9, -1.2, 0.4)):
            assert ldp.clt_variance(FS_BOND, params) >= 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
           st.sampled_from([F_BOND, F_MAG, Observable.make([((1, 8), 1.0), ((2,), -0.5)]),
                            Observable.make([((1, 4), 1.0), ((2,), 2.0)])]))
    def test_matches_second_order_pass(self, beta, J, h, f):
        fstar = to_first_layer(f)
        params = ModelParams(beta, J, h)
        want = oracles.clt_variance_by_second_order_pass(
            fstar, params, ldp.series_depth_for(fstar, 0.0, 1e-12))
        assert abs(ldp.clt_variance(fstar, params) - want) <= 1e-12

    def test_nearly_frozen_chain_keeps_relative_precision(self):
        # F''(0) is 7.7e-22 here: the bound is absolute, but the centred
        # pass resolves it, as the log-domain second-order pass does
        params = ModelParams(1.0, 25.0, 0.0)
        want = oracles.clt_variance_by_second_order_pass(
            FS_BOND, params, ldp.series_depth_for(FS_BOND, 0.0, 1e-12))
        assert 7e-22 < want < 8e-22
        assert ldp.clt_variance(FS_BOND, params) == pytest.approx(want, rel=1e-12)


class TestFinitePressure:
    def test_single_site_volume(self):
        for t in (-1.0, 0.6):
            assert oracles.finite_pressure_exact(FS_MAG, t, 1, P_FREE) == pytest.approx(
                math.log(math.cosh(t)), abs=1e-12
            )

    def test_infinite_temperature_exact_at_every_volume(self):
        for n in (2**8, 2**12, 2**16):
            v = oracles.finite_pressure_exact(FS_BOND, 1.0, n, P_FREE)
            assert v == pytest.approx(math.log(math.cosh(1.0)), abs=1e-13)

    def test_zero_tilt(self):
        assert abs(oracles.finite_pressure_exact(FS_BOND, 0.0, 4096, P_UNIT)) <= 1e-12

    def test_convergence_to_series(self):
        target, _ = ldp.scgf(FS_BOND, P_FREE, 1.0, 1e-12)
        prev = None
        for k in range(8, 17, 2):
            d = abs(oracles.finite_pressure_exact(FS_BOND, 1.0, 1 << k, P_FREE) - target)
            if prev is not None:
                assert d <= prev + 1e-12
            prev = d
        assert prev <= 5e-3

    def test_volume_cap(self):
        with pytest.raises(ValueError):
            oracles.finite_pressure_exact(FS_BOND, 0.5, (1 << 20) + 1, P_UNIT)


class TestMonteCarloHarness:
    def test_multiplicative_average_hand_check(self):
        batch = gibbs.sample(12, P_UNIT, 6, 21)
        f = Observable.make([((1, 2), 2.0), ((3,), -1.0)])
        x = ldp.multiplicative_average(batch, f, 4)
        cfg = batch.configurations
        for r in range(6):
            s = cfg[r]
            direct = sum(2.0 * s[i - 1] * s[2 * i - 1] - s[3 * i - 1] for i in range(1, 5))
            assert x[r] == pytest.approx(direct / 4, abs=1e-12)

    def test_strided_reads_match_gathered_columns(self):
        # n spans two 4096-shift chunks, the second one short
        n = 5000
        f = Observable.make([((1, 2), 2.5), ((3,), -0.75), ((), 1.25), ((1, 2, 4), 0.3)])
        batch = gibbs.sample(n * f.max_site, ModelParams(0.7, 1.0, 0.2), 8, 5)
        x = ldp.multiplicative_average(batch, f, n)
        assert np.array_equal(x, oracles.multiplicative_average_by_gather(batch, f, n))

    def test_average_requires_volume(self):
        batch = gibbs.sample(4, P_UNIT, 3, 1)
        with pytest.raises(ValueError):
            ldp.multiplicative_average(batch, F_BOND, 4)

    def test_constant_term(self):
        batch = gibbs.sample(4, P_UNIT, 3, 1)
        f = Observable.make([((), 2.5), ((1,), 0.0)])
        x = ldp.multiplicative_average(batch, f, 4)
        assert np.allclose(x, 2.5)

    def test_empirical_rates_respect_chernoff(self):
        # P(X_N >= x) <= exp(-N I(x)) exactly, so the empirical rate can only
        # undershoot I by sampling noise; the overshoot is the sqrt(N) tail
        # prefactor
        n, count = 256, 100_000
        rows = ldp.empirical_ldp_check(F_BOND, P_FREE, n, count, 77, [0.0, 0.118, 0.9])
        at_mean, mid, far = rows
        assert at_mean.emp_rate <= 2.0 / n
        assert not mid.censored and mid.n_tail > 100
        assert mid.emp_rate >= mid.rate - math.log(2) / n
        assert mid.emp_rate <= mid.rate + (0.5 * math.log(2 * math.pi * n) + 3.0) / n
        assert far.censored and far.emp_rate == math.inf and far.n_tail == 0

    def test_clt_mc_summary(self):
        s = ldp.clt_mc_summary(F_BOND, P_UNIT, 1 << 10, 4000, 2026)
        assert abs(s["emp_mean"] - s["fprime0"]) <= 4 * s["emp_se"]
        assert s["fprime0"] == pytest.approx(math.tanh(1.0), abs=1e-8)
        assert s["n_times_var"] == pytest.approx(s["sigma2"], rel=0.15)
