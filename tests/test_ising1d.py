import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multising import ising1d
from multising.acceptance import brute_log_partition, chain_spins
from multising.errors import InfeasibleSizeError, PreconditionError
from multising.ising1d import ModelParams, transfer
from multising.observables import FirstLayerObservable

import oracles

params_st = st.builds(
    ModelParams,
    beta=st.floats(-2, 2),
    J=st.floats(-2, 2),
    h=st.floats(-2, 2),
)


class TestTransfer:
    def test_zero_field_closed_forms(self):
        bj = 1.3 * 0.8
        td = transfer(ModelParams(1.3, 0.8, 0.0))
        alpha = 1.0 / (1.0 + math.exp(-2.0 * bj))
        assert td.Q == pytest.approx(np.array([[alpha, 1 - alpha], [1 - alpha, alpha]]), rel=1e-14)
        assert td.log_Q[0, 1] == pytest.approx(-math.log1p(math.exp(2.0 * bj)), rel=1e-14)
        assert td.pi[0] == pytest.approx(0.5, abs=1e-15)
        assert td.log_pi[1] == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_infinite_temperature_transitions(self):
        td = transfer(ModelParams(0.0, 1.0, 0.7))
        assert np.allclose(td.Q, 0.5, atol=1e-15)

    def test_q_plus_plus_value(self):
        td = transfer(ModelParams(1.0, 1.0, 0.0))
        assert td.Q[0, 0] == pytest.approx(math.e / (math.e + 1 / math.e), abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(params_st)
    def test_perron_and_markov_invariants(self, params):
        # Q(a, b) = K(a, b) e(b) / (lam e(a)) for the Perron pair (lam, e) of
        # K(a, b) = exp(A ab + B b): the gauge e cancels from the cycle ratio
        # and from Q(+,+)/Q(-,-), and pi(a) is proportional to e^{B s_a} e(a)
        td = transfer(params)
        A, B = params.beta * params.J, params.beta * params.h
        lq, lp = td.log_Q, td.log_pi
        assert lq[0, 1] + lq[1, 0] - lq[0, 0] - lq[1, 1] == pytest.approx(-4 * A, abs=1e-12)
        assert lq[0, 0] - lq[1, 1] == pytest.approx(2 * B, abs=1e-12)
        assert lp[0] - lp[1] == pytest.approx(lq[0, 0] - lq[0, 1] - 2 * A, abs=1e-12)
        assert np.array_equal(td.Q, np.exp(lq)) and np.array_equal(td.pi, np.exp(lp))
        assert np.all(td.Q > 0)
        assert np.max(np.abs(td.Q.sum(axis=1) - 1.0)) <= 1e-14
        assert td.pi.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(td.pi > 0)

    def test_overflow_guard(self):
        # K itself overflows at beta*J = 800, its logs do not
        td = transfer(ModelParams(400.0, 2.0, 0.0))
        assert td.log_Q[0, 1] == pytest.approx(-1600.0, rel=1e-15)
        assert td.log_Q[0, 0] == 0.0 and td.Q[0, 1] == 0.0
        assert np.array_equal(td.log_pi, np.full(2, -math.log(2.0)))
        # the guard still fires where beta*J, 2 beta*J or beta*h overflows
        for params in (ModelParams(1e200, 1e200, 0.0), ModelParams(1.0, 1e308, 0.0),
                       ModelParams(1.0, 1.0, 1e308), ModelParams(1e200, 0.0, -1e200)):
            with pytest.raises(PreconditionError, match="transfer"):
                transfer(params)

    def test_pi_small_component_matches_symmetric_form(self):
        # pi(-) ~ 1e-4 here: forming it as 1 - pi(+) lost 5.6e-12 relative.
        # Symmetric form: K = D^-1 S D with S(a, b) = exp(A ab + B (a+b)/2),
        # pi(a) ~ e^{B s_a / 2} u(a) for the Perron vector u = (cos, sin) of S
        beta, J, h = 2.97912, 1.0, 0.530395
        A, B = beta * J, beta * h
        s = np.array([1.0, -1.0])
        log_s = A * np.outer(s, s) + 0.5 * B * (s[:, None] + s[None, :])
        S = np.exp(log_s - log_s.max())
        theta = 0.5 * math.atan2(2.0 * S[0, 1], S[0, 0] - S[1, 1])
        pi = np.exp(0.5 * B * s) * np.array([math.cos(theta), math.sin(theta)])
        pi /= pi.sum()
        got = transfer(ModelParams(beta, J, h)).pi
        assert np.max(np.abs(got / pi - 1.0)) <= 1e-13


class TestLogQPower:
    @settings(max_examples=150, deadline=None)
    @given(params_st, st.integers(0, 60))
    def test_matches_numpy_matrix_power(self, params, n):
        td = transfer(params)
        with np.errstate(divide="ignore"):  # Q^0 has zero entries
            want = np.log(np.linalg.matrix_power(td.Q, n))
        got = ising1d.log_q_power(td, n)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        err = np.abs(got[finite] - want[finite])
        assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want[finite])))
        site = np.log(td.pi @ np.linalg.matrix_power(td.Q, n))
        assert ising1d.log_site_law(td, n) == pytest.approx(site, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("bj", [-3.0, 3.0])
    def test_both_signs_of_rho_and_parities(self, bj):
        # rho = det Q has the sign of beta*J; odd powers of a negative rho
        # take one step of Q after the even power
        td = transfer(ModelParams(1.0, bj, 0.4))
        want = np.eye(2)
        for n in range(9):
            assert np.allclose(np.exp(ising1d.log_q_power(td, n)), want, rtol=1e-13, atol=0.0)
            want = want @ td.Q

    def test_negative_power_is_refused(self):
        with pytest.raises(ValueError):
            ising1d.log_q_power(transfer(ModelParams(1.0)), -1)


class TestLogPartition:
    def test_single_site(self):
        assert ising1d.log_partition(0, ModelParams(1.0, 1.0, 0.0)) == pytest.approx(
            math.log(2), abs=1e-14
        )

    def test_one_bond_free(self):
        p = ModelParams(0.9, 1.4, 0.0)
        assert ising1d.log_partition(1, p) == pytest.approx(
            math.log(4 * math.cosh(0.9 * 1.4)), abs=1e-12
        )

    def test_infinite_temperature(self):
        assert ising1d.log_partition(1, ModelParams(0.0, 1.0, 0.5)) == pytest.approx(
            math.log(4), abs=1e-14
        )

    @settings(max_examples=60, deadline=None)
    @given(params_st, st.integers(0, 9))
    def test_brute_force_equivalence(self, params, n_bonds):
        b, J, h = params.beta, params.J, params.h
        for bc in ising1d.BOUNDARY_CONDITIONS:
            a = ising1d.log_partition(n_bonds, params, bc)
            want = brute_log_partition(n_bonds, params, bc)
            assert abs(a - want) <= 1e-10 * max(1.0, abs(want))
            prefix = ising1d.log_partition_prefix(n_bonds, b * J, b * h, bc, b * J)
            assert prefix[-1] == a
            for i in range(n_bonds + 1):
                want = brute_log_partition(i, params, bc)
                assert abs(prefix[i] - want) <= 1e-10 * max(1.0, abs(want))

    def test_bc_coupling_flag(self):
        p = ModelParams(1.0, 2.0, 0.3)
        with_j = ising1d.log_partition(3, p, "plus", bc_coupling="J")
        with_one = ising1d.log_partition(3, p, "plus", bc_coupling="1")
        assert with_j != with_one
        assert with_one == pytest.approx(
            brute_log_partition(3, p, "plus", bc_coupling="1"), abs=1e-12
        )
        p1 = ModelParams(1.0, 1.0, 0.3)
        assert ising1d.log_partition(3, p1, "plus", "J") == ising1d.log_partition(
            3, p1, "plus", "1"
        )


def _cylinder_logprob(values, params):
    """log P(s_0..s_k = values) under the chain, as a chain marginal."""
    idx = [0 if v == 1 else 1 for v in values]
    return ising1d.chain_marginal_logprob(range(len(idx)), idx, params)


class TestCylinders:
    def test_single_spin_symmetric(self):
        assert _cylinder_logprob([1], ModelParams(1.0, 1.0, 0.0)) == pytest.approx(
            math.log(0.5), abs=1e-14
        )

    def test_pair_value(self):
        p = ModelParams(1.0, 1.0, 0.0)
        lp = _cylinder_logprob([1, 1], p)
        assert lp == pytest.approx(math.log(0.5 * 0.8807970779778823), abs=1e-9)

    def test_infinite_temperature_product(self):
        p = ModelParams(0.0, 1.0, 0.9)
        for values in ([1], [1, -1, 1], [-1] * 5):
            assert _cylinder_logprob(values, p) == pytest.approx(
                -len(values) * math.log(2), abs=1e-12
            )

    @pytest.mark.parametrize("bj", [-2.0, -0.5, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("bh", [-2.0, -0.5, 0.0, 0.5, 2.0])
    def test_markov_consistency_with_finite_volume(self, bj, bh):
        # the Markov chain (pi, Q), pi from the closed-form limit ratio, must
        # be the n -> infinity limit of finite free-boundary chain laws; the
        # rate is |lambda_2/lambda_1|^n, as slow as 0.96^n in the
        # antiferromagnetic small-field corner, hence n up to 600
        params = ModelParams(1.0, bj, bh)
        cylinders = [[1], [-1], [1, 1], [1, -1, -1]]
        prev = None
        for n in (150, 300, 600):
            worst = 0.0
            for values in cylinders:
                exact = _cylinder_logprob(values, params)
                fin = oracles.finite_volume_cylinder_logprob(values, n, params)
                worst = max(worst, abs(math.exp(exact) - math.exp(fin)))
            if prev is not None:
                # monotone until the error hits the roundoff floor (the
                # oracle accumulates ~n rescaled products)
                assert worst <= max(prev + 1e-15, 5e-12)
            prev = worst
        assert prev <= 1e-8


class TestMarginalEntropy:
    def test_k0_is_initial_entropy(self):
        assert ising1d.marginal_entropy(0, ModelParams(1.0, 1.0, 0.0)) == pytest.approx(
            math.log(2), abs=1e-14
        )

    def test_zero_field_closed_form(self):
        p = ModelParams(1.0, 1.0, 0.0)
        alpha = 1 / (1 + math.exp(-2))
        h_alpha = -(alpha * math.log(alpha) + (1 - alpha) * math.log(1 - alpha))
        for k in range(11):
            assert ising1d.marginal_entropy(k, p) == pytest.approx(
                math.log(2) + k * h_alpha, abs=1e-12
            )

    def test_matches_direct_cylinder_sum(self):
        p = ModelParams(0.8, 1.1, 0.4)
        prefix = ising1d.marginal_entropies(5, p)
        for k in range(6):
            total = 0.0
            for pattern in range(1 << (k + 1)):
                values = [1 - 2 * ((pattern >> j) & 1) for j in range(k + 1)]
                lp = _cylinder_logprob(values, p)
                total -= math.exp(lp) * lp
            assert ising1d.marginal_entropy(k, p) == pytest.approx(total, abs=1e-12)
            assert prefix[k] == pytest.approx(total, abs=1e-12)

    def test_infinite_temperature(self):
        p = ModelParams(0.0, 1.0, 0.0)
        for k in (0, 3, 7):
            assert ising1d.marginal_entropy(k, p) == pytest.approx(
                (k + 1) * math.log(2), abs=1e-12
            )


F_PAIR = FirstLayerObservable.make([([0, 1], 1.0)])
F_SITE = FirstLayerObservable.make([([0], 1.0)])
F_WIDTH3 = FirstLayerObservable.make([([0], 1.0), ([0, 2], 0.5)])  # s[1] + 0.5*s[1]*s[4]
F_WIDTH4 = FirstLayerObservable.make([([0, 3], 1.0), ([1], -0.5), ([0, 1, 2], 2.0)])


def _first_order_is_finite(params):
    # the tilted pass gives P and its first derivative
    out = ising1d.tilted_prefix_pressures(5, F_PAIR, 0.5, params)
    assert all(np.all(np.isfinite(x)) for x in out)
    want = oracles.tilted_pressure_by_enumeration(5, F_PAIR, 0.5, params)
    assert out[0][-1] == pytest.approx(want, rel=1e-12, abs=1e-12)


def _second_order_is_finite(params):
    # the second derivative d2P^i(0) = Var S_i comes from prefix_variances
    got = ising1d.prefix_variances(5, F_PAIR, params)
    assert np.all(np.isfinite(got))
    want = oracles.tilted_prefix_moments(5, F_PAIR, 0.0, params)[2]
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def _spy_routes(monkeypatch):
    # the tilts that reach each route of the tilted pass, by route name
    seen = {}
    for name in ("linear", "log"):
        route = getattr(ising1d, f"_{name}_steps")

        def spy(k, *args, route=route, name=name):
            seen.setdefault(name, set()).update(args[-1].tolist())
            return route(k, *args)

        monkeypatch.setattr(ising1d, f"_{name}_steps", spy)
    return seen


class TestTiltedPressure:
    def test_zero_tilt(self):
        p = ModelParams(1.0, 1.0, 0.3)
        for fstar in (F_PAIR, F_SITE):
            assert abs(ising1d.tilted_prefix_pressures(5, fstar, 0.0, p)[0][-1]) <= 1e-12

    def test_infinite_temperature_closed_forms(self):
        # P^k = (k+1) log cosh t, with derivatives (k+1) tanh t, (k+1) sech^2 t
        p = ModelParams(0.0, 1.0, 0.0)
        t = np.array([-1.5, 0.4, 2.0])
        for fstar in (F_PAIR, F_SITE):
            for k in (0, 3, 10):
                for ti in t:
                    P = ising1d.tilted_prefix_pressures(k, fstar, ti, p)[0]
                    assert P[-1] == pytest.approx((k + 1) * math.log(math.cosh(ti)), abs=1e-11)
            P, dP = ising1d.tilted_prefix_pressures(10, fstar, t, p)
            d2P = oracles.tilted_prefix_moments(10, fstar, t, p)[2]
            n = np.arange(1, 12)[:, None]
            assert np.allclose(P, n * np.log(np.cosh(t)), rtol=0.0, atol=1e-11)
            assert np.allclose(dP, n * np.tanh(t), rtol=0.0, atol=1e-12)
            assert np.allclose(d2P, n / np.cosh(t) ** 2, rtol=0.0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(params_st, st.integers(0, 6), st.floats(-1.5, 1.5))
    def test_enumeration_equivalence(self, params, k, t):
        fstar = FirstLayerObservable.make([([0, 1], 1.0), ([0], -0.5)])
        a = ising1d.tilted_prefix_pressures(k, fstar, t, params)[0][-1]
        b = oracles.tilted_pressure_by_enumeration(k, fstar, t, params)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
        # the forward-mode derivatives against central differences
        h = 1e-4
        dP = ising1d.tilted_prefix_pressures(k, fstar, t, params)[1]
        d2P = oracles.tilted_prefix_moments(k, fstar, t, params)[2]
        up = oracles.tilted_pressure_by_enumeration(k, fstar, t + h, params)
        dn = oracles.tilted_pressure_by_enumeration(k, fstar, t - h, params)
        scale = (k + 1) * fstar.sup_bound
        assert abs(dP[-1] - (up - dn) / (2 * h)) <= 1e-7 * scale**3
        assert abs(d2P[-1] - (up - 2 * b + dn) / (h * h)) <= 1e-5 * scale**4

    def test_linear_bound_and_convexity(self):
        p = ModelParams(1.0, 1.0, 0.2)
        fstar = F_PAIR
        k = 7
        grid = np.arange(-3.0, 3.01, 0.25)
        vals = ising1d.tilted_prefix_pressures(k, fstar, grid, p)[0][-1]
        assert np.all(np.abs(vals) <= (k + 1) * np.abs(grid) * fstar.sup_bound + 1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-9)

    def test_prefix_pass_matches_individual(self):
        p = ModelParams(0.7, 1.0, -0.3)
        pre, _ = ising1d.tilted_prefix_pressures(6, F_PAIR, 0.8, p)
        for k in range(7):
            assert pre[k] == pytest.approx(
                ising1d.tilted_prefix_pressures(k, F_PAIR, 0.8, p)[0][-1], abs=1e-12
            )

    def test_prefix_sum_range_matches_enumeration(self):
        fstar = FirstLayerObservable.make([([0, 1], 1.0), ([0], 1.0), ([2], -0.5)])
        lo, hi = ising1d.prefix_sum_range(5, fstar)
        for k in range(6):
            spins = chain_spins(k + 3)
            sums = sum((spins[:, j] * spins[:, j + 1] + spins[:, j] - 0.5 * spins[:, j + 2])
                       for j in range(k + 1))
            assert (lo[k], hi[k]) == (sums.min(), sums.max())

    def test_extreme_tilts_match_enumeration(self):
        # the sum of s0 - s1 telescopes to s0 - s_{k+1}; at t = 200 exp(-4t)
        # underflows, and a pass on a linear scale would lose the paths
        # through (-, +) and come out 0.11 low
        f = FirstLayerObservable.make([([0], 1.0), ([1], -1.0)])
        p = ModelParams(0.5, 1.0, 0.1)
        t = np.array([50.0, 200.0, 1000.0, -1000.0])
        P, dP = ising1d.tilted_prefix_pressures(3, f, t, p)
        d2P = oracles.tilted_prefix_moments(3, f, t, p)[2]
        for i, ti in enumerate(t):
            assert P[-1, i] == pytest.approx(
                oracles.tilted_pressure_by_enumeration(3, f, float(ti), p), rel=1e-14)
        assert np.array_equal(dP[-1], 2.0 * np.sign(t)) and np.all(np.abs(d2P) <= 1e-40)

    def test_steep_coupling_at_large_tilt(self):
        # at h = 0 the bonds are iid: P^k = (k+1) (lc(t + bJ) - lc(bJ)) with
        # lc = log cosh, for tilts far beyond where exp(t f*) underflows
        k, bj = 3, 3.5
        t = np.array([-274.0, -20.0, 20.0, 1e4])
        P, dP = ising1d.tilted_prefix_pressures(k, F_PAIR, t, ModelParams(bj, 1.0, 0.0))
        d2P = oracles.tilted_prefix_moments(k, F_PAIR, t, ModelParams(bj, 1.0, 0.0))[2]

        def lc(u):
            return np.logaddexp(u, -u) - math.log(2.0)

        assert np.allclose(P[-1], (k + 1) * (lc(t + bj) - lc(bj)), rtol=1e-15, atol=0.0)
        assert np.allclose(dP[-1], (k + 1) * np.tanh(t + bj), rtol=0.0, atol=1e-14)
        e = np.exp(-2.0 * np.abs(t + bj))
        assert np.allclose(d2P[-1], (k + 1) * 4.0 * e / (1.0 + e) ** 2, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("fstar, params, t", [
        (F_WIDTH3, ModelParams(0.5, 1.0, 0.1), [-3e5, -1000.0, 1000.0, 3e5]),
        (F_WIDTH3, ModelParams(1.0, 1.0, 0.3), [-3e5, -1000.0, 1000.0, 3e5]),
        (F_WIDTH3, ModelParams(400.0, 1.0, 0.0), [-2.0, 0.0, 0.5]),
        (F_WIDTH3, ModelParams(700.0, 1.0, 0.0), [-2.0, 0.0, 0.5]),
        (F_PAIR, ModelParams(700.0, 1.0, 0.3), [-2.0, 0.0, 0.5]),
    ], ids=["t3e5-bj0.5", "t3e5-bj1", "bj400", "bj700", "bj700-pair"])
    def test_underflowing_pairs_merge_in_log_domain(self, fstar, params, t, monkeypatch):
        # some predecessor pairs sum below 2^-960 of the top weight: a tilt
        # of 1000 or more spreads the window weights, and Q(+,-) is about
        # e^{-800} or e^{-1400}
        k, t = 4, np.array(t)
        P, dP = ising1d.tilted_prefix_pressures(k, fstar, t, params)
        for i, ti in enumerate(t):
            want = oracles.tilted_pressure_by_enumeration(k, fstar, float(ti), params)
            assert P[-1, i] == pytest.approx(want, rel=1e-14, abs=1e-14)
        if abs(t[0]) >= 1000.0:
            # the tilted law sits on the extreme paths
            lo, hi = ising1d.prefix_sum_range(k, fstar)
            assert np.allclose(dP[:, t < 0], lo[:, None], rtol=0.0, atol=1e-12)
            assert np.allclose(dP[:, t > 0], hi[:, None], rtol=0.0, atol=1e-12)
        else:
            h = 1e-4
            up, dn = (np.array([oracles.tilted_pressure_by_enumeration(k, fstar, float(ti), params)
                                for ti in t + s]) for s in (h, -h))
            assert np.allclose(dP[-1], (up - dn) / (2 * h), rtol=0.0, atol=1e-7)
        # without the log-domain merge the pass loses these pairs
        monkeypatch.setattr(ising1d, "_PAIR_MIN", 0.0)
        with np.errstate(all="ignore"), pytest.raises(PreconditionError, match="not finite"):
            ising1d.tilted_prefix_pressures(k, fstar, t, params)

    @pytest.mark.parametrize("fstar", [
        F_SITE,
        F_PAIR,
        F_WIDTH3,
        FirstLayerObservable.make([([0, 3], 1.0), ([1], -0.5)]),
    ], ids=["width1", "width2", "width3", "width4"])
    def test_first_order_is_second_order_without_variance(self, fstar, monkeypatch):
        # the log route is the second-order reference pass without its
        # variance channel, bit for bit, so the reference's d2P belongs to
        # it; the default routes agree with it
        t_grid = np.concatenate([np.linspace(-20.0, 20.0, 41), [-7.3, 0.0, 1e-3, 13.7]])
        for params in (ModelParams(1.0, 1.0, 0.3), ModelParams(2.5, -0.7, -1.2)):
            for t in (0.8, -20.0, t_grid):
                second = oracles.tilted_prefix_moments(12, fstar, t, params)
                default = ising1d.tilted_prefix_pressures(12, fstar, t, params)
                with monkeypatch.context() as m:
                    m.setattr(ising1d, "_LINEAR_SPAN", -math.inf)
                    first = ising1d.tilted_prefix_pressures(12, fstar, t, params)
                assert len(first) == 2 and len(second) == 3
                assert np.array_equal(first[0], second[0])
                assert np.array_equal(first[1], second[1])
                assert np.allclose(default[0], second[0], rtol=1e-14, atol=1e-14)
                assert np.allclose(default[1], second[1], rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("fstar, params, t", [
        (F_PAIR, ModelParams(1.0, 1.0, 0.3), 0.7),
        (F_PAIR, ModelParams(1.0, 1.0, 0.3), 95.0),
        (F_WIDTH3, ModelParams(2.5, -0.7, -1.2), -45.0),
    ], ids=["pair-0.7", "pair-95", "width3-minus45"])
    def test_both_routes_match_enumeration_either_side_of_the_cap(self, fstar, params, t,
                                                                   monkeypatch):
        # a tilt takes the linear route at a cap equal to its span and the
        # log route one ulp below it; spans of 584 and 577 nats sit just
        # under the real cap of 600
        k = 4
        span = ising1d._linear_span(*ising1d._pass_set_up(fstar, params), np.array([t]))[0]
        want = oracles.tilted_pressure_by_enumeration(k, fstar, t, params)
        seen = _spy_routes(monkeypatch)
        for cap, route in ((span, "linear"), (np.nextafter(span, -math.inf), "log")):
            monkeypatch.setattr(ising1d, "_LINEAR_SPAN", cap)
            seen.clear()
            P = ising1d.tilted_prefix_pressures(k, fstar, t, params)[0]
            assert set(seen) == {route}
            assert P[-1] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("fstar", [F_SITE, F_PAIR, F_WIDTH3, F_WIDTH4],
                             ids=["width1", "width2", "width3", "width4"])
    def test_routes_agree_on_a_grid(self, fstar, monkeypatch):
        # the default routes (linear here) and the log route: F and F' to
        # 1e-14, on a grid of three tilt blocks
        from multising import ldp

        grid = np.linspace(-3.0, 3.0, 2001)
        for params in (ModelParams(1.0, 1.0, 0.3), ModelParams(3.0, 1.0, -1.0)):
            seen = _spy_routes(monkeypatch)
            default = ldp.scgf_values(fstar, params, grid)
            assert set(seen) == {"linear"}
            with monkeypatch.context() as m:
                m.setattr(ising1d, "_LINEAR_SPAN", -math.inf)
                log = ldp.scgf_values(fstar, params, grid)
            for a, b in zip(default[:2], log[:2]):
                assert np.allclose(a, b, rtol=1e-14, atol=1e-14)
            assert np.array_equal(default[2], log[2])

    @pytest.mark.parametrize("fstar", [F_SITE, F_PAIR, F_WIDTH3, F_WIDTH4],
                             ids=["width1", "width2", "width3", "width4"])
    def test_a_tilt_keeps_its_bits_beside_other_routes(self, fstar, monkeypatch):
        # one log-route tilt among linear ones: each tilt's (P, dP) is the
        # same alone and in the mixed block
        params = ModelParams(1.0, 1.0, 0.3)
        block = np.array([0.3, -1000.0, -1.7, 2.5])
        seen = _spy_routes(monkeypatch)
        P, dP = ising1d.tilted_prefix_pressures(9, fstar, block, params)
        assert seen == {"linear": {0.3, -1.7, 2.5}, "log": {-1000.0}}
        for i, t in enumerate(block):
            alone = ising1d.tilted_prefix_pressures(9, fstar, t, params)
            assert np.array_equal(alone[0], P[:, i]) and np.array_equal(alone[1], dP[:, i])

    @pytest.mark.parametrize("check", [_first_order_is_finite, _second_order_is_finite],
                             ids=["1", "2"])
    @pytest.mark.parametrize("params", [ModelParams(20.0, 1.0, 0.0), ModelParams(1.0, 1.0, 400.0)],
                             ids=["bj20", "bh400"])
    def test_finite_guard_at_both_orders(self, params, check):
        # Q(+,-) is about e^{-40} at bj20; pi(-) is about e^{-800} at bh400
        check(params)
        # the guard still fires where P itself overflows
        with np.errstate(all="ignore"), pytest.raises(PreconditionError, match="not finite"):
            ising1d.tilted_prefix_pressures(5, F_PAIR, 1e308, params)

    def test_window_cap(self):
        wide = FirstLayerObservable.make([([0, 13], 1.0)])
        with pytest.raises(InfeasibleSizeError):
            ising1d.tilted_prefix_pressures(2, wide, 0.5, ModelParams(1.0))
        with pytest.raises(InfeasibleSizeError):
            ising1d.prefix_variances(2, wide, ModelParams(1.0))

    def test_rejects_multidimensional(self):
        f2 = FirstLayerObservable.make([([(0, 0), (1, 0)], 1.0)], dim=2)
        with pytest.raises(PreconditionError):
            ising1d.tilted_prefix_pressures(2, f2, 0.5, ModelParams(1.0))


OBSERVABLES_UP_TO_WIDTH_4 = [
    F_SITE,
    F_PAIR,
    FirstLayerObservable.make([([0], 1.0), ([0, 2], 0.5)]),
    FirstLayerObservable.make([([0, 3], 1.0), ([1], -0.5), ([0, 1, 2], 2.0)]),
]


class TestPrefixVariances:
    @settings(max_examples=40, deadline=None)
    @given(params_st, st.integers(0, 12), st.sampled_from(OBSERVABLES_UP_TO_WIDTH_4))
    def test_matches_second_order_pass(self, params, k, fstar):
        got = ising1d.prefix_variances(k, fstar, params)
        want = oracles.tilted_prefix_moments(k, fstar, 0.0, params)[2]
        assert got.shape == (k + 1,)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_first_window_is_not_stationary(self):
        # at h != 0 the chain starts in pi, not in the stationary law of Q,
        # so window j's law moves with j; a pass that started in the
        # stationary law would be off by 0.2 to 2 here
        p = ModelParams(1.0, 1.0, 0.3)
        td = transfer(p)
        assert np.max(np.abs(td.pi @ td.Q - td.pi)) > 0.04
        for fstar in OBSERVABLES_UP_TO_WIDTH_4:
            want = oracles.tilted_prefix_moments(12, fstar, 0.0, p)[2]
            assert np.max(np.abs(ising1d.prefix_variances(12, fstar, p) - want)) <= 1e-12

    def test_infinite_temperature_closed_form(self):
        # iid fair spins: the k+1 terms of S_k are uncorrelated with variance 1
        for fstar in (F_SITE, F_PAIR):
            v = ising1d.prefix_variances(10, fstar, ModelParams(0.0, 1.0, 0.0))
            assert np.allclose(v, np.arange(1, 12), rtol=0.0, atol=1e-13)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            ising1d.prefix_variances(-1, F_PAIR, ModelParams(1.0))
