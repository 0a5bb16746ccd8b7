"""The chain core against the decimal reference, from high temperature to
beta*J = 700 and |beta*h| = 700."""

import itertools
import math

import numpy as np
import pytest

from multising import gibbs, ising1d, ldp, multiprime
from multising.errors import InfeasibleSizeError, PreconditionError
from multising.ising1d import ModelParams, transfer
from multising.observables import FirstLayerObservable, Observable

import oracles

BETA_J = [0.0, 3.0, 8.0, 12.0, 14.0, 20.0, 25.0, 100.0, 700.0, -30.0]
BETA_H = [0.0, 1e-12, -1e-12, 1e-4, 0.3, 300.0, 360.0, 700.0, -700.0]
GRID = list(itertools.product(BETA_J, BETA_H))
F_PAIR = FirstLayerObservable.make([([0, 1], 1.0)])
F_SITES_1_3 = Observable.make([((1, 3), 1.0)])


def _close(got, want, tol):
    return np.all(np.abs(np.asarray(got) - want) <= tol * np.maximum(1.0, np.abs(want)))


def _ref_log_q_power(log_q, n):
    out = np.array([[0.0, -math.inf], [-math.inf, 0.0]])
    for _ in range(n):
        out = np.logaddexp.reduce(out[:, :, None] + log_q[None, :, :], axis=1)
    return out


def _ref_joint_law(sites, A, B):
    """Log-probabilities of all spin patterns on `sites`, by repeated
    log-domain products of the reference log Q."""
    log_q, log_pi = oracles.reference_transfer(A, B)
    out = []
    for pattern in range(1 << len(sites)):
        layers = {}
        for j, site in enumerate(sites):
            r, v = site, 0
            while r % 2 == 0:
                r, v = r // 2, v + 1
            layers.setdefault(r, []).append((v, (pattern >> j) & 1))
        lp = 0.0
        for items in layers.values():
            items.sort()
            (v0, s0), steps = items[0], zip(items, items[1:])
            lp += np.logaddexp.reduce(log_pi + _ref_log_q_power(log_q, v0)[:, s0])
            for (va, sa), (vb, sb) in steps:
                lp += _ref_log_q_power(log_q, vb - va)[sa, sb]
        out.append(lp)
    return np.array(out)


@pytest.mark.parametrize("bj", BETA_J)
def test_transfer_logs_match_reference(bj):
    for bh in BETA_H:
        log_q, log_pi = oracles.reference_transfer(bj, bh)
        td = transfer(ModelParams(1.0, bj, bh))
        assert _close(td.log_Q, log_q, 1e-13), (bj, bh, td.log_Q, log_q)
        assert _close(td.log_pi, log_pi, 1e-13), (bj, bh, td.log_pi, log_pi)


@pytest.mark.parametrize("bj", BETA_J)
def test_log_q_power_matches_reference(bj):
    for bh in BETA_H:
        log_q, log_pi = oracles.reference_transfer(bj, bh)
        td = transfer(ModelParams(1.0, bj, bh))
        for n in (0, 1, 2, 3, 6, 7):
            want = _ref_log_q_power(log_q, n)
            got = ising1d.log_q_power(td, n)
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite)
            assert _close(got[finite], want[finite], 1e-13), (bj, bh, n, got, want)
            site = np.logaddexp.reduce(log_pi[:, None] + want, axis=0)
            assert _close(ising1d.log_site_law(td, n), site, 1e-13), (bj, bh, n)


@pytest.mark.parametrize("bj", BETA_J)
def test_cylinder_and_invariance_logprobs_match_reference(bj):
    values = [1, -1, -1, 1, 1, -1]
    idx = [0 if v == 1 else 1 for v in values]
    for bh in BETA_H:
        log_q, log_pi = oracles.reference_transfer(bj, bh)
        params = ModelParams(1.0, bj, bh)
        want = log_pi[idx[0]] + sum(log_q[a, b] for a, b in zip(idx, idx[1:]))
        got = ising1d.chain_marginal_logprob(range(len(idx)), idx, params)
        assert abs(got - want) <= 1e-10
        rep = gibbs.check_mult_invariance([1, 3, 4, 6], 2, params)
        assert np.max(np.abs(rep.logprob_before - _ref_joint_law([1, 3, 4, 6], bj, bh))) <= 1e-10
        assert np.max(np.abs(rep.logprob_after - _ref_joint_law([2, 6, 8, 12], bj, bh))) <= 1e-10


PUBLIC_CALLS = {
    "ks_entropy_series": lambda p: gibbs.ks_entropy(p, "series"),
    "ks_entropy_formula": lambda p: gibbs.ks_entropy(p, "formula"),
    "marginal_entropies": lambda p: ising1d.marginal_entropies(6, p),
    "chain_marginal_logprob": lambda p: ising1d.chain_marginal_logprob([0, 3, 4], [0, 1, 1], p),
    "scgf": lambda p: ldp.scgf(F_PAIR, p, 0.5),
    "tilted_prefix_pressures": lambda p: ising1d.tilted_prefix_pressures(4, F_PAIR, -2.0, p),
    "free_energy": lambda p: gibbs.free_energy("plus", p),
    "smb_estimate": lambda p: gibbs.smb_estimate(32, p, 8, 1),
    "kie_pressure": lambda p: multiprime.kie_pressure(F_SITES_1_3, p, 0.1, 0.05)[0],
}


@pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
def test_public_calls_are_finite_or_typed_errors(name):
    for bj, bh in GRID:
        try:
            out = PUBLIC_CALLS[name](ModelParams(1.0, bj, bh))
        except (PreconditionError, InfeasibleSizeError):
            continue
        assert np.all(np.isfinite(np.asarray(out, dtype=float))), (name, bj, bh, out)


def test_entropy_routes_agree():
    for bj, bh in GRID:
        p = ModelParams(1.0, bj, bh)
        assert gibbs.ks_entropy(p, "formula") == pytest.approx(gibbs.ks_entropy(p, "series"), abs=1e-11)
