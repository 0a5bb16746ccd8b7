"""Exact computations for the nearest-neighbor chain living on each layer.

The chain on sites 0..n has Boltzmann weight exp(beta * (J * sum s_i s_{i+1}
+ h * sum s_i [+ boundary term])).  Its transfer matrix K(a, b) =
exp(beta * (J a b + h b)) induces the Markov chain (pi, Q), the infinite-volume
layer measure with free boundary at the left end; transfer and log_q_power
give log Q, log pi and log Q^n in closed form, finite wherever beta*(J, h) is.
Spin indexing everywhere: index 0 is +1, index 1 is -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSizeError, PreconditionError
from .observables import FirstLayerObservable

__all__ = [
    "BOUNDARY_CONDITIONS",
    "ModelParams",
    "TransferData",
    "transfer",
    "log_partition",
    "log_partition_prefix",
    "log_partition_scaled",
    "chain_marginal_logprob",
    "log_q_power",
    "log_site_law",
    "marginal_entropies",
    "marginal_entropy",
    "tilted_prefix_pressures",
    "prefix_variances",
    "prefix_sum_range",
]

# sign of the field a plus/minus boundary puts on the last spin
_BC_SIGN = {"free": 0.0, "plus": 1.0, "minus": -1.0}
BOUNDARY_CONDITIONS = tuple(_BC_SIGN)
_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class ModelParams:
    """Inverse temperature beta, coupling J, field h.  Any signs allowed."""

    beta: float
    J: float = 1.0
    h: float = 0.0

    def __post_init__(self):
        for name in ("beta", "J", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise PreconditionError(f"parameter {name} must be finite, got {v!r}")


@dataclass(frozen=True, eq=False)
class TransferData:
    """log Q, log pi (finite) and their exps Q, pi (entries may underflow)."""

    params: ModelParams
    log_Q: np.ndarray
    log_pi: np.ndarray
    Q: np.ndarray
    pi: np.ndarray


def _softplus(x: float) -> float:  # log(1 + e^x)
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _log1mexp(y: float) -> float:  # log(1 - e^{-y}) for y > 0
    return math.log(-math.expm1(-y)) if y < _LOG2 else math.log1p(-math.exp(-y))


def transfer(params: ModelParams) -> TransferData:
    """Closed-form log Markov data of K(a, c) = exp(A ac + B c), A = beta*J,
    B = beta*h.  With b = |B| and u = asinh(e^{2A} sinh b), lam - K_big =
    e^{-A-u} and lam - K_small = e^{-A+u}, so no nearly equal numbers are
    subtracted: for s the spin the field favours, Q(s, s) = sigma(x_s) with
    x_s = 2A + b + u, Q(-s, -s) = sigma(x_o) with x_o = 2A - b - u, sigma
    the logistic function, and pi(s)/pi(-s) = e^{b + u}.  Past
    e^{2A} sinh b = 1, x_o = -2b - g - c, g = log sinh b - b and
    c = u - log(e^{2A} sinh b), stays exact where 2A and u nearly cancel."""
    A, B = params.beta * params.J, params.beta * params.h
    b = abs(B)
    if b == 0.0:
        u, x_o = 0.0, 2.0 * A
    else:
        g = _log1mexp(2.0 * b) - _LOG2
        lz = 2.0 * A + b + g
        if lz <= 0.0:
            u = math.asinh(math.exp(lz))
            x_o = (2.0 * A - b) - u
        else:
            c = math.log1p(math.sqrt(1.0 + math.exp(-2.0 * lz)))
            u = lz + c
            x_o = -2.0 * b - g - c
    x_s = (2.0 * A + b) + u
    log_Q = -np.array([[_softplus(-x_s), _softplus(x_s)], [_softplus(x_o), _softplus(-x_o)]])
    log_pi = -np.array([_softplus(-(b + u)), _softplus(b + u)])
    if B < 0.0:  # the field favours the minus spin, index 1
        log_Q, log_pi = log_Q[::-1, ::-1].copy(), log_pi[::-1].copy()
    if not (np.all(np.isfinite(log_Q)) and np.all(np.isfinite(log_pi))):
        raise PreconditionError("transfer data not finite; |beta*(J,h)| too large")
    return TransferData(params=params, log_Q=log_Q, log_pi=log_pi,
                        Q=np.exp(log_Q), pi=np.exp(log_pi))


def _as_transfer(obj) -> TransferData:
    if isinstance(obj, TransferData):
        return obj
    return transfer(obj)


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def log_q_power(td: TransferData, n: int) -> np.ndarray:
    """log Q^n for n >= 0 by the two-state form Q^n(a, b) = mu(b) +
    rho^n (delta_ab - mu(b)), mu the stationary law.  rho = det Q has the
    sign of A = beta*J; log|rho| = log Q(+,+) Q(-,-) (1 - e^{-4A}) or
    log Q(+,-) Q(-,+) (1 - e^{4A}) is exact however close rho is to 0 or
    +-1.  For rho^n >= 0 the diagonal sums positive terms and the
    off-diagonal is mu(b) (1 - |rho|^n), or n m mu(b) with m = 1 - |rho|
    where |rho|^n is within 1e-200 of 1.  An odd power of a negative rho is
    Q times the even power below it."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lq = td.log_Q
    if n <= 1:
        return lq.copy() if n else np.array([[0.0, -math.inf], [-math.inf, 0.0]])
    A = td.params.beta * td.params.J
    if A < 0.0 and n % 2:
        return np.logaddexp.reduce(lq[:, :, None] + log_q_power(td, n - 1)[None], axis=1)
    k = 0 if A >= 0.0 else 1
    log_rho_n = n * (lq[0, k] + lq[1, 1 - k] + _log1mexp(4.0 * abs(A))) if A else -math.inf
    if log_rho_n < -1e-200:
        log_gap = _log1mexp(-log_rho_n)  # log(1 - |rho|^n)
    else:  # log(n m)
        log_gap = math.log(n) + _logaddexp(lq[0, 1 - k], lq[1, k])
    # mu(+) = 1 / (1 + Q(+,-)/Q(-,+)), exact where the two logs are equal
    log_mu = (-_softplus(lq[0, 1] - lq[1, 0]), -_softplus(lq[1, 0] - lq[0, 1]))
    return np.array([[_logaddexp(log_mu[0], log_mu[1] + log_rho_n), log_mu[1] + log_gap],
                     [log_mu[0] + log_gap, _logaddexp(log_mu[1], log_mu[0] + log_rho_n)]])


def log_site_law(td: TransferData, n: int) -> np.ndarray:
    """log (pi Q^n): the log law of chain site n."""
    return np.logaddexp.reduce(td.log_pi[:, None] + log_q_power(td, n), axis=0)


# ---------------------------------------------------------------------------
# Partition functions and finite-volume quantities.
# ---------------------------------------------------------------------------


def log_partition_prefix(n_bonds: int, bond: float, field: float, right_bc: str = "free",
                         bc_bond: float = 0.0) -> np.ndarray:
    """log Z of the chains on sites 0..i, for i = 0..n_bonds, with per-bond
    weight e^{bond*ss'} and per-site weight e^{field*s}; for right_bc
    plus/minus the last site carries an extra weight e^{+-bc_bond*s}.

    One transfer recursion on the two log-weights of the last spin; only
    exponentials of non-positive numbers are formed, so any finite
    parameters give a finite result.
    """
    if n_bonds < 0:
        raise ValueError("n_bonds must be >= 0")
    if right_bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {right_bc!r}")
    sign = _BC_SIGN[right_bc]
    shift = sign * bc_bond if sign else 0.0  # 0 * inf would be nan
    out = np.empty(n_bonds + 1)
    # log-weights of the last spin being + and -
    lp, lm = field, -field
    for i in range(n_bonds + 1):
        if i:
            lp, lm = (_logaddexp(lp + bond, lm - bond) + field,
                      _logaddexp(lm + bond, lp - bond) - field)
        out[i] = _logaddexp(lp + shift, lm - shift)
    return out


def log_partition_scaled(n_bonds: int, bond: float, field: float, right_bc: str = "free",
                         bc_bond: float = 0.0) -> float:
    """log Z of the chain on sites 0..n_bonds: the last entry of
    log_partition_prefix."""
    return float(log_partition_prefix(n_bonds, bond, field, right_bc, bc_bond)[-1])


def log_partition(n_bonds: int, params: ModelParams, right_bc: str = "free",
                  bc_coupling: str = "J") -> float:
    """log Z of the chain on sites 0..n_bonds.

    The plus/minus boundary adds energy -beta*J_bc*(+-s_last); J_bc is the
    model coupling J by default, or 1 with bc_coupling="1" (the two agree in
    the J=1 normalization).
    """
    jbc = _boundary_coupling(params, bc_coupling)
    return log_partition_scaled(n_bonds, params.beta * params.J, params.beta * params.h,
                                right_bc, params.beta * jbc)


def _boundary_coupling(params: ModelParams, bc_coupling: str) -> float:
    # J_bc of the plus/minus boundary term: the model J, or 1
    if bc_coupling not in ("J", "1"):
        raise ValueError("bc_coupling must be 'J' or '1'")
    return params.J if bc_coupling == "J" else 1.0


def chain_marginal_logprob(positions, spin_indices, params) -> float:
    """log P(X_{v_1}=s_1, ..., X_{v_m}=s_m) for the chain (pi, Q), with the
    unspecified intermediate sites summed out through powers of Q.

    positions must be strictly increasing nonnegative integers; spin_indices
    are 0/1 per the package spin-index convention.
    """
    td = _as_transfer(params)
    positions = list(positions)
    if not positions:
        raise ValueError("at least one position required")
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ValueError("positions must be strictly increasing")
    lp = float(log_site_law(td, positions[0])[spin_indices[0]])
    for va, vb, ia, ib in zip(positions, positions[1:], spin_indices, spin_indices[1:]):
        lp += float(log_q_power(td, vb - va)[ia, ib])
    return lp


def marginal_entropies(k: int, params) -> np.ndarray:
    """Entropies of the chain marginals on sites 0..i, for i = 0..k:
    H(pi) + sum_{j<i} sum_a m_j(a) * H(Q(a, .)) with m_j = pi Q^j, as one
    cumulative sum.  Exact."""
    if k < 0:
        raise ValueError("k must be >= 0")
    td = _as_transfer(params)
    row_ent = -(td.Q * td.log_Q).sum(axis=1)
    terms = np.empty(k + 1)
    terms[0] = -(td.pi * td.log_pi).sum()
    m = td.pi
    for i in range(k):
        terms[i + 1] = m @ row_ent
        m = m @ td.Q
    return np.cumsum(terms)


def marginal_entropy(k: int, params) -> float:
    """Entropy of the chain marginal on sites 0..k: the last entry of
    marginal_entropies."""
    return float(marginal_entropies(k, params)[-1])


# ---------------------------------------------------------------------------
# Tilted (pressure) computations for first-layer observables.
# ---------------------------------------------------------------------------


_W_MAX = 12  # widest window the exact passes accept: 2^12 states


def _window_bits(w: int) -> np.ndarray:
    n = 1 << w
    return (np.arange(n)[:, None] >> np.arange(w)[None, :]) & 1


def _window_width(fstar: FirstLayerObservable) -> int:
    # a width-1 observable rides a two-site window, so that one shift rule
    # (drop the oldest slot, weight the new one by Q from the newest) covers
    # every width
    if fstar.dim != 1:
        raise PreconditionError("layer pressure requires a one-dimensional observable")
    w = fstar.width
    if w > _W_MAX:
        raise InfeasibleSizeError(
            f"window width {w} exceeds the exact-transfer cap {_W_MAX}"
        )
    return max(w, 2)


def _window_values(fstar: FirstLayerObservable, w: int) -> np.ndarray:
    # f* evaluated on each window state; bit j of the state is the spin index
    # at window slot j (slot 0 is the oldest site).
    bits = _window_bits(w)
    spins = 1.0 - 2.0 * bits
    n = 1 << w
    vals = np.zeros(n)
    for offsets, coeff in fstar.terms:
        prod = np.full(n, coeff)
        for (o,) in offsets:
            prod = prod * spins[:, o]
        vals += prod
    return vals


def _shift_predecessors(v: np.ndarray, w: int) -> np.ndarray:
    # state index = sum_j bit_j 2^j; a shift drops slot 0, so the states
    # 2q and 2q+1 share the successor prefix q (slots 1..w-1)
    return v.reshape(v.shape[:-2] + (1 << (w - 1), 2) + v.shape[-1:])


def tilted_prefix_pressures(k: int, fstar: FirstLayerObservable, t, params):
    """P^i(t * f*) = log E exp(t S_i), S_i = sum_{j<=i} f* o theta_j, and its
    t-derivative, for i = 0..k, under the infinite chain (pi, Q).

    One sliding-window transfer pass in forward mode.  Per window state it
    carries the log of the tilted weight and the tilted conditional mean of
    S given that state.  A shift merges two predecessor states by their
    weights; the tilt adds t f* to the log weight and f* to the mean.  So
    dP^i = E_t S_i comes out exactly, and in log space no window weight
    underflows, however large |t|.

    Returns (P, dP), each of shape (k+1,) for scalar t and (k+1, len(t)) for
    a vector of tilts.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    w = _window_width(fstar)
    td = _as_transfer(params)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    n, size = 1 << w, t_arr.size
    half = n >> 1
    f = _window_values(fstar, w)[:, None]
    tf = f * t_arr[None, :]
    # successor weights: new slot b after prefix q costs Q(newest slot of q, b)
    tops = (np.arange(half) >> (w - 2)) & 1
    log_q = td.log_Q[tops].T[:, :, None]  # (2, n/2, 1), indexed [b, q, .]
    # window states start at log pi(slot 0) + sum_j log Q(slot j, slot j+1)
    bits = _window_bits(w)
    log_w = td.log_pi[bits[:, 0]] + td.log_Q[bits[:, :-1], bits[:, 1:]].sum(axis=1)
    log_w = log_w[:, None] + np.zeros((1, size))
    mean = np.zeros((n, size))
    out = np.empty((2, k + 1, size))
    # every step writes the state and scratch buffers in place, so the views
    # below stay valid for the whole pass (np.where and the reductions
    # allocate: their out= forms are slower here)
    (a0, a1), (m0, m1) = (np.moveaxis(_shift_predecessors(x, w), 1, 0) for x in (log_w, mean))
    # the successor of prefix q by new slot b is state q + b n/2
    succ = log_w.reshape(2, half, size)
    gap, small, big, merged, mq, tmp = np.empty((6, half, size))
    p = np.empty((n, size))
    for i in range(k + 1):
        if i:
            np.subtract(a1, a0, out=gap)
            np.exp(np.negative(np.abs(gap, out=small), out=small), out=small)
            np.maximum(a0, a1, out=merged)
            merged += np.log1p(small, out=tmp)
            # weights of the two predecessors, each to full relative precision
            np.divide(1.0, np.add(1.0, small, out=big), out=big)
            small *= big
            later = gap > 0.0
            np.multiply(np.where(later, small, big), m0, out=mq)
            mq += np.multiply(np.where(later, big, small), m1, out=tmp)
            np.add(log_q, merged[None], out=succ)
            np.add(mq, f[:half], out=mean[:half])
            np.add(mq, f[half:], out=mean[half:])
        else:
            mean += f
        log_w += tf
        top = log_w.max(axis=0)
        np.exp(np.subtract(log_w, top, out=p), out=p)
        z = p.sum(axis=0)
        p /= z
        out[1, i] = (p * mean).sum(axis=0)
        np.add(top, np.log(z, out=z), out=out[0, i])
    if not np.all(np.isfinite(out)):
        raise PreconditionError("tilted pass is not finite; the tilt is too large")
    if np.ndim(t) == 0:
        out = out[:, :, 0]
    return tuple(out)


def prefix_variances(k: int, fstar: FirstLayerObservable, params) -> np.ndarray:
    """Var S_i = d2P^i at t = 0, for i = 0..k, by a linear-domain pass that
    carries a_j, the law of window j, and m_j(x) = E[S_j - E S_j; X_j = x].
    With P the window transition, g = f* on the window states and
    d_j = g - E g_j: a_{j+1} = a_j P, m_{j+1} = m_j P + d_{j+1} a_{j+1} and
    Var S_j = Var S_{j-1} + a_j.d_j^2 + 2 (m_{j-1} P).d_j.  a_0 = pi Q...Q,
    since pi is not Q-stationary at h != 0.  Centred terms keep a nearly
    deterministic chain's relative precision; the error is of order
    eps (k+1)^2 sup|f*|^2."""
    if k < 0:
        raise ValueError("k must be >= 0")
    w = _window_width(fstar)
    td = _as_transfer(params)
    half = 1 << (w - 1)
    g, bits = _window_values(fstar, w), _window_bits(w)
    a = td.pi[bits[:, 0]] * td.Q[bits[:, :-1], bits[:, 1:]].prod(axis=1)
    q_succ = td.Q[(np.arange(half) >> (w - 2)) & 1].T

    def shift(v):  # (v P)(q + b n/2) = (v(2q) + v(2q+1)) Q(newest slot of q, b)
        return (q_succ * v.reshape(half, 2).sum(axis=1)).ravel()

    var, m = np.zeros(k + 2), np.zeros(1 << w)
    for i in range(k + 1):
        if i:
            a, m = shift(a), shift(m)
        d = g - a @ g
        var[i + 1] = var[i] + (a * d) @ d + 2.0 * (m @ d)
        m += d * a
    return var[1:]


def prefix_sum_range(k: int, fstar: FirstLayerObservable):
    """(lo, hi), each of shape (k+1,): the least and greatest value of
    S_i = sum_{j<=i} f* o theta_j over window paths, for i = 0..k.

    Every path of the chain has positive probability, so these are the limits
    of dP^i/dt as t -> -inf and t -> +inf.  A max-plus pass over the window
    states, run for f* and -f* at once.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    w = _window_width(fstar)
    f = _window_values(fstar, w)
    f = np.stack([f, -f])[:, :, None]
    best = f
    out = np.empty((2, k + 1))
    for i in range(k + 1):
        if i:
            best = f + np.tile(_shift_predecessors(best, w).max(axis=-2), (1, 2, 1))
        out[:, i] = best.max(axis=(1, 2))
    return -out[1], out[0]
