"""Exact computations for the nearest-neighbor chain living on each layer.

The chain on sites 0..n has Boltzmann weight exp(beta * (J * sum s_i s_{i+1}
+ h * sum s_i [+ boundary term])).  Its transfer matrix K(a, b) =
exp(beta * (J a b + h b)) has explicit Perron data; the induced Markov chain
(pi, Q) is the infinite-volume layer measure with free boundary at the left
end.  Spin indexing everywhere: index 0 is +1, index 1 is -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSizeError, PreconditionError
from .observables import FirstLayerObservable

__all__ = [
    "SPINS",
    "BOUNDARY_CONDITIONS",
    "ModelParams",
    "TransferData",
    "transfer",
    "log_partition",
    "log_partition_prefix",
    "log_partition_scaled",
    "cylinder_logprob",
    "chain_marginal_logprob",
    "q_power",
    "marginal_entropies",
    "marginal_entropy",
    "tilted_prefix_pressures",
    "prefix_sum_range",
]

SPINS = (1, -1)
BOUNDARY_CONDITIONS = ("free", "plus", "minus")


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
    """Transfer matrix K, Perron pair (lam, e_tilde), Markov data (Q, pi)."""

    params: ModelParams
    K: np.ndarray
    lam: float
    e_tilde: np.ndarray
    Q: np.ndarray
    pi: np.ndarray
    log_Q: np.ndarray
    log_pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_qpow", {0: np.eye(2), 1: self.Q})


def transfer(params: ModelParams) -> TransferData:
    """Closed-form Perron data of the 2x2 transfer matrix.

    lam = e^{bJ} cosh(bh) + sqrt(e^{2bJ} sinh^2(bh) + e^{-2bJ}); the right
    eigenvector is proportional to (K(+,-), lam - K(+,+)), strictly positive.
    The initial law pi is the limiting marginal of the first chain spin,
    pi(a) proportional to e^{bh s_a} e_tilde(a).
    """
    b, J, h = params.beta, params.J, params.h
    bJ, bh = b * J, b * h
    K = np.empty((2, 2))
    try:
        for ia, sa in enumerate(SPINS):
            for ib, sb in enumerate(SPINS):
                K[ia, ib] = math.exp(bJ * sa * sb + bh * sb)
    except OverflowError:
        raise PreconditionError("transfer matrix overflow; |beta*(J,h)| too large") from None
    if not np.all(np.isfinite(K)):
        raise PreconditionError("transfer matrix overflow; |beta*(J,h)| too large")
    lam = math.exp(bJ) * math.cosh(bh) + math.hypot(
        math.exp(bJ) * math.sinh(bh), math.exp(-bJ)
    )
    # solve (K - lam) v = 0 from the row whose diagonal sits farther from
    # lam; the other choice cancels catastrophically for strong fields
    if K[0, 0] <= K[1, 1]:
        v = np.array([K[0, 1], lam - K[0, 0]])
    else:
        v = np.array([lam - K[1, 1], K[1, 0]])
    e_tilde = v / math.sqrt(v @ v)
    Q = K * e_tilde[None, :] / (lam * e_tilde[:, None])
    # normalize both components: forming the smaller one as 1 minus the
    # other cancels
    lp = bh * np.array(SPINS, dtype=float)
    pi = np.exp(lp - lp.max()) * e_tilde
    pi /= pi.sum()
    return TransferData(
        params=params,
        K=K,
        lam=lam,
        e_tilde=e_tilde,
        Q=Q,
        pi=pi,
        log_Q=np.log(Q),
        log_pi=np.log(pi),
    )


def _as_transfer(obj) -> TransferData:
    if isinstance(obj, TransferData):
        return obj
    return transfer(obj)


def q_power(tdata: TransferData, n: int) -> np.ndarray:
    """Q^n with caching on the TransferData instance."""
    cache = tdata._qpow
    if n not in cache:
        cache[n] = np.linalg.matrix_power(tdata.Q, n)
    return cache[n]


def _spin_index(value: int) -> int:
    if value == 1:
        return 0
    if value == -1:
        return 1
    raise ValueError(f"spin value must be +1 or -1, got {value!r}")


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
    shift = {"free": 0.0, "plus": bc_bond, "minus": -bc_bond}[right_bc]
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


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def log_partition(n_bonds: int, params: ModelParams, right_bc: str = "free",
                  bc_coupling: str = "J") -> float:
    """log Z of the chain on sites 0..n_bonds.

    The plus/minus boundary adds energy -beta*J_bc*(+-s_last); J_bc is the
    model coupling J by default, or 1 with bc_coupling="1" (the two agree in
    the J=1 normalization).
    """
    if bc_coupling not in ("J", "1"):
        raise ValueError("bc_coupling must be 'J' or '1'")
    jbc = params.J if bc_coupling == "J" else 1.0
    return log_partition_scaled(
        n_bonds,
        params.beta * params.J,
        params.beta * params.h,
        right_bc,
        params.beta * jbc,
    )


def cylinder_logprob(values, params) -> float:
    """log of the infinite-volume chain probability of (s_0, ..., s_k):
    log pi(s_0) + sum log Q(s_i, s_{i+1}) (empty sum for a single spin)."""
    td = _as_transfer(params)
    idx = [_spin_index(v) for v in values]
    if not idx:
        raise ValueError("cylinder must be non-empty")
    lp = td.log_pi[idx[0]]
    for a, b in zip(idx, idx[1:]):
        lp += td.log_Q[a, b]
    return float(lp)


def chain_marginal_logprob(positions, spin_indices, params) -> float:
    """log P(X_{v_1}=s_1, ..., X_{v_m}=s_m) for the chain (pi, Q), with the
    unspecified intermediate sites summed out through matrix powers.

    positions must be strictly increasing nonnegative integers; spin_indices
    are 0/1 per the package spin-index convention.
    """
    td = _as_transfer(params)
    positions = list(positions)
    if not positions:
        raise ValueError("at least one position required")
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ValueError("positions must be strictly increasing")
    first = td.pi @ q_power(td, positions[0])
    lp = math.log(first[spin_indices[0]])
    for (va, ia), (vb, ib) in zip(
        zip(positions, spin_indices), zip(positions[1:], spin_indices[1:])
    ):
        lp += math.log(q_power(td, vb - va)[ia, ib])
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


def _window_width(fstar: FirstLayerObservable, w_max: int) -> int:
    # a width-1 observable rides a two-site window, so that one shift rule
    # (drop the oldest slot, weight the new one by Q from the newest) covers
    # every width
    if fstar.dim != 1:
        raise PreconditionError("layer pressure requires a one-dimensional observable")
    w = fstar.width
    if w > w_max:
        raise InfeasibleSizeError(
            f"window width {w} exceeds the exact-transfer cap {w_max}"
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


def _window_init(td: TransferData, w: int) -> np.ndarray:
    bits = _window_bits(w)
    p = td.pi[bits[:, 0]]
    for j in range(w - 1):
        p = p * td.Q[bits[:, j], bits[:, j + 1]]
    return p


def _shift_predecessors(v: np.ndarray, w: int) -> np.ndarray:
    # state index = sum_j bit_j 2^j; a shift drops slot 0, so the states
    # 2q and 2q+1 share the successor prefix q (slots 1..w-1)
    return v.reshape(v.shape[:-2] + (1 << (w - 1), 2) + v.shape[-1:])


def tilted_prefix_pressures(k: int, fstar: FirstLayerObservable, t, params,
                            w_max: int = _W_MAX, *, order: int = 2):
    """P^i(t * f*) = log E exp(t S_i), S_i = sum_{j<=i} f* o theta_j, and its
    first `order` t-derivatives, for i = 0..k, under the infinite chain
    (pi, Q).

    One sliding-window transfer pass in forward mode.  Per window state it
    carries the log of the tilted weight, the tilted conditional mean of S
    given that state and, at order 2, its conditional variance.  A shift
    merges two predecessor states by their weights; the tilt adds t f* to
    the log weight and f* to the mean.  So dP^i = E_t S_i and
    d2P^i = Var_t S_i come out exactly, and in log space no window weight
    underflows, however large |t|.  The variance channel costs about a third
    of the pass, so callers that read no F'' pass order=1; the rate-function
    Newton solve and the CLT variance need order 2.  P and dP do not depend
    on the order, bit for bit.

    Returns (P, dP) at order 1 and (P, dP, d2P) at order 2, each of shape
    (k+1,) for scalar t and (k+1, len(t)) for a vector of tilts.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    w = _window_width(fstar, w_max)
    td = _as_transfer(params)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    n, size = 1 << w, t_arr.size
    half = n >> 1
    f = _window_values(fstar, w)[:, None]
    tf = f * t_arr[None, :]
    # successor weights: new slot b after prefix q costs Q(newest slot of q, b)
    tops = (np.arange(half) >> (w - 2)) & 1
    log_q = td.log_Q[tops].T[:, :, None]  # (2, n/2, 1), indexed [b, q, .]
    with np.errstate(divide="ignore"):
        log_w = np.log(_window_init(td, w))[:, None] + np.zeros((1, size))
    mean = np.zeros((n, size))
    var = np.zeros((n, size))
    out = np.empty((order + 1, k + 1, size))
    # every step writes the state and scratch buffers in place, with the
    # operations of the plain expressions in the same order, so the bits do
    # not change and the views below stay valid for the whole pass (np.where
    # and the reductions allocate: their out= forms are slower here)
    (a0, a1), (m0, m1), (v0, v1) = (np.moveaxis(_shift_predecessors(x, w), 1, 0)
                                    for x in (log_w, mean, var))
    # the successor of prefix q by new slot b is state q + b n/2
    succ = log_w.reshape(2, half, size)
    gap, small, big, merged, mq, dm, vq, tmp = np.empty((8, half, size))
    p, d = np.empty((2, n, size))
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
            r0 = np.where(later, small, big)
            r1 = np.where(later, big, small)
            np.multiply(r0, m0, out=mq)
            mq += np.multiply(r1, m1, out=tmp)
            if order == 2:
                # vq = r0 v0 + r1 v1 + r0 r1 dm dm, dm = m1 - m0
                np.subtract(m1, m0, out=dm)
                np.multiply(r0, v0, out=vq)
                vq += np.multiply(r1, v1, out=tmp)
                np.multiply(r0, r1, out=tmp)
                tmp *= dm
                tmp *= dm
                vq += tmp
                var[:half] = vq
                var[half:] = vq
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
        if order == 2:
            # Var_t S = E_t (var + (mean - E_t S)^2)
            np.subtract(mean, out[1, i], out=d)
            d *= d
            d += var
            d *= p
            out[2, i] = d.sum(axis=0)
        np.add(top, np.log(z, out=z), out=out[0, i])
    if not np.all(np.isfinite(out)):
        raise PreconditionError("tilted pass is not finite; beta*(J,h) too large for the transfer data")
    if np.ndim(t) == 0:
        out = out[:, :, 0]
    return tuple(out)


def prefix_sum_range(k: int, fstar: FirstLayerObservable):
    """(lo, hi), each of shape (k+1,): the least and greatest value of
    S_i = sum_{j<=i} f* o theta_j over window paths, for i = 0..k.

    Every path of the chain has positive probability, so these are the limits
    of dP^i/dt as t -> -inf and t -> +inf.  A max-plus pass over the window
    states, run for f* and -f* at once.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    w = _window_width(fstar, _W_MAX)
    f = _window_values(fstar, w)
    f = np.stack([f, -f])[:, :, None]
    best = f
    out = np.empty((2, k + 1))
    for i in range(k + 1):
        if i:
            best = f + np.tile(_shift_predecessors(best, w).max(axis=-2), (1, 2, 1))
        out[:, i] = best.max(axis=(1, 2))
    return -out[1], out[0]
