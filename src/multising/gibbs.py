"""The infinite-volume multiplicative Ising measure.

Under it the layer spins tau^r_i = s_{r 2^i} are independent across odd r and
each layer is the Markov chain (pi, Q) from the transfer module.  Cylinder
probabilities therefore factor over layers; free energies, the
Kolmogorov-Sinai entropy and the Shannon-McMillan-Breiman statistic are all
weighted sums of per-layer chain quantities.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

from . import arith
from .errors import PreconditionError
from .ising1d import (
    BOUNDARY_CONDITIONS,
    ModelParams,
    _as_transfer,
    chain_marginal_logprob,
    log_partition_prefix,
    marginal_entropies,
)

__all__ = [
    "CylinderSpec",
    "SampleBatch",
    "MultInvarianceReport",
    "cylinder_logprob_sigma",
    "joint_law_logprobs",
    "free_energy",
    "finite_volume_log_partition",
    "ks_entropy",
    "ks_entropy_printed_variant",
    "ks_entropy_report",
    "sample",
    "smb_estimate",
    "check_mult_invariance",
]

LOG2 = math.log(2.0)


def _odd_part(site: int) -> Tuple[int, int]:
    v = (site & -site).bit_length() - 1
    return site >> v, v


def _odd_count(n: int) -> int:
    return (n + 1) // 2


@dataclass(frozen=True)
class CylinderSpec:
    """A finite assignment site -> spin, sites in N = {1, 2, ...}."""

    assignments: Tuple[Tuple[int, int], ...]

    @classmethod
    def of(cls, mapping: Mapping[int, int]) -> "CylinderSpec":
        if not mapping:
            raise ValueError("cylinder must assign at least one site")
        items = []
        for site, spin in sorted(mapping.items()):
            if not isinstance(site, int) or site < 1:
                raise ValueError(f"site {site!r} must be a positive integer")
            if spin not in (-1, 1):
                raise ValueError(f"spin {spin!r} must be +1 or -1")
            items.append((site, spin))
        return cls(tuple(items))


def cylinder_logprob_sigma(spec, params) -> float:
    """Exact log-probability of a finite cylinder.

    Sites are grouped by their odd part r; within each layer the assigned
    positions form a chain marginal whose unspecified gaps are summed via
    matrix powers; layers multiply (their logs add).
    """
    if isinstance(spec, Mapping):
        spec = CylinderSpec.of(spec)
    td = _as_transfer(params)
    layers: Dict[int, list] = {}
    for site, spin in spec.assignments:
        r, v = _odd_part(site)
        layers.setdefault(r, []).append((v, 0 if spin == 1 else 1))
    total = 0.0
    for r, items in layers.items():
        items.sort()
        positions = [v for v, _ in items]
        spins = [s for _, s in items]
        total += chain_marginal_logprob(positions, spins, td)
    return total


def joint_law_logprobs(sites, params) -> np.ndarray:
    """log-probabilities of all 2^k spin patterns on the given sites.

    Pattern index bit j set means site j carries spin -1 (bit clear: +1),
    matching the package spin-index convention.
    """
    sites = list(sites)
    k = len(sites)
    td = _as_transfer(params)
    out = np.empty(1 << k)
    for pattern in range(1 << k):
        assign = {
            site: -1 if (pattern >> j) & 1 else 1 for j, site in enumerate(sites)
        }
        out[pattern] = cylinder_logprob_sigma(assign, td)
    return out


# ---------------------------------------------------------------------------
# Free energies over the volume [1, 2N].
# ---------------------------------------------------------------------------


def _bc_sign(bc: str) -> float:
    return {"free": 0.0, "plus": 1.0, "minus": -1.0}[bc]


def _isolated_site_log_weight(params: ModelParams, bc: str, jbc: float) -> float:
    # odd sites in (N, 2N] are interaction-free; under plus/minus boundary
    # conditions they still couple to the boundary configuration.
    x = abs(params.beta * (params.h + _bc_sign(bc) * jbc))
    return x + math.log1p(math.exp(-2.0 * x))


def _resolve_jbc(params: ModelParams, bc_coupling: str) -> float:
    if bc_coupling not in ("J", "1"):
        raise ValueError("bc_coupling must be 'J' or '1'")
    return params.J if bc_coupling == "J" else 1.0


def layer_count_by_depth(n: int) -> Dict[int, int]:
    """Number of odd r <= n with psi2(r, n) = p, for each p."""
    counts = {}
    p = 0
    while (n >> p) >= 1:
        c = _odd_count(n >> p) - _odd_count(n >> (p + 1))
        if c:
            counts[p] = c
        p += 1
    return counts


def finite_volume_log_partition(n: int, params: ModelParams, bc: str = "free",
                                bc_coupling: str = "J") -> float:
    """Exact log Z over the volume [1, 2n] by layer factorization.

    A layer with psi2 = p contributes a chain with p+1 bonds (sites 0..p+1);
    odd sites in (n, 2n] are isolated single-site factors.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    jbc = _resolve_jbc(params, bc_coupling)
    counts = layer_count_by_depth(n)
    log_z = log_partition_prefix(max(counts) + 1, params.beta * params.J,
                                 params.beta * params.h, bc, params.beta * jbc)
    total = 0.0
    for p, c in counts.items():
        total += c * log_z[p + 1]
    n_iso = _odd_count(2 * n) - _odd_count(n)
    total += n_iso * _isolated_site_log_weight(params, bc, jbc)
    return float(total)


def free_energy(bc: str, params: ModelParams, tol: float = 1e-10,
                bc_coupling: str = "J") -> float:
    """lim (1/N) log Z^bc_N over the volume [1, 2N] (note the normalization
    by N, half the site count).

    Evaluated as sum_p 2^{-(p+2)} log Z_chain(p+1 bonds; bc) plus the
    isolated odd-site contribution (density 1/2 per unit N).  The result
    genuinely depends on the boundary condition.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    jbc = _resolve_jbc(params, bc_coupling)
    bond = params.beta * params.J
    field = params.beta * params.h
    bcb = params.beta * jbc if bc != "free" else 0.0
    # |log Z| of the chain with p+1 bonds is at most
    # (p+2) log 2 + (p+1) |bond| + (p+2) |field| + |bcb|
    growth = (2 * LOG2 + abs(bond) + 2 * abs(field) + abs(bcb),
              LOG2 + abs(bond) + abs(field), 0.0)
    depth = arith.dyadic_depth(tol, growth)
    log_z = log_partition_prefix(depth + 1, bond, field, bc, bcb)[1:]
    total = float(arith.dyadic_sum(log_z, growth)[0])
    return total + 0.5 * _isolated_site_log_weight(params, bc, jbc)


# ---------------------------------------------------------------------------
# Kolmogorov-Sinai entropy.
# ---------------------------------------------------------------------------


def _binary_entropy(a: float) -> float:
    if a <= 0.0 or a >= 1.0:
        return 0.0
    return -(a * math.log(a) + (1.0 - a) * math.log(1.0 - a))


def ks_entropy(params: ModelParams, mode: str = "series", tol: float = 1e-12) -> float:
    """Entropy lim -(1/N) E log mu(s_[1,N]) of the multiplicative measure,
    in nats.

    series     sum_k 2^{-(k+2)} * (entropy of the chain marginal on 0..k),
               truncated when the tail bound drops below tol.
    formula    H(pi)/2 + sum_{a,b} pi(a) R(a,b) H(Q(b,.)) with the resolvent
               R = sum_i 2^{-(i+2)} Q^i = (1/4)(I - Q/2)^{-1}; matrix powers,
               algebraically identical to the series for every h.
    closed_h0  (log 2)/2 + H(alpha)/2 with alpha = 1/(1 + e^{-2 beta J});
               valid only at h = 0.
    """
    if mode == "closed_h0":
        if params.h != 0.0:
            raise PreconditionError("closed_h0 entropy requires h = 0")
        alpha = 1.0 / (1.0 + math.exp(-2.0 * params.beta * params.J))
        return 0.5 * LOG2 + 0.5 * _binary_entropy(alpha)
    td = _as_transfer(params)
    if mode == "series":
        # the marginal entropy on sites 0..k is at most (k+1) log 2
        growth = (LOG2, LOG2, 0.0)
        depth = arith.dyadic_depth(tol, growth)
        return float(arith.dyadic_sum(marginal_entropies(depth, td), growth)[0])
    if mode == "formula":
        row_ent = -(td.Q * td.log_Q).sum(axis=1)
        resolvent = 0.25 * np.linalg.inv(np.eye(2) - 0.5 * td.Q)
        h_pi = float(-(td.pi * td.log_pi).sum())
        return 0.5 * h_pi + float(td.pi @ resolvent @ row_ent)
    raise ValueError(f"unknown entropy mode {mode!r}")


def ks_entropy_printed_variant(params: ModelParams) -> float:
    """The closed expression with entrywise powers Q(a,b)^k and a -1/2
    prefactor on the resolvent term, kept for comparison; it disagrees with
    the series (already at J = h = 0, where it returns (7/6) log 2)."""
    td = _as_transfer(params)
    r_pp = 0.5 / (1.0 - 0.5 * td.Q)
    h_pi = float(-(td.pi * td.log_pi).sum())
    term = 0.0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                term += td.pi[a] * r_pp[a, b] * td.Q[b, c] * td.log_Q[b, c]
    return 0.5 * h_pi - 0.5 * term


def ks_entropy_report(params: ModelParams, tol: float = 1e-12) -> Dict[str, float]:
    """All entropy routes side by side, with their deviations from the series
    (the ground truth).  closed_h0 is included only when h = 0."""
    series = ks_entropy(params, "series", tol)
    formula = ks_entropy(params, "formula")
    printed = ks_entropy_printed_variant(params)
    out = {
        "series": series,
        "formula": formula,
        "formula_minus_series": formula - series,
        "printed_variant": printed,
        "printed_minus_series": printed - series,
    }
    if params.h == 0.0:
        closed = ks_entropy(params, "closed_h0")
        out["closed_h0"] = closed
        out["closed_minus_series"] = closed - series
    return out


# ---------------------------------------------------------------------------
# Sampling.
# ---------------------------------------------------------------------------


_MAGIC = b"MISG"
_HEADER_V2 = struct.Struct("<4sIqqQddd")


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """count independent draws of s_[1,N] under the infinite-volume measure.

    Reproducible: the uniform stream of layer r is Philox-keyed by
    (seed, r); replica c consumes rows c of that layer's (count, chain)
    block, so the batch is independent of evaluation order and extends
    consistently when count grows.
    """

    N: int
    count: int
    seed: int
    params: ModelParams
    configurations: np.ndarray  # int8, shape (count, N), values +-1

    def save_binary(self, path) -> None:
        """Header v2 (56 bytes, little-endian): the magic b"MISG", uint32
        version 2, int64 N and count, uint64 seed, then beta, J and h as
        IEEE-754 doubles.  Payload: one byte per spin (0x00 = -1,
        0x01 = +1), replica-major."""
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed {self.seed} does not fit the unsigned 64-bit header field")
        header = _HEADER_V2.pack(_MAGIC, 2, self.N, self.count, self.seed,
                                 self.params.beta, self.params.J, self.params.h)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write((self.configurations == 1).astype(np.uint8).tobytes())

    @classmethod
    def load_binary(cls, path) -> "SampleBatch":
        """Read a v2 file, or a v1 file, whose 48-byte header holds N, count,
        seed, beta, J and h as six doubles."""
        with open(path, "rb") as fh:
            data = fh.read()
        v2 = data[:4] == _MAGIC
        if len(data) < (_HEADER_V2.size if v2 else 48):
            raise ValueError("sample file is shorter than its header")
        if v2:
            _, version, n, count, seed, beta, J, h = _HEADER_V2.unpack_from(data)
            if version != 2:
                raise ValueError(f"unsupported sample file version {version}")
            offset = _HEADER_V2.size
        else:
            n, count, seed, beta, J, h = struct.unpack_from("<6d", data)
            n, count, seed = int(n), int(count), int(seed)
            offset = 48
        payload = np.frombuffer(data, dtype=np.uint8, offset=offset)
        if payload.size != n * count:
            raise ValueError("payload size does not match header")
        configs = payload.reshape(count, n).astype(np.int8) * 2 - 1
        return cls(n, count, seed, ModelParams(beta, J, h), configs)

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(f"site_{i}" for i in range(1, self.N + 1)) + "\n")
            for row in self.configurations:
                fh.write(",".join(str(int(v)) for v in row) + "\n")


def _layer_rng(seed: int, r: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(r,))
    return np.random.Generator(np.random.Philox(ss))


def _iter_layer_chains(n: int, params, count: int, seed: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (r, spin-index matrix of shape (count, psi2(r,n)+1)) per layer."""
    td = _as_transfer(params)
    pi_plus = td.pi[0]
    q_plus = td.Q[:, 0]
    for r in range(1, n + 1, 2):
        length = arith.psi2(r, n) + 1
        u = _layer_rng(seed, r).random((count, length))
        idx = np.empty((count, length), dtype=np.int8)
        s = (u[:, 0] >= pi_plus).astype(np.int8)
        idx[:, 0] = s
        for i in range(1, length):
            s = (u[:, i] >= q_plus[s]).astype(np.int8)
            idx[:, i] = s
        yield r, idx


def sample(n: int, params: ModelParams, count: int, seed: int) -> SampleBatch:
    """Draw `count` configurations on [1, n]: each odd layer runs its chain
    for psi2(r, n) + 1 sites and scatters to sites r * 2^i."""
    if n < 1:
        raise ValueError("volume must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    configs = np.empty((count, n), dtype=np.int8)
    for r, idx in _iter_layer_chains(n, params, count, seed):
        site = r
        for i in range(idx.shape[1]):
            configs[:, site - 1] = 1 - 2 * idx[:, i]
            site *= 2
    return SampleBatch(n, count, int(seed), params, configs)


def smb_estimate(n: int, params: ModelParams, count: int, seed: int) -> Tuple[float, float]:
    """Mean and standard error of -(1/n) log mu(s_[1,n]) over a sampled batch.

    The log-probability of each draw is exact: per layer it is
    log pi(tau_0) + sum log Q(tau_i, tau_{i+1}), summed over layers.
    """
    td = _as_transfer(params)
    block = []
    partials = []
    for _, idx in _iter_layer_chains(n, td, count, seed):
        contrib = td.log_pi[idx[:, 0]]
        if idx.shape[1] > 1:
            contrib = contrib + td.log_Q[idx[:, :-1], idx[:, 1:]].sum(axis=1)
        block.append(contrib)
        if len(block) == 256:
            partials.append(np.sum(np.stack(block), axis=0))
            block = []
    if block:
        partials.append(np.sum(np.stack(block), axis=0))
    values = -np.sum(np.stack(partials), axis=0) / n
    mean = float(values.mean())
    if count > 1:
        stderr = float(values.std(ddof=1) / math.sqrt(count))
    else:
        stderr = 0.0
    return mean, stderr


# ---------------------------------------------------------------------------
# Multiplication invariance.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MultInvarianceReport:
    indices: Tuple[int, ...]
    multiplier: int
    logprob_before: np.ndarray
    logprob_after: np.ndarray
    max_abs_diff_prob: float
    max_abs_diff_logprob: float
    invariant: bool


def check_mult_invariance(indices, multiplier: int, params,
                          atol: float = 1e-10) -> MultInvarianceReport:
    """Compare the exact joint law of (s_{p_1}, ..., s_{p_k}) with that of
    (s_{m p_1}, ..., s_{m p_k}) over all 2^k spin patterns.

    Equality holds when the layer chain is shift-stationary (h = 0); a
    nonzero field breaks it, and the report flags the deviation instead of
    hiding it.
    """
    indices = tuple(sorted(set(int(i) for i in indices)))
    if not indices or indices[0] < 1:
        raise ValueError("indices must be positive integers")
    if multiplier < 1:
        raise ValueError("multiplier must be a positive integer")
    td = _as_transfer(params)
    before = joint_law_logprobs(indices, td)
    after = joint_law_logprobs([multiplier * i for i in indices], td)
    diff_prob = float(np.max(np.abs(np.exp(before) - np.exp(after))))
    diff_log = float(np.max(np.abs(before - after)))
    return MultInvarianceReport(
        indices=indices,
        multiplier=multiplier,
        logprob_before=before,
        logprob_after=after,
        max_abs_diff_prob=diff_prob,
        max_abs_diff_logprob=diff_log,
        invariant=diff_prob <= atol,
    )
