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
from typing import Dict, Iterator, List, Mapping, Tuple

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

# Version of the map from (seed, replica, site) to uniforms, recorded in the
# sample sidecar.  Batches drawn under another version are not reproduced.
STREAM_VERSION = 2

# Row chunks of the sampler, the SMB statistic and the CSV writer hold about
# this many spins (one uniform each), which bounds their working memory.
_CHUNK_SPINS = 1 << 20


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """count independent draws of s_[1,N] under the infinite-volume measure.

    Reproducible under stream version 2: the layers of psi2 depth p share one
    Philox stream keyed by SeedSequence(entropy=seed, spawn_key=(2, p)), and
    replica c consumes the c-th run of L_p (p+1) doubles of it, L_p being
    the number of such layers.  So the batch is independent of evaluation
    order and extends consistently when count grows.  The binary header's
    version number is that of the file layout, not of the stream.
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
        """A header line site_1,...,site_N, then one line per replica of
        comma-separated spins, each "1" or "-1"."""
        rows = max(1, _CHUNK_SPINS // self.N)
        with open(path, "wb") as fh:
            fh.write((",".join(f"site_{i}" for i in range(1, self.N + 1)) + "\n").encode("ascii"))
            for start in range(0, self.count, rows):
                cfg = self.configurations[start:start + rows]
                # every spin as "-1" plus its separator; a plus spin drops the "-"
                tokens = np.empty(cfg.shape + (3,), dtype=np.uint8)
                tokens[...] = np.frombuffer(b"-1,", dtype=np.uint8)
                tokens[:, -1, 2] = ord("\n")
                keep = np.ones(tokens.shape, dtype=bool)
                keep[..., 0] = cfg == -1
                fh.write(tokens[keep].tobytes())


def _depth_classes(n: int) -> List[Tuple[int, np.ndarray]]:
    """(p, the odd r with psi2(r, n) = p in increasing order) for each depth
    p that has layers: the odd r in (n >> (p+1), n >> p]."""
    return [(p, np.arange(((n >> (p + 1)) + 1) | 1, (n >> p) + 1, 2))
            for p in layer_count_by_depth(n)]


def _class_blocks(classes, params, count: int,
                  seed: int) -> Iterator[Tuple[int, List[np.ndarray]]]:
    """Per chunk of consecutive replicas, its first replica and one
    spin-index block (True = minus) per depth class: block[c, i, j] is tau_i
    of the j-th layer of the class in replica start + c.  Each step of the
    chain is one select over all (replica, layer) pairs of the class."""
    td = _as_transfer(params)
    streams = [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_VERSION, p)))) for p, _ in classes]
    # tau_0 is minus where u >= pi(+), and a step from s is minus where
    # u >= Q(s, +): the select s ? (u >= Q(-,+)) : (u >= Q(+,+)) is taken as
    # (u >= Q(+,+)) ^ (s & flip), flip marking where the two comparisons differ
    thresholds = np.full((classes[-1][0] + 1, 1), td.Q[0, 0])
    thresholds[0] = td.pi[0]
    n = sum((p + 1) * r.size for p, r in classes)
    chunk = max(1, _CHUNK_SPINS // n)
    for start in range(0, count, chunk):
        rows = min(chunk, count - start)
        blocks = []
        for (p, r), stream in zip(classes, streams):
            u = stream.random((rows, p + 1, r.size))
            idx = u >= thresholds[:p + 1]
            flip = idx[:, 1:] ^ (u[:, 1:] >= td.Q[1, 0])
            for i in range(p):
                idx[:, i + 1] ^= np.bitwise_and(flip[:, i], idx[:, i], out=flip[:, i])
            blocks.append(idx)
        yield start, blocks


def _check_sample_size(n: int, count: int) -> None:
    if n < 1:
        raise ValueError("volume must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")


def sample(n: int, params: ModelParams, count: int, seed: int) -> SampleBatch:
    """Draw `count` configurations on [1, n]: each odd layer r runs its chain
    for psi2(r, n) + 1 sites, which land on the sites r * 2^i."""
    _check_sample_size(n, count)
    classes = _depth_classes(n)
    # column k of a chunk's concatenated class blocks holds site sites[k]
    sites = np.concatenate([(r[None, :] << np.arange(p + 1)[:, None]).ravel() for p, r in classes])
    column = np.empty(n, dtype=np.intp)
    column[sites - 1] = np.arange(n)
    configs = np.empty((count, n), dtype=np.int8)
    for start, blocks in _class_blocks(classes, params, count, seed):
        rows = blocks[0].shape[0]
        flat = np.concatenate([b.reshape(rows, -1) for b in blocks], axis=1)
        out = configs[start:start + rows]
        np.take(flat.view(np.int8), column, axis=1, out=out)
        out *= -2
        out += 1
    return SampleBatch(n, count, int(seed), params, configs)


def smb_estimate(n: int, params: ModelParams, count: int, seed: int) -> Tuple[float, float]:
    """Mean and standard error of -(1/n) log mu(s_[1,n]) over the batch that
    sample(n, params, count, seed) draws.

    The log-probability of each draw is exact: per layer it is
    log pi(tau_0) + sum log Q(tau_i, tau_{i+1}), so per replica it is the
    count of each initial state and each transition type times its log.
    """
    _check_sample_size(n, count)
    td = _as_transfer(params)
    classes = _depth_classes(n)
    layers = sum(r.size for _, r in classes)
    # per replica: minus initial states, minus states that a transition
    # leaves, minus states it enters, and minus-to-minus transitions
    counts = np.zeros((4, count), dtype=np.int64)
    for start, blocks in _class_blocks(classes, td, count, seed):
        part = counts[:, start:start + blocks[0].shape[0]]
        for idx in blocks:
            minus = idx.sum(axis=2)
            part[0] += minus[:, 0]
            part[1] += minus[:, :-1].sum(axis=1)
            part[2] += minus[:, 1:].sum(axis=1)
            part[3] += (idx[:, :-1] & idx[:, 1:]).sum(axis=(1, 2))
    m0, leave, enter, mm = counts
    k = np.stack([layers - m0, m0,                          # pi(+), pi(-)
                  n - layers - leave - enter + mm, enter - mm,  # Q(+,+), Q(+,-)
                  leave - mm, mm], axis=1)                  # Q(-,+), Q(-,-)
    w = np.concatenate([td.log_pi, td.log_Q.ravel()])
    values = -(k * w).sum(axis=1) / n
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
