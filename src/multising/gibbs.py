"""The infinite-volume multiplicative Ising measure.

Under it the layer spins tau^r_i = s_{r 2^i} are independent across odd r and
each layer is the Markov chain (pi, Q) from the transfer module.  Cylinder
probabilities therefore factor over layers; free energies, the
Kolmogorov-Sinai entropy and the Shannon-McMillan-Breiman statistic are all
weighted sums of per-layer chain quantities.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Tuple

import numpy as np

from . import arith
from .errors import PreconditionError
from .ising1d import (
    BOUNDARY_CONDITIONS,
    _BC_SIGN,
    ModelParams,
    _as_transfer,
    _boundary_coupling,
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


def _isolated_site_log_weight(params: ModelParams, bc: str, jbc: float) -> float:
    # odd sites in (N, 2N] are interaction-free; under plus/minus boundary
    # conditions they still couple to the boundary configuration.
    x = abs(params.beta * (params.h + _BC_SIGN[bc] * jbc))
    return x + math.log1p(math.exp(-2.0 * x))


def finite_volume_log_partition(n: int, params: ModelParams, bc: str = "free",
                                bc_coupling: str = "J") -> float:
    """Exact log Z over the volume [1, 2n] by layer factorization.

    A layer with psi2 = p = j - 1 contributes a chain with p+1 bonds (sites
    0..p+1); odd sites in (n, 2n] are isolated single-site factors.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    jbc = _boundary_coupling(params, bc_coupling)
    counts = [(j - 1, c) for j, _, c in arith.layer_counts(n, arith.BASIS2) if c]
    log_z = log_partition_prefix(counts[-1][0] + 1, params.beta * params.J,
                                 params.beta * params.h, bc, params.beta * jbc)
    total = 0.0
    for p, c in counts:
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
    jbc = _boundary_coupling(params, bc_coupling)
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
STREAM_VERSION = 3

# Row chunks of the file writers hold about this many spins.  A depth class
# is drawn in chunks of about a quarter of it, and each worker reuses one
# scratch buffer of four such chunks.  This bounds the working memory.
_CHUNK_SPINS = 1 << 20


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """count independent draws of s_[1,N] under the infinite-volume measure.

    Reproducible under stream version 3.  The L_p layers of psi2 depth p
    share the class stream Philox(SeedSequence(entropy=seed,
    spawn_key=(3, p))): replica c reads its raw 64-bit words
    [c W_p, (c+1) W_p), W_p = ceil((p+1) L_p / 4), as 16-bit lanes, least
    significant first, and the first (p+1) L_p lanes are a[step, layer] in
    C order.  A spin is minus where u = (a + v) / 2^16 is at least its
    threshold theta, which a decides alone unless a = floor(2^16 theta) for
    a threshold the spin is compared with (pi(+) at step 0, Q(+,+) or
    Q(-,+) after it).  Only there is v drawn: one double per tied spin, in
    (replica, step, layer) order, from the class's tie stream
    spawn_key=(3, p, 1).  So the batch is independent of evaluation order
    and of chunking, and extends consistently when count grows.  Each class
    is drawn in its own row chunks, and the classes run on one thread per
    CPU available to the process; the batch does not depend on the number
    of threads.  Batches drawn under version 2 (one double per spin) are
    not reproduced.  The binary header's version number is that of the file
    layout, not of the stream.
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
        rows = max(1, _CHUNK_SPINS // self.N)
        with open(path, "wb") as fh:
            fh.write(header)
            for start in range(0, self.count, rows):
                fh.write((self.configurations[start:start + rows] == 1).view(np.uint8))

    @classmethod
    def load_binary(cls, path) -> "SampleBatch":
        """Read a v2 file, or a v1 file, whose 48-byte header holds N, count,
        seed, beta, J and h as six doubles."""
        with open(path, "rb") as fh:
            head = fh.read(_HEADER_V2.size)
            v2 = head[:4] == _MAGIC
            if len(head) < (_HEADER_V2.size if v2 else 48):
                raise ValueError("sample file is shorter than its header")
            if v2:
                _, version, n, count, seed, beta, J, h = _HEADER_V2.unpack(head)
                if version != 2:
                    raise ValueError(f"unsupported sample file version {version}")
                offset = _HEADER_V2.size
            else:
                n, count, seed, beta, J, h = struct.unpack_from("<6d", head)
                n, count, seed = int(n), int(count), int(seed)
                offset = 48
            if os.fstat(fh.fileno()).st_size - offset != n * count:
                raise ValueError("payload size does not match header")
            fh.seek(offset)
            payload = np.fromfile(fh, dtype=np.uint8, count=n * count)
        # 0x00 -> -1 and 0x01 -> +1 in place, as int8
        configs = payload.view(np.int8).reshape(count, n)
        configs *= 2
        configs -= 1
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
    p = j - 1 that has layers: the odd r in (n >> (p+1), n >> p]."""
    return [(j - 1, np.arange(((n >> j) + 1) | 1, (n >> (j - 1)) + 1, 2))
            for j, _, c in arith.layer_counts(n, arith.BASIS2) if c]


def _lane_split(theta: float) -> Tuple[int, float]:
    """(A, f) with 2^16 theta = A + f and A = floor(2^16 theta), both exact.
    A is a Python int: theta = 1.0 gives A = 65536, which no lane reaches."""
    x = math.ldexp(theta, 16)
    lane = math.floor(x)
    return lane, x - lane


def _at_least(a, v, theta: float):
    """Whether u = (a + v) / 2^16 >= theta, for 16-bit lanes a and doubles
    v in [0, 1): a decides alone unless a = A, and there v >= f decides."""
    lane, frac = _lane_split(theta)
    return (a > lane) | ((a == lane) & (v >= frac))


def _class_streams(p: int, seed: int):
    """The lane stream and the tie stream of depth class p."""
    return (np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_VERSION, p))),
            np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(STREAM_VERSION, p, 1)))))


def _chunk_rows(width: int, count: int) -> int:
    """Replicas per chunk of a depth class of `width` spins per replica:
    about _CHUNK_SPINS / 4 spins, and at least one replica."""
    return min(count, max(1, (_CHUNK_SPINS >> 2) // width))


def _class_blocks(p: int, layers: int, td, count: int, streams,
                  scratch: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Depth class p, of `layers` layers, in chunks of _chunk_rows
    consecutive replicas: per chunk, its first replica and its spin-index
    block (True = minus), block[c, i, j] = tau_i of the j-th layer of the
    class in replica start + c.  Each step of the chain is one select over
    all (replica, layer) pairs of the chunk.  The class reads only its own
    `streams` (from _class_streams), in replica order, so classes may be
    drawn in any order and on any thread.  The block is a view of
    `scratch`, a bool buffer of at least four chunks, and holds only until
    the next chunk is drawn."""
    # tau_0 is minus where u >= pi(+), and a step from s is minus where
    # u >= Q(s, +): the select s ? (u >= Q(-,+)) : (u >= Q(+,+)) is taken as
    # (u >= Q(+,+)) ^ (s & flip), flip marking where the two comparisons differ
    first, stay, leave = float(td.pi[0]), float(td.Q[0, 0]), float(td.Q[1, 0])
    lane0, lane_stay, lane_leave = (_lane_split(x)[0] for x in (first, stay, leave))
    lanes, tie_stream = streams
    width = (p + 1) * layers
    chunk = _chunk_rows(width, count)
    for start in range(0, count, chunk):
        rows = min(chunk, count - start)
        # replica c reads the lanes of raw words [c W, (c+1) W), least
        # significant first (a big-endian host swaps bytes), as
        # (slot, layer) in C order
        words = lanes.random_raw(rows * -(-width // 4)).astype("<u8", copy=False)
        a = words.view("<u2").reshape(rows, -1)[:, :width].reshape(rows, p + 1, layers)
        moves = rows * p * layers
        idx, tie = scratch[:2 * a.size].reshape(2, *a.shape)
        flip, equal = scratch[2 * a.size:2 * (a.size + moves)].reshape(2, rows, p, layers)
        np.greater(a[:, 0], lane0, out=idx[:, 0])
        np.equal(a[:, 0], lane0, out=tie[:, 0])
        np.greater(a[:, 1:], lane_stay, out=idx[:, 1:])
        np.equal(a[:, 1:], lane_stay, out=tie[:, 1:])
        np.greater(a[:, 1:], lane_leave, out=flip)
        tie[:, 1:] |= np.equal(a[:, 1:], lane_leave, out=equal)
        # one tie double per tied spin, in (replica, slot, layer) order
        hits = np.flatnonzero(tie)
        if hits.size:
            c, i, j = np.unravel_index(hits, a.shape)
            at, v = a[c, i, j], tie_stream.random(hits.size)
            later = i > 0
            idx[c, i, j] = np.where(later, _at_least(at, v, stay), _at_least(at, v, first))
            flip[c[later], i[later] - 1, j[later]] = _at_least(at[later], v[later], leave)
        flip ^= idx[:, 1:]
        for i in range(p):
            idx[:, i + 1] ^= np.bitwise_and(flip[:, i], idx[:, i], out=flip[:, i])
        yield start, idx


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _class_groups(n: int, count: int, seed: int) -> List[Tuple[list, np.ndarray]]:
    """The depth classes of [1, n] split into one group per worker, as
    (classes, scratch): classes a list of (p, r, streams), scratch the
    buffer that their _class_blocks share.  The classes go greedily to the
    least loaded group, most spins (p+1) L_p first.  Streams and buffers
    are made here, in the calling thread: under glibc, what a worker thread
    allocates stays in that thread's malloc arena after the thread ends."""
    classes = sorted(_depth_classes(n), key=lambda c: -(c[0] + 1) * c[1].size)
    groups = [[] for _ in range(min(_worker_count(), len(classes)))]
    loads = [0] * len(groups)
    for p, r in classes:
        k = loads.index(min(loads))
        groups[k].append((p, r, _class_streams(p, seed)))
        loads[k] += (p + 1) * r.size
    widths = [[(p + 1) * r.size for p, r, _ in g] for g in groups]
    return [(g, np.empty(4 * max(_chunk_rows(w, count) * w for w in ws), dtype=bool))
            for g, ws in zip(groups, widths)]


def _on_workers(run, items) -> None:
    """run(item) for each item, the first in the calling thread and each
    other on a thread of its own.  Every stream is read by one worker only,
    so the draws do not depend on the number of workers; the pool is shut
    down before this returns, and the first error raised reaches the
    caller."""
    items = list(items)
    if len(items) == 1:
        run(items[0])
        return
    # imported here, so that a run that samples nothing does not load it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(items) - 1) as pool:
        futures = [pool.submit(run, item) for item in items[1:]]
        run(items[0])
        for f in futures:
            f.result()


def _check_sample_size(n: int, count: int) -> None:
    if n < 1:
        raise ValueError("volume must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")


def sample(n: int, params: ModelParams, count: int, seed: int) -> SampleBatch:
    """Draw `count` configurations on [1, n]: each odd layer r runs its chain
    for psi2(r, n) + 1 sites, which land on the sites r * 2^i."""
    _check_sample_size(n, count)
    td = _as_transfer(params)
    configs = np.empty((count, n), dtype=np.int8)

    def draw(group):
        classes, scratch = group
        for p, r, streams in classes:
            for start, idx in _class_blocks(p, r.size, td, count, streams, scratch):
                out = configs[start:start + idx.shape[0]]
                minus = idx.view(np.int8)  # a byte copy: a cast from bool is slower
                # step i of the class lands on the sites r 2^i: column
                # (r_0 << i) - 1, then every (2 << i)-th
                for i in range(p + 1):
                    out[:, (int(r[0]) << i) - 1:(int(r[-1]) << i):2 << i] = minus[:, i]

    _on_workers(draw, _class_groups(n, count, seed))
    # 1 (minus) -> -1 and 0 (plus) -> +1, once over the whole batch
    configs *= -2
    configs += 1
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
    groups = _class_groups(n, count, seed)
    # per group and replica: minus initial states, minus states that a
    # transition leaves, minus states it enters, and minus-to-minus
    # transitions
    counts = np.zeros((len(groups), 4, count), dtype=np.int64)

    def tally(k):
        classes, scratch = groups[k]
        for p, r, streams in classes:
            for start, idx in _class_blocks(p, r.size, td, count, streams, scratch):
                part = counts[k, :, start:start + idx.shape[0]]
                # sum 0/1 bytes into int32: bools would widen to int64
                ones = idx.view(np.uint8)
                minus = np.add.reduce(ones, axis=(1, 2), dtype=np.int32)
                first = np.add.reduce(ones[:, 0], axis=1, dtype=np.int32)
                part[0] += first
                part[1] += minus - np.add.reduce(ones[:, -1], axis=1, dtype=np.int32)
                part[2] += minus - first
                part[3] += np.add.reduce(ones[:, :-1] & ones[:, 1:], axis=(1, 2), dtype=np.int32)

    _on_workers(tally, range(len(groups)))
    m0, leave, enter, mm = counts.sum(axis=0)
    layers = _odd_count(n)
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
