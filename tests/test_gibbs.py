import hashlib
import math
import struct
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multising import gibbs, ising1d
from multising.errors import PreconditionError
from multising.gibbs import CylinderSpec, SampleBatch
from multising.ising1d import ModelParams

import oracles

P_UNIT = ModelParams(1.0, 1.0, 0.0)
P_FREE = ModelParams(0.0, 1.0, 0.0)

params_st = st.builds(
    ModelParams, beta=st.floats(-1.5, 1.5), J=st.floats(-1.5, 1.5), h=st.floats(-1.5, 1.5)
)


class TestCylinders:
    def test_single_site(self):
        assert gibbs.cylinder_logprob_sigma({1: 1}, P_UNIT) == pytest.approx(
            math.log(0.5), abs=1e-14
        )

    def test_same_layer_pair(self):
        lp = gibbs.cylinder_logprob_sigma({1: 1, 2: 1}, P_UNIT)
        assert lp == pytest.approx(math.log(0.5 * 0.8807970779778823), abs=1e-9)

    def test_cross_layer_independence(self):
        # sites 3 and 4 lie on different layers: independent, and uniform at h=0
        lp = gibbs.cylinder_logprob_sigma({3: 1, 4: 1}, P_UNIT)
        assert lp == pytest.approx(math.log(0.25), abs=1e-13)
        assert lp != gibbs.cylinder_logprob_sigma({1: 1, 2: 1}, P_UNIT)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CylinderSpec.of({})
        with pytest.raises(ValueError):
            CylinderSpec.of({0: 1})
        with pytest.raises(ValueError):
            CylinderSpec.of({1: 2})

    @settings(max_examples=100, deadline=None)
    @given(
        params_st,
        st.dictionaries(st.integers(1, 64), st.sampled_from((-1, 1)), min_size=1, max_size=4),
        st.integers(1, 64),
    )
    def test_marginalization_consistency(self, params, assignments, extra_site):
        if extra_site in assignments:
            return
        base = gibbs.cylinder_logprob_sigma(assignments, params)
        total = 0.0
        for spin in (1, -1):
            ext = dict(assignments)
            ext[extra_site] = spin
            total += math.exp(gibbs.cylinder_logprob_sigma(ext, params))
        assert total == pytest.approx(math.exp(base), abs=1e-12)


class TestFreeEnergy:
    def test_infinite_temperature(self):
        assert gibbs.free_energy("free", ModelParams(0.0, 1.0, 0.0), 1e-11) == pytest.approx(
            2 * math.log(2), abs=1e-10
        )

    def test_boundary_dependence(self):
        fp = gibbs.free_energy("plus", P_UNIT)
        ff = gibbs.free_energy("free", P_UNIT)
        fm = gibbs.free_energy("minus", P_UNIT)
        assert fp > ff
        assert fp == fm

    def test_series_depth_known_answer(self, monkeypatch):
        # the plus tail 2^-(K+2) (c0 + c1 (K+2)) first drops below 1e-10 at K = 38
        calls = []

        def spy(n_bonds, *args):
            calls.append(n_bonds)
            return ising1d.log_partition_prefix(n_bonds, *args)

        monkeypatch.setattr(gibbs, "log_partition_prefix", spy)
        gibbs.free_energy("plus", P_UNIT, 1e-10)
        assert calls == [38 + 1]

    def test_overflowing_coupling_is_a_precondition_error(self):
        for bc in ("free", "plus", "minus"):
            with pytest.raises(PreconditionError):
                gibbs.free_energy(bc, ModelParams(1e200, 1e200, 0.0))

    def test_zero_field_closed_form(self):
        # at h=0 every finite volume already attains the limit:
        # f = 2 log 2 + log cosh(beta J)
        for bj in (0.3, 1.0, 2.0):
            f = gibbs.free_energy("free", ModelParams(1.0, bj, 0.0), 1e-12)
            assert f == pytest.approx(2 * math.log(2) + math.log(math.cosh(bj)), abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(params_st, st.sampled_from(["free", "plus", "minus"]), st.integers(1, 3))
    def test_layer_factorization_matches_hamiltonian(self, params, bc, n):
        # exhaustive check of the bond bookkeeping: chains of psi2+1 bonds
        # plus isolated odd sites in (n, 2n], boundary-tilted for +-
        a = gibbs.finite_volume_log_partition(n, params, bc)
        b = oracles.multiplicative_log_partition(n, params, bc)
        assert a == pytest.approx(b, abs=1e-11)

    def test_series_converges_to_finite_volume(self):
        params = ModelParams(0.7, 1.2, 0.4)
        f_lim = gibbs.free_energy("free", params, 1e-12)
        prev = None
        for k in range(4, 11):
            n = 1 << k
            d = abs(gibbs.finite_volume_log_partition(n, params, "free") / n - f_lim)
            if prev is not None:
                assert d <= prev
            prev = d
        assert prev <= 1e-7


class TestKsEntropy:
    def test_product_measure_gives_log2(self):
        p = ModelParams(1.0, 0.0, 0.0)
        assert gibbs.ks_entropy(p, "closed_h0") == math.log(2)
        assert gibbs.ks_entropy(p, "formula") == pytest.approx(math.log(2), abs=1e-14)
        assert gibbs.ks_entropy(p, "series", 1e-12) == pytest.approx(math.log(2), abs=1e-10)

    @pytest.mark.parametrize("bj", [20.0, 25.0, 100.0, 700.0])
    def test_low_temperature_closed_form(self, bj):
        # Q(+,-) is e^{-2 beta J} down to e^{-1400}
        p = ModelParams(1.0, bj, 0.0)
        closed = gibbs.ks_entropy(p, "closed_h0")
        assert gibbs.ks_entropy(p, "series") == pytest.approx(closed, abs=1e-12)
        assert gibbs.ks_entropy(p, "formula") == pytest.approx(closed, abs=1e-12)

    def test_mode_agreement_on_grid(self):
        for bj in (0.0, 0.5, 1.5, 3.0):
            p = ModelParams(1.0, bj, 0.0)
            c = gibbs.ks_entropy(p, "closed_h0")
            assert gibbs.ks_entropy(p, "series", 1e-11) == pytest.approx(c, abs=1e-10)
            assert gibbs.ks_entropy(p, "formula") == pytest.approx(c, abs=1e-12)

    def test_series_depth_known_answer(self, monkeypatch):
        # the tail log 2 (K+3) 2^-(K+2) first drops below 1e-12 at K = 43
        calls = []

        def spy(k, params):
            calls.append(k)
            return ising1d.marginal_entropies(k, params)

        monkeypatch.setattr(gibbs, "marginal_entropies", spy)
        gibbs.ks_entropy(P_UNIT, "series", 1e-12)
        assert calls == [43]

    def test_frozen_layer_limit(self):
        assert gibbs.ks_entropy(ModelParams(20.0, 1.0, 0.0), "closed_h0") == pytest.approx(
            0.5 * math.log(2), abs=1e-6
        )

    def test_closed_requires_zero_field(self):
        with pytest.raises(PreconditionError):
            gibbs.ks_entropy(ModelParams(1.0, 1.0, 0.1), "closed_h0")

    def test_formula_matches_series_off_symmetry(self):
        p = ModelParams(0.9, 1.3, 0.6)
        assert gibbs.ks_entropy(p, "formula") == pytest.approx(
            gibbs.ks_entropy(p, "series", 1e-12), abs=1e-10
        )

    def test_printed_variant_documented_mismatch(self):
        p = ModelParams(1.0, 0.0, 0.0)
        printed = gibbs.ks_entropy_printed_variant(p)
        assert printed == pytest.approx(7 * math.log(2) / 6, abs=1e-12)
        assert abs(printed - math.log(2)) > 0.1

    def test_report_keys(self):
        rep = gibbs.ks_entropy_report(P_UNIT, 1e-11)
        assert {"series", "formula", "printed_variant", "closed_h0"} <= set(rep)
        assert abs(rep["formula_minus_series"]) <= 1e-10
        rep_h = gibbs.ks_entropy_report(ModelParams(1.0, 1.0, 0.4), 1e-11)
        assert "closed_h0" not in rep_h


class TestSampler:
    def test_single_site_law(self):
        p = ModelParams(1.0, 1.0, 0.8)
        batch = gibbs.sample(1, p, 100_000, 7)
        from multising.ising1d import transfer

        target = transfer(p).pi[0]
        emp = float(np.mean(batch.configurations[:, 0] == 1))
        se = math.sqrt(target * (1 - target) / batch.count)
        assert abs(emp - target) <= 4 * se

    def test_single_marginal_stationarity(self):
        batch = gibbs.sample(12, P_UNIT, 40_000, 11)
        means = batch.configurations.mean(axis=0)
        assert np.max(np.abs(means)) <= 4.0 / math.sqrt(batch.count)

    def test_cylinder_frequencies_match_exact_law(self):
        count = 100_000
        batch = gibbs.sample(6, P_UNIT, count, 13)
        cfg = batch.configurations
        lps = gibbs.joint_law_logprobs(range(1, 7), P_UNIT)
        bits = (cfg == -1).astype(np.int64)
        codes = (bits * (1 << np.arange(6))[None, :]).sum(axis=1)
        freq = np.bincount(codes, minlength=64) / count
        for pattern in range(64):
            p_exact = math.exp(lps[pattern])
            se = math.sqrt(p_exact * (1 - p_exact) / count)
            assert abs(freq[pattern] - p_exact) <= 4 * se + 1e-12

    def test_reproducible_and_seed_sensitive(self):
        a = gibbs.sample(16, P_UNIT, 500, 42)
        b = gibbs.sample(16, P_UNIT, 500, 42)
        c = gibbs.sample(16, P_UNIT, 500, 43)
        assert np.array_equal(a.configurations, b.configurations)
        assert not np.array_equal(a.configurations, c.configurations)

    def test_replica_prefix_stability(self):
        small = gibbs.sample(16, P_UNIT, 100, 42)
        large = gibbs.sample(16, P_UNIT, 250, 42)
        assert np.array_equal(small.configurations, large.configurations[:100])

    def test_binary_round_trip(self, tmp_path):
        batch = gibbs.sample(10, ModelParams(0.8, 1.1, -0.2), 37, 99)
        path = tmp_path / "batch.bin"
        batch.save_binary(path)
        back = SampleBatch.load_binary(path)
        assert back.N == batch.N and back.count == batch.count and back.seed == batch.seed
        assert back.params == batch.params
        assert np.array_equal(back.configurations, batch.configurations)
        assert path.stat().st_size == 56 + 10 * 37

    def test_binary_seed_above_2_53(self, tmp_path):
        seed = (1 << 60) + 1  # a double would read back 2^60
        batch = gibbs.sample(6, P_UNIT, 4, seed)
        path = tmp_path / "batch.bin"
        batch.save_binary(path)
        back = SampleBatch.load_binary(path)
        assert back.seed == seed
        assert np.array_equal(back.configurations, batch.configurations)

    def test_binary_seed_outside_uint64(self, tmp_path):
        batch = gibbs.sample(4, P_UNIT, 2, 1 << 64)
        with pytest.raises(ValueError, match="seed"):
            batch.save_binary(tmp_path / "batch.bin")
        assert not (tmp_path / "batch.bin").exists()

    def test_loads_version_1_files(self, tmp_path):
        batch = gibbs.sample(5, ModelParams(0.7, -1.0, 0.3), 3, 12)
        path = tmp_path / "v1.bin"
        path.write_bytes(struct.pack("<6d", 5.0, 3.0, 12.0, 0.7, -1.0, 0.3)
                         + (batch.configurations == 1).astype(np.uint8).tobytes())
        back = SampleBatch.load_binary(path)
        assert (back.N, back.count, back.seed) == (5, 3, 12)
        assert back.params == batch.params
        assert np.array_equal(back.configurations, batch.configurations)

    def test_short_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"MISG\x02\x00")
        with pytest.raises(ValueError):
            SampleBatch.load_binary(path)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_payload_of_the_wrong_size_is_a_value_error(self, tmp_path, extra):
        batch = gibbs.sample(10, P_UNIT, 4, 1)
        data = _whole_batch_binary(batch)
        path = tmp_path / "batch.bin"
        path.write_bytes(data[:extra] if extra < 0 else data + b"\x01")
        with pytest.raises(ValueError, match="payload"):
            SampleBatch.load_binary(path)

    @pytest.mark.parametrize("shape", [(1, 1), (37, 10), (5, 300)])
    @pytest.mark.parametrize("chunk", [None, 25])
    def test_binary_bytes_match_the_whole_batch_writer(self, tmp_path, monkeypatch, shape, chunk):
        if chunk is not None:  # chunks of 25 spins: one row of 300, or two rows of 10
            monkeypatch.setattr(gibbs, "_CHUNK_SPINS", chunk)
        count, n = shape
        cfg = np.where(np.random.default_rng(count * n).random(shape) < 0.5, -1, 1).astype(np.int8)
        batch = SampleBatch(n, count, 3, ModelParams(0.8, 1.1, -0.2), cfg)
        path = tmp_path / "batch.bin"
        batch.save_binary(path)
        assert path.read_bytes() == _whole_batch_binary(batch)
        assert np.array_equal(SampleBatch.load_binary(path).configurations, cfg)

    def test_load_binary_holds_one_byte_per_spin(self, tmp_path):
        # a 4096 x 400 file: reading it whole and converting by copies
        # needs about four times its payload
        n, count = 4096, 400
        path = tmp_path / "batch.bin"
        gibbs.sample(n, P_UNIT, count, 2).save_binary(path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            back = SampleBatch.load_binary(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert back.configurations.shape == (count, n)
        assert peak <= n * count + 2**16

    def test_csv_export(self, tmp_path):
        batch = gibbs.sample(4, P_UNIT, 3, 5)
        path = tmp_path / "batch.csv"
        batch.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "site_1,site_2,site_3,site_4"
        assert len(lines) == 4
        assert set(lines[1].split(",")) <= {"1", "-1"}

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 7), (37, 10)])
    @pytest.mark.parametrize("chunk", [None, 25])
    def test_csv_matches_per_spin_formatter(self, tmp_path, monkeypatch, shape, chunk):
        if chunk is not None:  # chunks of 25 spins: 37 rows of 10 take 19 chunks
            monkeypatch.setattr(gibbs, "_CHUNK_SPINS", chunk)
        count, n = shape
        cfg = np.where(np.random.default_rng(count * n).random(shape) < 0.5, -1, 1).astype(np.int8)
        path = tmp_path / "batch.csv"
        SampleBatch(n, count, 1, P_UNIT, cfg).save_csv(path)
        want = ",".join(f"site_{i}" for i in range(1, n + 1)) + "\n"
        want += "".join(",".join(str(int(v)) for v in row) + "\n" for row in cfg)
        assert path.read_bytes() == want.encode("ascii")


def _reference_sample(n, params, count, seed):
    """Stream contract v3 site by site.  The layers of depth p share the
    class stream SeedSequence(entropy=seed, spawn_key=(3, p)); replica c
    reads raw words [c W, (c+1) W), W = ceil((p+1) L_p / 4), as 16-bit lanes
    taken least significant first, and lane i L_p + j is a for step i of
    layer j.  A spin is tied where a = floor(2^16 theta) for a threshold it
    may be compared with: pi(+) at step 0, Q(+,+) or Q(-,+) after it.  Each
    tied spin, in (replica, step, layer) order, takes the next double v of
    the tie stream spawn_key=(3, p, 1), and is decided by (a + v) / 2^16 >=
    theta in exact rationals; an untied spin is decided by a alone.

    Returns the configurations and the step of every tied spin."""
    td = ising1d.transfer(params)
    first, stay, leave = (Fraction(float(x)) * 65536 for x in (td.pi[0], td.Q[0, 0], td.Q[1, 0]))
    cfg = np.empty((count, n), dtype=np.int8)
    tie_steps = []
    for p in range(n.bit_length()):
        layers = [r for r in range(1, n + 1, 2) if r << p <= n < r << (p + 1)]
        if not layers:
            continue
        width = (p + 1) * len(layers)
        run = -(-width // 4)
        words = np.random.Philox(np.random.SeedSequence(
            entropy=seed, spawn_key=(3, p))).random_raw(count * run).tolist()
        tie_stream = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(3, p, 1))))
        for c in range(count):
            lanes = [words[c * run + k // 4] >> (16 * (k % 4)) & 0xFFFF for k in range(width)]
            a = [lanes[i * len(layers):(i + 1) * len(layers)] for i in range(p + 1)]
            v = {}
            for i in range(p + 1):
                lanes_at = {math.floor(first)} if i == 0 else {math.floor(stay), math.floor(leave)}
                for j in range(len(layers)):
                    if a[i][j] in lanes_at:
                        v[i, j] = Fraction(tie_stream.random())
                        tie_steps.append(i)
            for j, r in enumerate(layers):
                s = 0
                for i in range(p + 1):
                    theta = first if i == 0 else (stay, leave)[s]
                    if (i, j) in v:
                        s = int(a[i][j] + v[i, j] >= theta)
                    else:
                        s = int(a[i][j] > math.floor(theta))
                    cfg[c, (r << i) - 1] = 1 - 2 * s
    return cfg, tie_steps


def _whole_batch_binary(batch):
    """The bytes of a .bin file as first written, from whole-batch copies."""
    header = struct.pack("<4sIqqQddd", b"MISG", 2, batch.N, batch.count, batch.seed,
                         batch.params.beta, batch.params.J, batch.params.h)
    return header + (batch.configurations == 1).astype(np.uint8).tobytes()


class TestStreamContract:
    P = ModelParams(0.8, 1.1, -0.2)

    def test_known_answer(self):
        rows = ["----------+-", "----+-+-----", "--+---+-----"]
        want = np.array([[1 if ch == "+" else -1 for ch in row] for row in rows], dtype=np.int8)
        assert np.array_equal(gibbs.sample(12, self.P, 3, 2026).configurations, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 37, 64])
    def test_matches_site_by_site_reference(self, n):
        got = gibbs.sample(n, self.P, 7, 2026).configurations
        assert np.array_equal(got, _reference_sample(n, self.P, 7, 2026)[0])

    def test_block_boundaries_do_not_move_the_stream(self, monkeypatch):
        batch = gibbs.sample(300, self.P, 9, 5).configurations
        smb = gibbs.smb_estimate(300, self.P, 9, 5)
        monkeypatch.setattr(gibbs, "_CHUNK_SPINS", 1)  # one replica per chunk
        assert np.array_equal(gibbs.sample(300, self.P, 9, 5).configurations, batch)
        assert gibbs.smb_estimate(300, self.P, 9, 5) == smb

    def test_prefix_across_chunks(self, monkeypatch):
        monkeypatch.setattr(gibbs, "_CHUNK_SPINS", 3 * 64)  # class chunks of 3 to 6 replicas
        small = gibbs.sample(64, self.P, 100, 42)
        large = gibbs.sample(64, self.P, 250, 42)
        assert np.array_equal(small.configurations, large.configurations[:100])

    # At N = 4096 a replica meets about 0.09 ties, two thirds of them after
    # step 0, so 600 replicas meet some 55 and a fault in the tie order
    # shows; the tests above meet about 0.3 ties each.
    def test_site_by_site_reference_where_ties_occur(self):
        want, tie_steps = _reference_sample(4096, self.P, 10, 6)
        assert any(i >= 1 for i in tie_steps)
        assert np.array_equal(gibbs.sample(4096, self.P, 10, 6).configurations, want)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_prefix_where_ties_occur(self, monkeypatch, seed):
        # the 600 replicas are drawn in the default class chunks, 256 rows for
        # the two largest classes
        n = 4096
        full = gibbs.sample(n, self.P, 600, seed).configurations
        for rows in (1, 3, 7):
            monkeypatch.setattr(gibbs, "_CHUNK_SPINS", rows * n)
            for k in (10, 257):
                assert np.array_equal(gibbs.sample(n, self.P, k, seed).configurations, full[:k])


class _WorkerError(Exception):
    pass


class TestWorkers:
    """Depth classes are drawn on worker threads; the batch and the SMB
    statistic must not depend on how many."""

    # (N, point, count, seed), the SHA-256 of the configuration bytes and
    # the SMB (mean, se) as float.hex, all recorded from the single-threaded
    # sampler that stepped every class in shared row chunks
    PINS = [
        ((1000, (0.8, 1.1, -0.2), 300, 11),
         "322d363878a54625c75adf88b7ed0f8281f2db09508b5dbd23bec36f5be01633",
         ("0x1.cf0943bee1152p-2", "0x1.35b632048d328p-10")),
        ((4096, (1.0, 1.0, 0.2), 200, 12),
         "45e92203b24ba4746aa51a8f4b1d671e026d377f610f6f31579569bd390a592d",
         ("0x1.74a72c3086369p-2", "0x1.97ee32d3a4092p-11")),
        ((4096, (1.0, 25.0, 0.0), 200, 13),
         "506eceb6def128329d3687e9689afeec38d1f875197c488d83a974e8cb3e537e",
         ("0x1.62e42fefa39eep-2", "0x1.225b94f39da50p-58")),
        ((1000, (1.0, 25.0, 0.0), 300, 14),
         "bd0fd0fca9cdbe9b13c459503ab3d9d28a540fc571ec37bb5dbf7976bdcd0584",
         ("0x1.62e42fefa39f1p-2", "0x1.25f52637a0c30p-58")),
    ]

    @pytest.mark.parametrize("case, digest, smb", PINS, ids=["n1000", "n4096", "n4096-bj25", "n1000-bj25"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_batches_do_not_depend_on_the_worker_count(self, monkeypatch, case, digest, smb, workers):
        n, point, count, seed = case
        params = ModelParams(*point)
        # class chunks of 1024 spins: every class of these batches takes
        # more than one chunk
        monkeypatch.setattr(gibbs, "_CHUNK_SPINS", 1 << 12)
        monkeypatch.setattr(gibbs, "_worker_count", lambda: workers)
        drawn_on = set()
        blocks = gibbs._class_blocks

        def recorded(*args):
            drawn_on.add(threading.get_ident())
            return blocks(*args)

        monkeypatch.setattr(gibbs, "_class_blocks", recorded)
        threads = threading.active_count()
        cfg = gibbs.sample(n, params, count, seed).configurations
        assert threading.active_count() == threads
        assert len(drawn_on) == workers
        assert hashlib.sha256(cfg.tobytes()).hexdigest() == digest
        assert tuple(v.hex() for v in gibbs.smb_estimate(n, params, count, seed)) == smb
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, 3])
    def test_an_error_in_a_worker_reaches_the_caller(self, monkeypatch, workers):
        monkeypatch.setattr(gibbs, "_worker_count", lambda: workers)
        blocks = gibbs._class_blocks

        def failing(p, *args):
            for start, idx in blocks(p, *args):
                if p == 2:
                    raise _WorkerError(f"depth {p}")
                yield start, idx

        monkeypatch.setattr(gibbs, "_class_blocks", failing)
        threads = threading.active_count()
        with pytest.raises(_WorkerError, match="depth 2"):
            gibbs.sample(300, P_UNIT, 9, 5)
        assert threading.active_count() == threads
        with pytest.raises(_WorkerError, match="depth 2"):
            gibbs.smb_estimate(300, P_UNIT, 9, 5)
        assert threading.active_count() == threads


def _thresholds(*point):
    td = ising1d.transfer(ModelParams(*point))
    return [float(td.pi[0]), float(td.Q[0, 0]), float(td.Q[1, 0])]


class TestLaneDecision:
    # pi(+), Q(+,+) and Q(-,+) at three points (at beta*J = 25, Q(+,+) rounds
    # to 1.0, so A = 65536), theta = 0, and the beta = 0 threshold 1/2, where
    # 2^16 theta = 32768 exactly and the fraction is 0
    THETAS = (_thresholds(1.0, 1.0, 0.2) + _thresholds(0.8, 1.1, -0.2) + _thresholds(1.0, 25.0, 0.0)
              + [0.0, 0.5])

    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_exact_rationals(self, theta):
        lane, frac = gibbs._lane_split(theta)
        scaled = Fraction(theta) * 65536
        assert isinstance(lane, int) and lane == math.floor(scaled)
        assert Fraction(frac) == scaled - lane
        vs = {0.0, frac, float(np.nextafter(frac, 1.0)), 1.0 - 2.0 ** -53}
        if frac > 0.0:
            vs.add(float(np.nextafter(frac, 0.0)))
        cases = [(a, v) for a in (lane - 1, lane, lane + 1) if 0 <= a < 1 << 16
                 for v in sorted(vs) if v < 1.0]
        a = np.array([a for a, _ in cases], dtype=np.uint16)
        v = np.array([v for _, v in cases])
        want = [Fraction(int(x)) + Fraction(y) >= scaled for x, y in cases]
        assert gibbs._at_least(a, v, theta).tolist() == want

    @pytest.mark.parametrize("theta, expected", [(0.0, True), (1.0, False)])
    def test_ends_of_the_unit_interval(self, theta, expected):
        a = np.arange(1 << 16, dtype=np.uint16)
        for v in (0.0, 1.0 - 2.0 ** -53):
            assert np.all(gibbs._at_least(a, np.full(a.shape, v), theta) == expected)


class TestExactFiniteLaw:
    """Per depth class, the mean counts of minus initial states and of each
    transition type, and the SMB mean, against their exact finite-N values."""

    N, COUNT, SEED = 4096, 2000, 8

    @staticmethod
    def _check(name, values, want):
        se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert abs(float(np.mean(values)) - want) <= 5 * se + 1e-12, name

    @pytest.mark.parametrize("point", [(1.0, 1.0, 0.2), (0.8, 1.1, -0.2), (1.0, 25.0, 0.0)])
    def test_class_counts(self, point):
        td = ising1d.transfer(ModelParams(*point))
        classes = [(p, r, streams, scratch)
                   for group, scratch in gibbs._class_groups(self.N, self.COUNT, self.SEED)
                   for p, r, streams in group]
        for p, r, streams, scratch in classes:
            counts = []
            for _, idx in gibbs._class_blocks(p, r.size, td, self.COUNT, streams, scratch):
                pairs = [(idx[:, :-1] == bool(a)) & (idx[:, 1:] == bool(b)) for a in (0, 1) for b in (0, 1)]
                counts.append(np.stack([idx[:, 0].sum(axis=1)] + [x.sum(axis=(1, 2)) for x in pairs], axis=1))
            got = np.concatenate(counts)
            law = [np.exp(ising1d.log_site_law(td, i)) for i in range(p)]
            want = [r.size * td.pi[1]] + [r.size * sum(m[a] for m in law) * td.Q[a, b]
                                          for a in (0, 1) for b in (0, 1)]
            for k, name in enumerate(["minus initial", "++", "+-", "-+", "--"]):
                self._check(f"depth {p}: {name}", got[:, k], want[k])

    @pytest.mark.parametrize("point", [(1.0, 1.0, 0.2), (0.8, 1.1, -0.2), (1.0, 25.0, 0.0)])
    def test_smb_mean(self, point):
        params = ModelParams(*point)
        depth = {p: r.size for p, r in gibbs._depth_classes(self.N)}
        entropies = ising1d.marginal_entropies(max(depth), params)
        want = sum(layers * entropies[p] for p, layers in depth.items()) / self.N
        mean, se = gibbs.smb_estimate(self.N, params, self.COUNT, self.SEED)
        assert abs(mean - want) <= 5 * se + 1e-12


class TestSmb:
    def test_infinite_temperature_exact(self):
        mean, se = gibbs.smb_estimate(1024, ModelParams(0.0, 1.0, 0.0), 400, 3)
        assert mean == pytest.approx(math.log(2), abs=1e-13)
        assert se <= 1e-15

    def test_product_measure_exact(self):
        mean, se = gibbs.smb_estimate(512, ModelParams(1.0, 0.0, 0.0), 200, 4)
        assert mean == pytest.approx(math.log(2), abs=1e-13)
        assert se <= 1e-15

    def test_matches_cylinder_logprob_of_the_sampled_batch(self):
        n, count, seed = 48, 20, 17
        params = ModelParams(0.9, 0.7, 0.3)
        cfg = gibbs.sample(n, params, count, seed).configurations
        values = np.array([-gibbs.cylinder_logprob_sigma(dict(enumerate(map(int, row), 1)), params)
                           for row in cfg]) / n
        mean, se = gibbs.smb_estimate(n, params, count, seed)
        assert mean == pytest.approx(values.mean(), abs=1e-12)
        assert se == pytest.approx(values.std(ddof=1) / math.sqrt(count), abs=1e-12)

    def test_finite_where_the_chain_has_impossible_transitions(self):
        # at beta*J = 25 a flip has probability 2e-22, which the sampler
        # never draws, yet its log must stay finite; each draw's
        # log-probability is summed here from the decimal reference
        n, count, seed = 64, 10, 1
        log_q, log_pi = oracles.reference_transfer(25.0, 0.0)
        cfg = gibbs.sample(n, ModelParams(25.0, 1.0, 0.0), count, seed).configurations
        values = []
        for row in cfg:
            lp = 0.0
            for r in range(1, n + 1, 2):
                chain = [0 if row[site - 1] == 1 else 1 for site in range(r, n + 1) if
                         site % r == 0 and (site // r) & (site // r - 1) == 0]
                lp += log_pi[chain[0]] + sum(log_q[a, b] for a, b in zip(chain, chain[1:]))
            values.append(-lp / n)
        mean, se = gibbs.smb_estimate(n, ModelParams(25.0, 1.0, 0.0), count, seed)
        assert mean == pytest.approx(np.mean(values), abs=1e-12)
        assert se == pytest.approx(np.std(values, ddof=1) / math.sqrt(count), abs=1e-12)

    def test_strong_coupling_sampler(self):
        # beta*J = 25, h = 0: the first spin of each layer is a fair coin
        # and the chain almost never flips
        params, n, count = ModelParams(25.0, 1.0, 0.0), 64, 2000
        cfg = gibbs.sample(n, params, count, 7).configurations
        freq = float(np.mean(cfg[:, 0] == 1))
        assert abs(freq - 0.5) <= 4 * math.sqrt(0.25 / count)
        mean, se = gibbs.smb_estimate(n, params, count, 7)
        # every draw has the same log-probability, so se is 0 up to rounding;
        # 1e-12 is the truncation bound of the entropy series
        assert abs(mean - gibbs.ks_entropy(params, "series", 1e-12)) <= 5 * se + 1e-12

    def test_rejects_empty_batches(self):
        with pytest.raises(ValueError):
            gibbs.smb_estimate(0, P_UNIT, 10, 1)
        with pytest.raises(ValueError):
            gibbs.smb_estimate(16, P_UNIT, 0, 1)

    def test_converges_to_entropy(self):
        mean, se = gibbs.smb_estimate(1 << 10, P_UNIT, 800, 12345)
        target = gibbs.ks_entropy(P_UNIT, "closed_h0")
        assert abs(mean - target) <= 4 * se


class TestMultInvariance:
    def test_adjacent_pair_any_multiplier(self):
        rep = gibbs.check_mult_invariance([1, 2], 3, P_UNIT)
        assert rep.max_abs_diff_prob <= 1e-12
        assert rep.invariant

    def test_triple(self):
        rep = gibbs.check_mult_invariance([1, 2, 3], 5, P_UNIT)
        assert rep.max_abs_diff_prob <= 1e-12

    def test_field_breaks_invariance(self):
        rep = gibbs.check_mult_invariance([1, 2], 4, ModelParams(1.0, 1.0, 0.5))
        assert rep.max_abs_diff_prob > 1e-4
        assert not rep.invariant

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gibbs.check_mult_invariance([], 2, P_UNIT)
        with pytest.raises(ValueError):
            gibbs.check_mult_invariance([1], 0, P_UNIT)
