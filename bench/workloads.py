"""The benchmark's three workloads: inputs, timed operations and their checks.

A workload is three passes of operations.  `solve` is its headline library
computation, `sweep` the batched or wide use of the same modules next to it,
and `cli` its subcommands run in-process through multising.cli.main.  Every
operation's output is checked against the oracles in oracles.py or against
a property of the method; checks run outside the timed passes.

Operations named in KNOWN_FAULTS fail every time on inputs that do not
depend on the seed.  They stay in the workloads, so that mending a fault
shows as fewer failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List

import numpy as np

import oracles as O

PASSES = ("solve", "sweep", "cli")

KNOWN_FAULTS = {
    "entropy_bj20": "ising1d.transfer cancels in lam - K[0,0]: ks_entropy is NaN at beta*J=20, h=0",
    "scgf_bj20": "ising1d.transfer cancels in lam - K[0,0]: scgf is NaN at beta*J=20, h=0",
    "cli_free_energy_beta800": "log_partition_scaled raises OverflowError at beta=800",
    "cli_invariance_pi_bj3": "ising1d.transfer's pi is off by 5.6e-12 relative at (2.97912, 1, 0.530395): "
                             "invariance log-probabilities miss a 1e-12 check",
    "smb_bj25": "the sampler draws all-plus at beta*J=25, h=0: smb_estimate returns (0, 0)",
    "sample_bj25": "the sampler draws all-plus at beta*J=25, h=0: site-1 frequency 1",
    "cli_sample_seed_2p60": "the binary header stores the seed as a double: 2^60+1 reads back as 2^60",
}


@dataclass
class Op:
    """One checked operation: run(results) -> output, check(output, results)
    -> list of problems.  `results` holds this round's earlier outputs."""

    name: str
    run: Callable
    check: Callable


@dataclass
class Workload:
    name: str
    passes: Dict[str, List[Op]]
    inputs: dict


class Raised:
    """Output of an operation that raised."""

    def __init__(self, err: BaseException):
        self.err = err

    def __repr__(self):
        return f"raised {type(self.err).__name__}: {self.err}"


def _close(name, got, want, atol, rtol=0.0):
    """Problems with |got - want| <= atol + rtol |want|, elementwise."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        return [f"{name}: {int(bad.sum())} of {bad.size} values off, first "
                f"{got.ravel()[i]!r} != {want.ravel()[i]!r} (atol {atol:g}, rtol {rtol:g})"]
    return []


def _cli(argv) -> int:
    from multising import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _read_json(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _read_csv(path):
    """Header fields and the data rows as lists of strings."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class _Memo:
    """Oracle values computed once per run and shared by every round."""

    def __init__(self):
        self.values = {}

    def get(self, key, fn):
        if key not in self.values:
            self.values[key] = fn()
        return self.values[key]


def _rng_point(rng, beta=(0.0, 3.0), h=(-1.0, 1.0)):
    return (round(rng.uniform(*beta), 6), 1.0, round(rng.uniform(*h), 6))


# ---------------------------------------------------------------------------
# exact: the one-prime exact series.
# ---------------------------------------------------------------------------

BOND = ("s[1]*s[2]", [((0, 1), 1.0)])
WIDE = ("s[1] + 0.5*s[1]*s[4]", [((0,), 1.0), ((0, 2), 0.5)])
X_GRID = [i / 20 for i in range(-18, 19)]  # the README grid -0.9:0.9:0.05
RATE_POINT = (0.5, 1.0, 0.3)
X_CLI = "0:0.75:0.25"  # the rate subcommand at beta = 0, where F(t) = log cosh t
X_CLI_GRID = [0.0, 0.25, 0.5, 0.75]
T_SPEC = "-3:3:0.0002"
T_SWEEP = np.arange(-15000, 15001) / 5000.0  # what the CLI parses from T_SPEC
SWEEP_POINTS = 48
SERIES_TOL = 1e-10
INVARIANCE_TOL = 1e-10  # the acceptance suite's tolerance for the seeded point
PI_FAULT_POINT = (2.97912, 1.0, 0.530395)  # ising1d.transfer's pi is off by 5.6e-12 relative here


def _rate_check(point, x_grid, memo):
    chain = O.Chain(*point)

    def check(curve, results):
        x = np.asarray(curve.x)
        problems = _close("x", x, x_grid, 0.0)
        if problems:
            return problems
        if np.any(curve.domain_flag != 0):
            return [f"domain flags {curve.domain_flag.tolist()} inside (-1, 1)"]
        want_i, want_t = memo.get(("rate", point), lambda: O.rate_function(
            BOND[1], chain, x, np.nan_to_num(curve.t_star)))
        problems += _close("I", curve.I, want_i, 1e-9)
        problems += _close("t_star", curve.t_star, want_t, 1e-6, 1e-6)
        if np.any(curve.I < -1e-12):
            problems.append("I < 0")
        i0 = float(curve.I[x == 0.0][0])
        if point[0] == 0.0:
            # F(t) = log cosh t: I(x) = ((1+x) log(1+x) + (1-x) log(1-x))/2
            closed = 0.5 * ((1 + x) * np.log1p(x) + (1 - x) * np.log1p(-x))
            problems += _close("I vs closed form", curve.I, closed, 1e-9)
            problems += _close("I(0.5)", curve.I[x == 0.5], [0.13081], 1e-4)
            problems += _close("I(F'(0)) = I(0)", [i0], [0.0], 1e-12)
        return problems

    return check


def _curve_check(terms, point, memo):
    chain = O.Chain(*point)

    def check(curve, results):
        grid = np.asarray(curve.grid)
        problems = _close("grid", grid, T_SWEEP, 0.0)
        if problems:
            return problems
        F, F1, _ = memo.get(("curve", terms[0][0], point), lambda: O.window_scgf(terms, chain, grid))
        err = np.asarray(curve.trunc_err)
        if not np.all(np.isfinite(err) & (err >= 0.0) & (err <= SERIES_TOL)):
            return [f"truncation bounds not finite and within [0, {SERIES_TOL:g}]"]
        problems += _close("F", curve.F, F, err + 1e-12)
        problems += _close("F'", curve.Fprime, F1, 1e-7, 1e-7)
        problems += _close("F(0)", np.asarray(curve.F)[grid == 0.0], [0.0], 1e-15)
        if np.any(np.diff(curve.F, 2) < -1e-12) or np.any(np.diff(curve.Fprime) < -1e-9):
            problems.append("F is not convex on the grid")
        return problems

    return check


def _sweep_point_ops(i, point, fstar_bond, memo):
    from multising import gibbs, ldp
    from multising.ising1d import ModelParams

    params = ModelParams(*point)
    chain = O.Chain(*point)
    ops = [Op(f"ks_entropy_{i}", lambda r: gibbs.ks_entropy(params),
              lambda v, r: _close("ks_entropy", v, chain.ks_entropy(), 1e-10))]
    for bc in ("free", "plus", "minus"):
        ops.append(Op(
            f"free_energy_{bc}_{i}",
            lambda r, bc=bc: gibbs.free_energy(bc, params, SERIES_TOL),
            lambda v, r, bc=bc: _close(f"free_energy {bc}", v, memo.get(
                ("fe", bc, point), lambda: O.free_energy(bc, *point)), SERIES_TOL + 1e-11)))
    ops.append(Op(f"clt_variance_{i}", lambda r: ldp.clt_variance(fstar_bond, params),
                  lambda v, r: _close("clt_variance", v, memo.get(
                      ("clt", point), lambda: O.window_scgf(BOND[1], chain, 0.0)[2][0]), 1e-9)))
    return ops


def _cli_curve_check(terms, point, memo):
    curve_check = _curve_check(terms, point, memo)

    def check(out, results):
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        header, rows = _read_csv(path)
        if header != ["t", "F", "Fprime", "trunc_err"] or not rows:
            return [f"CSV header {header}"]
        curve = _CsvCurve(np.array(rows, dtype=float))
        problems = curve_check(curve, results)
        meta = _read_json(str(path) + ".meta.json")
        if meta.get("command") != "scgf" or float(meta["max_trunc_err"]) != curve.trunc_err.max():
            problems.append(f"sidecar {meta} does not match the CSV")
        return problems

    return check


class _CsvCurve:
    def __init__(self, arr):
        self.grid, self.F, self.Fprime, self.trunc_err = arr.T


def _free_energy_json_check(point, memo, closed_free=None):
    def check(out, results):
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        payload = _read_json(path)
        problems = []
        for bc in ("free", "plus", "minus"):
            want = memo.get(("fe", bc, point), lambda bc=bc: O.free_energy(bc, *point))
            problems += _close(f"free-energy {bc}", payload.get(bc, math.nan), want,
                               SERIES_TOL + 1e-11, 1e-15)
        if closed_free is not None:
            problems += _close("free-energy free vs log 2 + log 2cosh(beta J)",
                               payload.get("free", math.nan), closed_free, 1e-9, 1e-15)
        return problems

    return check


def build_exact(seed: int, outdir: Path) -> Workload:
    from multising import gibbs, ldp
    from multising.cli import parse_observable
    from multising.ising1d import ModelParams
    from multising.observables import to_first_layer

    rng = random.Random(seed)
    memo = _Memo()
    fstar = {name: to_first_layer(parse_observable(name)) for name, _ in (BOND, WIDE)}
    curve_points = {BOND[0]: _rng_point(rng), WIDE[0]: _rng_point(rng)}
    sweep_points = [_rng_point(rng) for _ in range(SWEEP_POINTS)]
    cli_point = _rng_point(rng)
    entropy_beta = round(rng.uniform(0.1, 3.0), 6)

    solve = [Op("rate_curve", lambda r: ldp.rate_curve(fstar[BOND[0]], ModelParams(*RATE_POINT), X_GRID),
                _rate_check(RATE_POINT, X_GRID, memo))]

    sweep = []
    for name, terms in (BOND, WIDE):
        p = curve_points[name]
        sweep.append(Op(f"scgf_curve {name}",
                        lambda r, name=name, p=p: ldp.scgf_curve(fstar[name], ModelParams(*p), T_SWEEP),
                        _curve_check(terms, p, memo)))
    for i, p in enumerate(sweep_points):
        sweep += _sweep_point_ops(i, p, fstar[BOND[0]], memo)
    cold = (20.0, 1.0, 0.0)
    cold_chain = O.Chain(*cold)
    sweep.append(Op("entropy_bj20", lambda r: gibbs.ks_entropy(ModelParams(*cold)),
                    lambda v, r: _close("ks_entropy at beta*J=20", v, 0.5 * O.LOG2 + 0.5 * O.binary_entropy(
                        1.0 / (1.0 + math.exp(-40.0))), 1e-10)))
    sweep.append(Op("scgf_bj20", lambda r: ldp.scgf(fstar[BOND[0]], ModelParams(*cold), 0.5),
                    lambda v, r: _close("scgf at beta*J=20", v[0], O.window_scgf(
                        BOND[1], cold_chain, 0.5)[0][0], v[1] + 1e-12)))

    def cli_curve(name, terms, label):
        p = curve_points[name]
        path = outdir / f"scgf-{label}.csv"
        argv = ["scgf", "--beta", p[0], "--J", p[1], "--h", p[2], "--f", name,
                "--t", T_SPEC, "--output", path]
        return Op(f"cli_scgf {name}", lambda r: (_cli(argv), path), _cli_curve_check(terms, p, memo))

    def cli_json(op_name, argv, check):
        path = outdir / f"{op_name}.json"
        return Op(op_name, lambda r: (_cli(argv + ["--output", path]), path), check)

    beta0_check = _rate_check((0.0, 1.0, 0.0), X_CLI_GRID, memo)

    def rate_cli_check(out, results):
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        header, rows = _read_csv(path)
        if header != ["x", "I", "t_star", "domain_flag"] or not rows:
            return [f"CSV header {header}"]
        problems = beta0_check(SimpleNamespace(**dict(zip(header, np.array(rows, dtype=float).T))), results)
        if _read_json(str(path) + ".meta.json").get("command") != "rate":
            problems.append("sidecar does not name the rate command")
        return problems

    rate_path = outdir / "rate-beta0.csv"
    rate_argv = ["rate", "--beta", 0.0, "--J", 1.0, "--h", 0.0, "--x", X_CLI, "--output", rate_path]
    cp = cli_point
    ent_point = (entropy_beta, 1.0, 0.0)
    inv_sites = ([1, 2, 3], [2, 4, 6])

    def entropy_check(out, results):
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        got = _read_json(path)
        chain = O.Chain(*ent_point)
        closed = 0.5 * O.LOG2 + 0.5 * O.binary_entropy(1.0 / (1.0 + math.exp(-2.0 * entropy_beta)))
        problems = []
        for key, want in (("series", chain.ks_entropy()), ("formula", chain.ks_entropy()),
                          ("closed_h0", closed), ("printed_variant", chain.printed_variant())):
            problems += _close(f"entropy {key}", got.get(key, math.nan), want, 1e-10)
        for key, base in (("formula_minus_series", "formula"), ("closed_minus_series", "closed_h0"),
                          ("printed_minus_series", "printed_variant")):
            problems += _close(key, got.get(key, math.nan),
                               got.get(base, math.nan) - got.get("series", math.nan), 1e-15)
        if got.get("units") != "nats":
            problems.append(f"units {got.get('units')!r}")
        return problems

    def invariance_check(point, tol):
        def check(out, results):
            rc, path = out
            if rc != 0:
                return [f"exit code {rc}"]
            got = _read_json(path)
            chain = O.Chain(*point)
            before = O.joint_law_logprobs(inv_sites[0], chain)
            after = O.joint_law_logprobs(inv_sites[1], chain)
            diff = float(np.max(np.abs(np.exp(before) - np.exp(after))))
            problems = _close("logprob_before", got.get("logprob_before", []), before, tol)
            problems += _close("logprob_after", got.get("logprob_after", []), after, tol)
            problems += _close("max_abs_diff_prob", got.get("max_abs_diff_prob", math.nan), diff, 1e-12)
            if got.get("invariant") is not (diff <= 1e-10):
                problems.append(f"invariant {got.get('invariant')} with deviation {diff:.3e}")
            return problems

        return check

    def cli_invariance(op_name, point, tol):
        return cli_json(op_name, ["invariance", "--beta", point[0], "--J", point[1], "--h", point[2],
                                  "--indices", "1,2,3", "--multiplier", 2], invariance_check(point, tol))

    cli_ops = [cli_curve(*BOND, "bond"), cli_curve(*WIDE, "wide"),
               Op("cli_rate_beta0", lambda r: (_cli(rate_argv), rate_path), rate_cli_check),
               cli_json("cli_free_energy", ["free-energy", "--beta", cp[0], "--J", cp[1], "--h", cp[2]],
                        _free_energy_json_check(cp, memo)),
               cli_json("cli_entropy", ["entropy", "--beta", entropy_beta, "--J", 1.0, "--h", 0.0,
                                        "--mode", "all"], entropy_check),
               cli_invariance("cli_invariance", cp, INVARIANCE_TOL),
               cli_invariance("cli_invariance_pi_bj3", PI_FAULT_POINT, 1e-12),
               cli_json("cli_free_energy_beta800", ["free-energy", "--beta", 800],
                        _free_energy_json_check((800.0, 1.0, 0.0), memo,
                                                O.LOG2 + O.log2cosh(800.0)))]
    inputs = {"curve_points": curve_points, "sweep_points": sweep_points, "cli_point": cli_point,
              "entropy_beta": entropy_beta, "rate_point": RATE_POINT}
    return Workload("exact", {"solve": solve, "sweep": sweep, "cli": cli_ops}, inputs)


# ---------------------------------------------------------------------------
# mc: the sampler's two regimes.
# ---------------------------------------------------------------------------

SMB_POINT = (1.0, 1.0, 0.2)
MC_POINT = (1.0, 1.0, 0.0)
COLD_POINT = (25.0, 1.0, 0.0)
SMB_N, SMB_COUNT = 1 << 12, 20000
WIDE_N, WIDE_COUNT = 1 << 16, 100
BIN_N, BIN_COUNT, CSV_COUNT = 1 << 12, 4000, 500
BIG_SEED = (1 << 60) + 1
Z = 5.0  # statistical checks allow Z standard errors


def _stat(name, got, want, se):
    if not (math.isfinite(got) and abs(got - want) <= Z * se + 1e-12):
        return [f"{name}: {got!r} is more than {Z:g} SE ({se:.3g}) from {want!r}"]
    return []


def _smb_check(n, point):
    def check(out, results):
        mean, se = out
        want = O.smb_mean(n, O.Chain(*point))
        if not (math.isfinite(se) and se >= 0.0):
            return [f"standard error {se!r}"]
        return _stat("SMB mean vs exact finite-N mean", mean, want, se)

    return check


def _spin_stats(configs, name):
    """Site-1 plus frequency and the s_1 s_2 correlation at h = 0, with
    E s_1 s_2 = tanh(beta J) and P(s_1 = +) = 1/2."""
    count = configs.shape[0]
    freq = float(np.mean(configs[:, 0] == 1))
    problems = _stat(f"{name}: site-1 plus frequency", freq, 0.5, math.sqrt(0.25 / count))
    corr = configs[:, 0].astype(float) * configs[:, 1]
    se = max(float(corr.std(ddof=1)) / math.sqrt(count), 1e-3)
    problems += _stat(f"{name}: E s1 s2", float(corr.mean()), math.tanh(MC_POINT[0] * MC_POINT[1]), se)
    return problems


PREFIX_ROWS = 10


def _prefix_problems(cfg, n, point, seed, memo):
    """A batch extends consistently as count grows: its first rows equal a
    fresh draw of PREFIX_ROWS replicas with the same seed."""
    from multising import gibbs
    from multising.ising1d import ModelParams

    ref = memo.get(("prefix", n, point, seed), lambda: gibbs.sample(
        n, ModelParams(*point), PREFIX_ROWS, seed).configurations)
    if not np.array_equal(cfg[:PREFIX_ROWS], ref):
        return [f"the first {PREFIX_ROWS} replicas differ from a draw of {PREFIX_ROWS} with the same seed"]
    return []


def _batch_check(n, count, seed, point, memo):
    def check(batch, results):
        cfg = batch.configurations
        if (batch.N, batch.count, batch.seed) != (n, count, seed) or cfg.shape != (count, n):
            return [f"batch N={batch.N} count={batch.count} seed={batch.seed} shape {cfg.shape}"]
        if not np.all((cfg == 1) | (cfg == -1)):
            return ["spins outside {-1, +1}"]
        return _prefix_problems(cfg, n, point, seed, memo) + _spin_stats(cfg, "sample")

    return check


def _payload(data: bytes, n: int, count: int) -> np.ndarray:
    """The spins of a binary sample file: its last n*count bytes, one per
    spin (1 for +1, 0 for -1), as a (count, n) array of +-1."""
    payload = np.frombuffer(data, dtype=np.uint8)[len(data) - n * count:]
    return payload.reshape(count, n).astype(np.int8) * 2 - 1


def _average(batch, n):
    cfg = batch.configurations
    return (cfg[:, :n].astype(float) * cfg[:, 1:2 * n:2]).mean(axis=1)


def build_mc(seed: int, outdir: Path) -> Workload:
    from multising import gibbs, ldp
    from multising.ising1d import ModelParams
    from multising.observables import Observable

    rng = random.Random(seed)
    seeds = [rng.getrandbits(32) for _ in range(3)]
    memo = _Memo()
    bond = Observable.make([((1, 2), 1.0)])
    n_avg = WIDE_N // 2

    solve = [Op("smb", lambda r: gibbs.smb_estimate(SMB_N, ModelParams(*SMB_POINT), SMB_COUNT, seeds[0]),
                _smb_check(SMB_N, SMB_POINT)),
             Op("smb_bj25", lambda r: gibbs.smb_estimate(SMB_N, ModelParams(*COLD_POINT), 200, 12345),
                _smb_check(SMB_N, COLD_POINT))]

    def average_check(x, results):
        batch = results["sample"]
        if isinstance(batch, Raised):
            return ["no batch"]
        problems = _close("X_N recomputed from the batch", x, _average(batch, n_avg), 1e-12)
        se = float(np.std(x, ddof=1)) / math.sqrt(len(x))
        return problems + _stat("mean X_N(s1 s2) vs tanh(beta J)", float(np.mean(x)),
                                math.tanh(MC_POINT[0] * MC_POINT[1]), se)

    def cold_check(batch, results):
        count = batch.configurations.shape[0]
        return _stat("site-1 plus frequency at beta*J=25", float(np.mean(batch.configurations[:, 0] == 1)),
                     0.5, math.sqrt(0.25 / count))

    sweep = [Op("sample", lambda r: gibbs.sample(WIDE_N, ModelParams(*MC_POINT), WIDE_COUNT, seeds[1]),
                _batch_check(WIDE_N, WIDE_COUNT, seeds[1], MC_POINT, memo)),
             Op("multiplicative_average", lambda r: ldp.multiplicative_average(r["sample"], bond, n_avg),
                average_check),
             Op("sample_bj25", lambda r: gibbs.sample(1024, ModelParams(*COLD_POINT), 400, 4321), cold_check)]

    bin_path, csv_path, big_path = outdir / "sample.bin", outdir / "sample.csv", outdir / "seed.bin"
    common = ["sample", "--beta", MC_POINT[0], "--J", MC_POINT[1], "--h", MC_POINT[2], "--N", BIN_N,
              "--seed", seeds[2]]

    def bin_check(out, results):
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        data = path.read_bytes()
        if len(data) < BIN_N * BIN_COUNT or np.frombuffer(data, np.uint8)[-BIN_N * BIN_COUNT:].max() > 1:
            return [f"{len(data)} bytes, payload not 0/1 bytes"]
        meta = _read_json(str(path) + ".meta.json")
        problems = []
        if (meta.get("N"), meta.get("count"), meta.get("seed")) != (BIN_N, BIN_COUNT, seeds[2]):
            problems.append(f"sidecar {meta}")
        cfg = _payload(data, BIN_N, BIN_COUNT)
        return problems + _prefix_problems(cfg, BIN_N, MC_POINT, seeds[2], memo) + \
            _spin_stats(cfg, "binary sample")

    def load_check(batch, results):
        data = bin_path.read_bytes()
        problems = []
        if (batch.N, batch.count, batch.seed) != (BIN_N, BIN_COUNT, seeds[2]) or \
                (batch.params.beta, batch.params.J, batch.params.h) != MC_POINT:
            problems.append(f"header N={batch.N} count={batch.count} seed={batch.seed} {batch.params}")
        if not np.array_equal(batch.configurations, _payload(data, BIN_N, BIN_COUNT)):
            problems.append("loaded spins differ from the payload")
        copy = outdir / "roundtrip.bin"
        batch.save_binary(copy)
        if copy.read_bytes() != data:
            problems.append("save_binary(load_binary(file)) is not byte-identical to the file")
        return problems

    def csv_check(out, results):
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        raw = path.read_bytes()
        head, _, body = raw.partition(b"\n")
        want_head = ",".join(f"site_{i}" for i in range(1, BIN_N + 1)).encode()
        if head != want_head:
            return ["CSV header"]
        arr = np.frombuffer(body, dtype=np.uint8)
        if not set(np.unique(arr).tolist()) <= set(b"1-,\n") or \
                np.count_nonzero(arr == ord("\n")) != CSV_COUNT or \
                np.count_nonzero(arr == ord(",")) != CSV_COUNT * (BIN_N - 1):
            return ["CSV body is not rows of +-1"]
        ones = np.flatnonzero(arr == ord("1"))
        if ones.size != CSV_COUNT * BIN_N:
            return ["CSV value count"]
        cfg = np.where(arr[ones - 1] == ord("-"), -1, 1).reshape(CSV_COUNT, BIN_N)
        if not np.array_equal(cfg, _payload(bin_path.read_bytes(), BIN_N, BIN_COUNT)[:CSV_COUNT]):
            return ["CSV rows differ from the first rows of the binary batch of the same seed"]
        return []

    def big_seed_check(batch, results):
        if batch.seed != BIG_SEED:
            return [f"seed {BIG_SEED} read back as {batch.seed}"]
        return []

    def big_seed_run(r):
        rc = _cli(["sample", "--N", 64, "--count", 8, "--seed", BIG_SEED, "--format", "bin",
                   "--output", big_path])
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return gibbs.SampleBatch.load_binary(big_path)

    def sample_cli(count, fmt, path):
        return lambda r: (_cli(common + ["--count", count, "--format", fmt, "--output", path]), path)

    cli_ops = [Op("cli_sample_bin", sample_cli(BIN_COUNT, "bin", bin_path), bin_check),
               Op("load_binary", lambda r: gibbs.SampleBatch.load_binary(bin_path), load_check),
               Op("cli_sample_csv", sample_cli(CSV_COUNT, "csv", csv_path), csv_check),
               Op("cli_sample_seed_2p60", big_seed_run, big_seed_check)]
    return Workload("mc", {"solve": solve, "sweep": sweep, "cli": cli_ops}, {"seeds": seeds})


# ---------------------------------------------------------------------------
# multiprime: the d-dimensional route.
# ---------------------------------------------------------------------------

TWO_PRIME = "s[1]*s[2] + s[1]*s[3]"
TWO_PRIME_TERMS = [(((0, 0), (1, 0)), 1.0), (((0, 0), (0, 1)), 1.0)]  # axes: primes 2, 3
TILT = 0.1
KIE_TOL, CLI_KIE_TOL = 0.03, 0.05
FINITE_N = 48
BRUTE_BITS = 13
WEIGHT_PRIMES, WEIGHT_TOL = (2, 3, 5), 1e-8


def _series_rows_check(rows, point, tol, memo):
    """Checks of a smooth-number series table (j, n_j, w_j, Psi_j, partial,
    tail) for TWO_PRIME over the basis {2, 3}."""
    primes = (2, 3)
    kap = O.kappa(primes)
    sup = 2.0
    problems = []
    if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
        return ["rows are not j = 1..J"]
    n = [r[1] for r in rows]
    smooth = O.smooth_numbers_upto(2 * n[-1], primes)
    if n != smooth[:len(n)] or not all(O.smooth_by_trial_division(m, primes) for m in n):
        return [f"n_j {n} are not the first {len(n)} {primes}-smooth numbers"]
    chain = O.Chain(*point)
    points, mass = [], Fraction(0)
    partial = []
    for j, (_, n_j, w_j, psi, part, tail) in enumerate(rows, 1):
        n_next = smooth[j]
        w = kap * Fraction(n_next - n_j, n_j * n_next)
        mass += j * w
        partial.append(w_j * psi)
        problems += _close(f"w_{j}", w_j, float(w), 0.0, 1e-13)
        problems += _close(f"partial sum {j}", part, math.fsum(partial), 1e-13, 1e-13)
        problems += _close(f"tail bound {j}", tail, float(1 - mass) * abs(TILT) * sup, 0.0, 1e-12)
        if not abs(psi) <= j * abs(TILT) * sup * (1 + 1e-12):
            problems.append(f"|Psi_{j}| = {abs(psi)} exceeds j |t| sup")
        points.append(O.decompose(n_j, primes)[1])
        if O.brute_bits(points, TWO_PRIME_TERMS, 0) <= BRUTE_BITS:
            want = memo.get(("psi", point, j), lambda pts=list(points): O.brute_region_pressure(
                pts, TWO_PRIME_TERMS, TILT, chain, 0))
            problems += _close(f"Psi_{j} vs brute force", psi, want, 1e-10)
    if not (rows[-1][5] < tol and (len(rows) == 1 or rows[-2][5] >= tol)):
        problems.append(f"series did not stop at the first tail bound below {tol}")
    return problems


def build_multiprime(seed: int, outdir: Path) -> Workload:
    from multising import ldp, multiprime
    from multising.cli import parse_observable
    from multising.ising1d import ModelParams
    from multising.observables import Observable, to_first_layer

    rng = random.Random(seed)
    point = _rng_point(rng, beta=(0.5, 1.5), h=(-0.2, 0.2))
    params = ModelParams(*point)
    f = parse_observable(TWO_PRIME)
    memo = _Memo()

    def dyadic_route(results):
        """kie_pressure of the dyadic s1 s2 equals the one-prime SCGF within
        both tail bounds."""
        bond = Observable.make([((1, 2), 1.0)])
        value, rows = multiprime.kie_pressure(bond, params, 0.5, 1e-4)
        ref, err = ldp.scgf(to_first_layer(bond), params, 0.5, 1e-12)
        return _close("dyadic kie_pressure vs ldp.scgf", value, ref, rows[-1].tail_bound + err + 1e-12)

    def kie_check(out, results):
        value, rows = out
        table = [(r.j, r.n_j, r.w_j, r.psi_j, r.partial_sum, r.tail_bound) for r in rows]
        problems = _series_rows_check(table, point, KIE_TOL, memo)
        problems += _close("value", value, rows[-1].partial_sum, 0.0)
        return problems + memo.get("dyadic", lambda: dyadic_route(results))

    def finite_check(value, results):
        kie = results.get("kie_pressure")
        if kie is None or isinstance(kie, Raised):
            return ["no series rows to compare with"]
        psi = {r.j: r.psi_j for r in kie[1]}
        canon = {}
        smooth = O.smooth_numbers_upto(FINITE_N, (2, 3))
        total = []
        for r, pts in O.layer_regions(FINITE_N, (2, 3)).items():
            c = len(pts)
            canon.setdefault(c, sorted(O.decompose(m, (2, 3))[1] for m in smooth[:c]))
            if pts != canon[c] or c not in psi:
                return [f"layer {r}: region {pts} is not the canonical region of cardinality {c}"]
            total.append(psi[c])
        return _close("finite_pressure_exact_d vs layer sum of series Psi_j", value,
                      math.fsum(total) / FINITE_N, 1e-12, 1e-12)

    solve = [Op("kie_pressure", lambda r: multiprime.kie_pressure(f, params, TILT, KIE_TOL), kie_check)]
    sweep = [Op("finite_pressure_exact_d",
                lambda r: multiprime.finite_pressure_exact_d(f, TILT, FINITE_N, params), finite_check)]

    weights_path, series_path = outdir / "weights.csv", outdir / "series.csv"

    def weights_check(out, results):
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        header, rows = _read_csv(path)
        meta = _read_json(str(path) + ".meta.json")
        kap = O.kappa(WEIGHT_PRIMES)
        if header != ["j", "n_j", "w_j"] or not rows:
            return [f"CSV header {header}"]
        js = [int(r[0]) for r in rows]
        n = [int(r[1]) for r in rows]
        w = [float(r[2]) for r in rows]
        if js != list(range(1, len(rows) + 1)):
            return ["rows are not j = 1..J"]
        smooth = O.smooth_numbers_upto(2 * n[-1], WEIGHT_PRIMES)
        if n != smooth[:len(n)]:
            return ["n_j are not the consecutive (2,3,5)-smooth numbers"]
        sample = n[:1000] + n[1000::97]
        if not all(O.smooth_by_trial_division(m, WEIGHT_PRIMES) for m in sample):
            return ["an n_j fails trial division"]
        problems = []
        if meta.get("kappa_exact") != str(kap):
            problems.append(f"kappa_exact {meta.get('kappa_exact')} != {kap}")
        kf = float(kap)
        bad = [j for j, (a, b, wj) in enumerate(zip(n, smooth[1:], w), 1)
               if abs(wj - kf * ((b - a) / a) / b) > 1e-14 * wj]
        if bad:
            problems.append(f"{len(bad)} weights differ from kappa (1/n_j - 1/n_j+1), first j={bad[0]}")
        tail = float(meta.get("truncation_tail", math.nan))
        s0 = math.fsum(w)
        s1 = math.fsum(j * wj for j, wj in zip(js, w))
        if not (0.0 <= tail <= WEIGHT_TOL):
            problems.append(f"truncation tail {tail} above {WEIGHT_TOL}")
        problems += _close("sum w_j vs kappa", s0, kf, tail)
        problems += _close("sum j w_j vs 1", s1, 1.0, tail)
        problems += _close("sidecar sums", [float(meta["sum_weights"]), float(meta["sum_j_weights"])],
                           [s0, s1], 1e-15)
        return problems

    def series_check(out, results):
        rc, path = out
        if rc != 0:
            return [f"exit code {rc}"]
        header, rows = _read_csv(path)
        if header != ["j", "n_j", "w_j", "Psi_j", "partial_sum", "tail_bound"] or not rows:
            return [f"CSV header {header}"]
        table = [(int(r[0]), int(r[1])) + tuple(float(v) for v in r[2:]) for r in rows]
        problems = _series_rows_check(table, point, CLI_KIE_TOL, memo)
        kie = results.get("kie_pressure")
        if kie is not None and not isinstance(kie, Raised):
            psi = [r.psi_j for r in kie[1][:len(table)]]
            problems += _close("Psi_j vs kie_pressure rows", [t[3] for t in table], psi, 1e-12, 1e-12)
        meta = _read_json(str(path) + ".meta.json")
        problems += _close("sidecar value", float(meta.get("value", "nan")), table[-1][4], 0.0)
        return problems

    weights_argv = ["kie-weights", "--primes", "2,3,5", "--tol", WEIGHT_TOL, "--output", weights_path]
    series_argv = ["scgf", "--beta", point[0], "--J", point[1], "--h", point[2], "--f", TWO_PRIME,
                   "--t", TILT, "--tol", CLI_KIE_TOL, "--output", series_path]
    cli_ops = [Op("cli_kie_weights", lambda r: (_cli(weights_argv), weights_path), weights_check),
               Op("cli_scgf_series", lambda r: (_cli(series_argv), series_path), series_check)]
    return Workload("multiprime", {"solve": solve, "sweep": sweep, "cli": cli_ops}, {"point": point})


BUILDERS = {"exact": build_exact, "mc": build_mc, "multiprime": build_multiprime}


def build(name: str, seed: int, outdir: Path) -> Workload:
    outdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, outdir)


def check_output(op: Op, out, results) -> List[str]:
    """Problems with one operation's output; an exception is a problem."""
    if isinstance(out, Raised):
        return [repr(out)]
    try:
        return op.check(out, results)
    except Exception as err:  # a malformed output must not stop the run
        return [f"check raised {type(err).__name__}: {err}"]
