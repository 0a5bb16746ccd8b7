"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Each workload runs one traced round in-process and two one-round traced
runs of bench/run.py (about two minutes in all).  The tests check
that every check passes on the program's output, that every check fails when
that output is perturbed, that per-layer counts repeat exactly between two
traced runs, that BENCHMARK.json names the metrics the runner prints, and
that the runner refuses to run without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import workloads as W  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

SEED = 1
EPS = 1e-6


@pytest.fixture(scope="module", params=run.WORKLOADS)
def rounds(request):
    workload = W.build(request.param, SEED, run.OUT / f"selftest-{request.param}")
    tracer = Tracer()
    tracer.install()
    try:
        return workload, run.run_rounds(workload, 1, tracer)
    finally:
        tracer.uninstall()


def _ops(workload):
    return [op for p in W.PASSES for op in workload.passes[p]]


def test_checks_pass_on_program_output(rounds):
    workload, res = rounds
    assert not {k: v for k, v in res["failures"].items() if k not in W.KNOWN_FAULTS}
    assert res["attempted"] == len(_ops(workload))


def _scale(value):
    return value * (1 + EPS)


def _perturb_json(obj):
    if isinstance(obj, float):
        return _scale(obj)
    if isinstance(obj, list):
        return [_perturb_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _perturb_json(v) for k, v in obj.items()}
    return obj


def _perturb_file(path: Path, tmp: Path) -> Path:
    """A copy of an output file (and its sidecar) with one value changed."""
    copy = tmp / path.name
    shutil.copy(path, copy)
    shutil.copy(f"{path}.meta.json", f"{copy}.meta.json")
    if copy.suffix == ".json":
        copy.write_text(json.dumps(_perturb_json(json.loads(copy.read_text()))))
    elif copy.suffix == ".bin":
        meta = json.loads(Path(f"{copy}.meta.json").read_text())
        data = bytearray(copy.read_bytes())
        data[len(data) - meta["N"] * meta["count"]] ^= 1  # first spin of the payload
        copy.write_bytes(bytes(data))
    else:
        lines = copy.read_text().splitlines()
        if lines[0].startswith("site_"):  # a sample: flip the first spin
            row = lines[1].split(",")
            row[0] = "1" if row[0] == "-1" else "-1"
            lines[1] = ",".join(row)
        else:  # a numeric table: scale the float fields of the middle row
            i = len(lines) // 2
            lines[i] = ",".join(repr(_scale(float(v))) if any(c in v for c in ".e") else v
                                for v in lines[i].split(","))
        copy.write_text("\n".join(lines) + "\n")
    return copy


def _flip_first_spin(batch):
    cfg = batch.configurations.copy()
    cfg[0, 0] = -cfg[0, 0]
    return dataclasses.replace(batch, configurations=cfg)


def perturb(name, out, tmp):
    """One perturbation of an operation's output that its check must catch:
    numbers scaled by 1 + 1e-6 (a lone number moved by 1e-6 max(1, |v|)),
    one spin flipped, or, for the statistical SMB estimate, the mean moved by
    ten standard errors."""
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], Path):
        return out[0], _perturb_file(out[1], tmp)
    if name.startswith("smb"):
        mean, se = out
        return mean + 10 * se, se
    if isinstance(out, float):
        return out + EPS * max(1.0, abs(out))
    if isinstance(out, np.ndarray):
        return _scale(out)
    if isinstance(out, tuple) and isinstance(out[1], list):  # (value, series rows)
        return out[0], [dataclasses.replace(r, psi_j=_scale(r.psi_j)) for r in out[1]]
    if isinstance(out, tuple):  # (value, truncation bound)
        return _scale(out[0]), out[1]
    if hasattr(out, "configurations"):
        return _flip_first_spin(out)
    if hasattr(out, "I"):
        return dataclasses.replace(out, I=_scale(out.I))
    if hasattr(out, "Fprime"):
        return dataclasses.replace(out, F=_scale(out.F))
    raise AssertionError(f"no perturbation for {name}: {type(out)}")


def test_checks_fail_on_perturbed_output(rounds, tmp_path):
    workload, res = rounds
    outputs = res["outputs"]
    checked = 0
    for op in _ops(workload):
        out = outputs[op.name]
        if W.check_output(op, out, outputs):
            assert op.name in W.KNOWN_FAULTS
            continue
        assert W.check_output(op, perturb(op.name, out, tmp_path), outputs), op.name
        checked += 1
    assert checked >= len(_ops(workload)) - len(W.KNOWN_FAULTS)


def _traced_run(workload):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
                           str(SEED), "--seconds", "0", "--trace", "1"], capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_between_traced_runs(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    for name, unit in PER_LAYER.items():
        if unit == "count":
            assert first["metrics"][name] == second["metrics"][name], name


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == run.END_TO_END


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
