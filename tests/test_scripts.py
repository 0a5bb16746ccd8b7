"""Smoke tests of the scripts in scripts/: each runs end to end at a tiny
size, writes its CSV and prints its summary."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_ldp_tail_probe(tmp_path, monkeypatch, capsys):
    out = tmp_path / "tails.csv"
    _run(monkeypatch, "ldp_tail_probe.py", "--N", 16, "--count", 200, "--x", "0,0.5,2", "--out", out)
    rows = _rows(out)
    assert rows[0] == ["x", "emp_rate", "I", "censored"]
    assert [r[0] for r in rows[1:]] == ["0.0", "0.5", "2.0"]
    assert rows[3][1:] == ["inf", "inf", "true"]  # x = 2 lies outside the range of F'
    assert f"wrote {out}" in capsys.readouterr().out


def test_scgf_rate_scan(tmp_path, monkeypatch, capsys):
    prefix = tmp_path / "scan"
    _run(monkeypatch, "scgf_rate_scan.py", "--t-max", 1, "--t-step", 0.5, "--x-points", 3,
         "--out-prefix", prefix)
    scgf_rows, rate_rows = _rows(f"{prefix}_scgf.csv"), _rows(f"{prefix}_rate.csv")
    assert scgf_rows[0] == ["t", "F", "Fprime", "trunc_err"]
    assert [float(r[0]) for r in scgf_rows[1:]] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert abs(float(scgf_rows[3][1])) <= 1e-15  # F(0) = 0 up to rounding
    assert rate_rows[0] == ["x", "I", "t_star", "domain_flag"]
    assert len(rate_rows) == 4 and all(r[3] == "0" for r in rate_rows[1:])
    assert "(5 points)" in capsys.readouterr().out


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_smb_convergence(tmp_path, monkeypatch, capsys, beta):
    out = tmp_path / "smb.csv"
    _run(monkeypatch, "smb_convergence.py", "--beta", beta, "--count", 20, "--k-min", 3,
         "--k-max", 4, "--out", out)
    rows = _rows(out)
    assert rows[0] == ["N", "mean", "stderr", "entropy_series", "abs_dev"]
    assert [r[0] for r in rows[1:]] == ["8", "16"]
    if beta == 0.0:  # every configuration has probability 2^-N
        assert all(float(r[4]) <= 1e-12 for r in rows[1:])
    assert "series entropy" in capsys.readouterr().out
