import argparse
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multising
from multising import arith, cli, gibbs, multiprime
from multising.acceptance import brute_region_pressure
from multising.errors import InfeasibleSizeError, ObservableSyntaxError, PreconditionError
from multising.ising1d import ModelParams
from multising.observables import Observable

import oracles


class TestParseObservable:
    def test_simple_product(self):
        obs = cli.parse_observable("s[1]*s[2]")
        assert obs.terms == ((frozenset({1, 2}), 1.0),)

    def test_sum_of_monomials(self):
        obs = cli.parse_observable("s[1]*s[2] + s[1]*s[3]")
        assert len(obs.terms) == 2
        assert all(c == 1.0 for _, c in obs.terms)

    def test_like_term_merge(self):
        obs = cli.parse_observable("2.5 s[4] - s[4]")
        assert obs.terms == ((frozenset({4}), 1.5),)

    def test_square_reduces_to_constant(self):
        obs = cli.parse_observable("s[2]*s[2]")
        assert obs.terms == ((frozenset(), 1.0),)

    def test_whitespace_insensitive(self):
        a = cli.parse_observable(" s[ 1 ] * s[2]+ 0.5s[3] ")
        b = cli.parse_observable("s[1]*s[2]+0.5*s[3]")
        assert a == b

    def test_leading_sign(self):
        obs = cli.parse_observable("-s[1] + 2*s[2]")
        assert dict(obs.terms) == {frozenset({1}): -1.0, frozenset({2}): 2.0}

    def test_zero_coefficients_dropped(self):
        obs = cli.parse_observable("s[1] - s[1] + s[2]")
        assert obs.terms == ((frozenset({2}), 1.0),)

    def test_index_zero_rejected_with_position(self):
        with pytest.raises(ObservableSyntaxError) as err:
            cli.parse_observable("s[1] + s[0]")
        assert err.value.position == 9

    def test_syntax_errors_carry_position(self):
        for text, pos in [("s[1] @", 5), ("2.5", 3), ("s[1] + + s[2]", 7), ("s[", 0)]:
            with pytest.raises(ObservableSyntaxError) as err:
                cli.parse_observable(text)
            assert err.value.position == pos

    def test_round_trip_examples(self):
        for text in ["s[1]*s[2]", "2.5*s[4]", "-s[1] + 0.125*s[2]*s[6]", "s[3]"]:
            obs = cli.parse_observable(text)
            assert cli.parse_observable(str(obs)) == obs

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sets(st.integers(1, 30), min_size=0, max_size=3),
                st.floats(-8, 8, allow_nan=False).filter(lambda c: abs(c) > 1e-6),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_round_trip_property(self, pairs):
        obs = Observable.make([(sorted(k), c) for k, c in pairs])
        if not obs.terms:  # the zero observable prints as "0"
            return
        assert cli.parse_observable(str(obs)) == obs


def run_cli(*argv):
    return cli.main(list(argv))


class TestScgfCommand:
    def test_curve_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "scgf.csv"
        code = run_cli(
            "scgf", "--beta", "0", "--J", "1", "--h", "0",
            "--f", "s[1]*s[2]", "--t", "-3:3:0.1", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,F,Fprime,trunc_err"
        assert len(lines) == 62
        for line in lines[1:]:
            t, F, Fp, err = (float(v) for v in line.split(","))
            assert F == pytest.approx(math.log(math.cosh(t)), abs=1e-8)
            assert Fp == pytest.approx(math.tanh(t), abs=1e-6)
        meta = json.loads((tmp_path / "scgf.csv.meta.json").read_text())
        assert meta["command"] == "scgf"
        assert meta["config"]["f"] == "s[1]*s[2]"

    def test_golden_determinism_across_runs(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run_cli(
                "scgf", "--beta", "1", "--J", "0.7", "--h", "0",
                "--f", "s[1]*s[2]", "--t", "-1:1:0.05", "--output", str(out),
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command, flag, header", [
        ("scgf", "--t", "t,F,Fprime,trunc_err"),
        ("rate", "--x", "x,I,t_star,domain_flag"),
    ])
    def test_empty_grid_writes_header_and_sidecar(self, tmp_path, command, flag, header):
        out = tmp_path / "empty.csv"
        assert run_cli(command, "--f", "s[1]*s[2]", flag, "1:0:0.5", "--output", str(out)) == 0
        assert out.read_text() == header + "\n"
        meta = json.loads((tmp_path / "empty.csv.meta.json").read_text())
        assert meta["command"] == command
        if command == "scgf":
            assert meta["max_trunc_err"] == "0.0"

    def test_exact_slope_at_zero_tilt(self, tmp_path):
        # at h = 0 the bonds are iid with mean tanh(beta J); F'(0) is exact
        # even though the truncation bound of F vanishes at t = 0
        out = tmp_path / "zero.csv"
        assert run_cli("scgf", "--beta", "1", "--J", "0.7", "--h", "0",
                       "--f", "s[1]*s[2]", "--t", "0", "--output", str(out)) == 0
        t, F, Fp, err = (float(v) for v in out.read_text().splitlines()[1].split(","))
        assert abs(Fp - math.tanh(0.7)) <= 1e-12
        assert abs(F) <= 1e-15 and err == 0.0

    def test_large_tilts_of_a_scaled_coupling(self, tmp_path):
        # 10 s1 s2 at beta = 0: F(t) = log cosh 10t, far past the tilts where
        # the window weights span more than the double range
        out = tmp_path / "wide.csv"
        assert run_cli("scgf", "--beta", "0", "--J", "1", "--h", "0",
                       "--f", "10*s[1]*s[2]", "--t", "-20:20:0.1", "--output", str(out)) == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.read_text().splitlines()[1:]])
        t = rows[:, 0]
        assert rows.shape[0] == 401
        assert np.allclose(rows[:, 1], np.logaddexp(10 * t, -10 * t) - math.log(2.0),
                           rtol=1e-13, atol=1e-12)
        assert np.allclose(rows[:, 2], 10 * np.tanh(10 * t), rtol=0.0, atol=1e-10)

    def test_non_dyadic_series_table(self, tmp_path):
        out = tmp_path / "series.csv"
        code = run_cli(
            "scgf", "--beta", "0", "--J", "1", "--h", "0",
            "--f", "s[1]*s[2] + s[1]*s[3]", "--t", "0.1",
            "--tol", "0.05", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "j,n_j,w_j,Psi_j,partial_sum,tail_bound"
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        meta = json.loads((tmp_path / "series.csv.meta.json").read_text())
        assert "value" in meta

    def test_large_prime_index_series_table(self, tmp_path):
        # 10^18 + 3 is prime: the basis is (2, 10^18 + 3), found in milliseconds
        out = tmp_path / "series.csv"
        assert run_cli("scgf", "--beta", "1", "--f", "s[1]*s[1000000000000000003]",
                       "--t", "0.1", "--tol", "0.05", "--output", str(out)) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows)) and rows[-1, 5] < 0.05

    def test_unfactorable_index_exits_4(self, capsys):
        assert run_cli("scgf", "--f", f"s[1]*s[{65537**2}]", "--t", "0.1") == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 4 and "cannot factor 4295098369" in err["message"]

    def test_unreachable_series_tolerance_exits_4_at_once(self, capsys, monkeypatch):
        # the mass floor at the term cap, 1.09e-165 for (2, 3), is above
        # 1e-300, so no weight is streamed
        def no_terms(basis):
            raise AssertionError("a term was pulled")
            yield

        monkeypatch.setattr(arith, "iter_kie_weights", no_terms)
        assert run_cli("scgf", "--f", "s[1]*s[3]", "--t", "1", "--tol", "1e-300") == 4
        assert json.loads(capsys.readouterr().err)["error"]["code"] == 4

    def test_non_dyadic_grid_is_usage_error(self, capsys):
        code = run_cli(
            "scgf", "--beta", "0", "--f", "s[1]*s[3]", "--t", "-1:1:0.5"
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 2


    @pytest.mark.parametrize("t", ["nan", "inf", "-inf", "0.5,nan"])
    def test_non_finite_tilt_is_usage_error(self, capsys, t):
        assert run_cli("scgf", "--beta", "1", "--t", t) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 2 and "tilt" in err["message"]

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_multiprime_non_finite_tilt_is_usage_error(self, capsys, t):
        assert run_cli("scgf", "--beta", "1", "--f", "s[1]*s[3]", "--t", t) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 2 and "tilt" in err["message"]

    @pytest.mark.parametrize("route", [["kie-weights", "--primes", "2,3"],
                                       ["scgf", "--f", "s[1]*s[3]", "--t", "0.1"],
                                       ["scgf", "--f", "s[1]*s[2]", "--t", "0.1"]])
    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_tolerance_that_is_not_positive_is_usage_error(self, capsys, route, tol):
        assert run_cli(*route, "--tol", tol) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 2 and "must be positive" in err["message"]

    @pytest.mark.parametrize("model", [["--J", "1e308"], ["--J", "1", "--h", "1e308"]])
    def test_multiprime_non_finite_table_exits_3(self, tmp_path, capsys, model):
        # 2 beta*J or beta*h overflows, so the transfer data do not exist;
        # no table with NaN rows is left
        code = run_cli("scgf", "--beta", "1", *model, "--f", "s[1]*s[3]", "--t", "0.1",
                       "--tol", "0.05", "--output", str(tmp_path / "series.csv"))
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"]["code"] == 3
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model", [["--J", "25"], ["--J", "1", "--h", "400"]])
    def test_multiprime_table_at_strong_coupling_and_field(self, tmp_path, model):
        # Q(+,-) is about e^{-50} at --J 25; pi(-) is about e^{-800} at --h 400
        out = tmp_path / "series.csv"
        assert run_cli("scgf", "--beta", "1", *model, "--f", "s[1]*s[3]", "--t", "0.1",
                       "--tol", "0.05", "--output", str(out)) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows))
        params = ModelParams(1.0, float(model[1]), float(model[3]) if len(model) > 2 else 0.0)
        basis, fstar = multiprime.extend_observable(Observable.make([((1, 3), 1.0)]))
        for j, psi in zip(rows[:, 0].astype(int), rows[:, 3]):
            region = oracles.canonical_region(basis, int(j))
            want = brute_region_pressure(region.points, fstar, 0.1, params)
            assert psi == pytest.approx(want, abs=1e-12)


class TestRateCommand:
    def test_rate_csv(self, tmp_path):
        out = tmp_path / "rate.csv"
        code = run_cli(
            "rate", "--beta", "0", "--J", "1", "--h", "0",
            "--f", "s[1]*s[2]", "--x", "-1.5:1.5:0.5", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,I,t_star,domain_flag"
        rows = [line.split(",") for line in lines[1:]]
        by_x = {float(r[0]): r for r in rows}
        assert float(by_x[0.5][1]) == pytest.approx(0.13081, abs=1e-4)
        assert by_x[1.5][1] == "inf" and by_x[1.5][3] == "1"
        assert by_x[0.0][3] == "0"

    def test_non_dyadic_observable_is_usage_error(self, capsys):
        # rate takes the one-prime route only
        assert run_cli("rate", "--f", "s[1]*s[3]", "--x", "0.1") == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 2 and err["type"] == "ValueError"
        assert "site index 3 is not a power of two" in err["message"]

    def test_large_prime_index_is_usage_error(self, capsys):
        assert run_cli("rate", "--f", "s[1]*s[1000000000000000003]", "--x", "0.1") == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 2 and "site index 1000000000000000003" in err["message"]


class TestScalarCommands:
    def test_free_energy_json(self, capsys):
        assert run_cli("free-energy", "--beta", "1", "--J", "1", "--h", "0") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plus"] > payload["free"]
        assert payload["plus"] == payload["minus"]

    def test_free_energy_low_temperature(self, capsys):
        # at beta = 800 every exponential overflows a double; the free
        # boundary value is log 2 + log 2cosh(beta J) in closed form
        assert run_cli("free-energy", "--beta", "800") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["free"] == pytest.approx(math.log(2) + 800.0, abs=1e-9)

    def test_free_energy_overflowing_coupling_exits_3(self, capsys):
        # beta*J overflows to inf, so no series depth bounds the tail
        assert run_cli("free-energy", "--beta", "1e200", "--J", "1e200", "--h", "0") == 3
        assert json.loads(capsys.readouterr().err)["error"]["code"] == 3

    def test_entropy_all_modes(self, capsys):
        assert run_cli("entropy", "--beta", "1", "--J", "1", "--h", "0", "--mode", "all") == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("series", "formula", "closed_h0"):
            assert payload[key] == pytest.approx(0.529238, abs=1e-5)
        assert payload["units"] == "nats"

    def test_entropy_bits(self, capsys):
        assert run_cli("entropy", "--beta", "1", "--J", "0", "--h", "0",
                       "--mode", "closed_h0", "--units", "bits") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_h0"] == pytest.approx(1.0, abs=1e-12)

    def test_entropy_precondition_exit_code(self, capsys):
        code = run_cli("entropy", "--beta", "1", "--J", "1", "--h", "0.5",
                       "--mode", "closed_h0")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 3

    def test_infeasible_window_exit_code(self, capsys):
        code = run_cli("scgf", "--beta", "1", "--f", "s[1]*s[8192]", "--t", "0.5")
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["code"] == 4

    def test_unreachable_weight_tolerance_exit_code(self, capsys, monkeypatch):
        def no_terms(basis):
            raise AssertionError("a term was pulled")
            yield

        monkeypatch.setattr(arith, "iter_kie_weights", no_terms)
        code = run_cli("kie-weights", "--primes", "2,3,5,7", "--tol", "1e-100")
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"]["code"] == 4

    def test_kie_weights_with_a_large_prime(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run_cli("kie-weights", "--primes", "2,1000000000000000003", "--tol", "1e-3",
                       "--output", str(out)) == 0
        meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
        assert float(meta["truncation_tail"]) < 1e-3

    def test_kie_weights_csv(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run_cli("kie-weights", "--primes", "2,3", "--tol", "1e-8",
                       "--output", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "j,n_j,w_j"
        j, n, w = lines[1].split(",")
        assert (j, n) == ("1", "1")
        assert float(w) == pytest.approx(1 / 6, abs=0)
        meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
        assert meta["kappa_exact"] == "1/3"

    def test_invariance_json(self, capsys):
        assert run_cli("invariance", "--beta", "1", "--J", "1", "--h", "0",
                       "--indices", "1,2,3", "--multiplier", "5") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant"] is True
        assert run_cli("invariance", "--beta", "1", "--J", "1", "--h", "0.5",
                       "--indices", "1,2", "--multiplier", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariant"] is False
        assert payload["max_abs_diff_prob"] > 1e-4

    def test_smb_json(self, capsys):
        assert run_cli("smb", "--beta", "0", "--J", "1", "--h", "0",
                       "--N", "256", "--count", "50", "--seed", "1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean"] == pytest.approx(math.log(2), abs=1e-12)
        assert payload["entropy_closed_h0"] == math.log(2)


class TestSampleCommand:
    def test_binary_round_trip(self, tmp_path):
        out = tmp_path / "batch.bin"
        assert run_cli("sample", "--beta", "1", "--J", "1", "--h", "0",
                       "--N", "8", "--count", "5", "--seed", "7",
                       "--format", "bin", "--output", str(out)) == 0
        from multising.gibbs import SampleBatch, sample
        from multising.ising1d import ModelParams

        back = SampleBatch.load_binary(out)
        direct = sample(8, ModelParams(1.0, 1.0, 0.0), 5, 7)
        assert np.array_equal(back.configurations, direct.configurations)

    def test_sidecar_records_stream_version(self, tmp_path):
        out = tmp_path / "batch.bin"
        assert run_cli("sample", "--N", "8", "--count", "2", "--seed", "3",
                       "--format", "bin", "--output", str(out)) == 0
        meta = json.loads((tmp_path / "batch.bin.meta.json").read_text())
        assert meta["stream_version"] == 3
        assert (meta["N"], meta["count"], meta["seed"]) == (8, 2, 3)

    def test_large_seed_round_trip(self, tmp_path):
        from multising.gibbs import SampleBatch

        out = tmp_path / "batch.bin"
        seed = (1 << 60) + 1
        assert run_cli("sample", "--N", "16", "--count", "3", "--seed", str(seed),
                       "--format", "bin", "--output", str(out)) == 0
        assert SampleBatch.load_binary(out).seed == seed

    def test_seed_outside_header_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "batch.bin"
        assert run_cli("sample", "--N", "4", "--count", "2", "--seed", str(1 << 64),
                       "--format", "bin", "--output", str(out)) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == 2
        assert not out.exists()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "batch.csv"
        assert run_cli("sample", "--beta", "1", "--N", "4", "--count", "3",
                       "--seed", "7", "--format", "csv", "--output", str(out)) == 0
        assert out.read_text().splitlines()[0] == "site_1,site_2,site_3,site_4"

    def test_requires_output(self, capsys):
        assert run_cli("sample", "--beta", "1", "--N", "4") == 2

    def test_memory_error_exits_4_with_json(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 931. GiB")

        monkeypatch.setattr(gibbs, "sample", out_of_memory)
        out = tmp_path / "batch.bin"
        assert run_cli("sample", "--N", "4", "--output", str(out)) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"code": 4, "type": "MemoryError", "message": "Unable to allocate 931. GiB"}
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_config_supplies_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 1.0\nJ = 0\nh = 0\nmode = closed_h0\n# comment\n")
        assert run_cli("entropy", "--config", str(cfg)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_h0"] == math.log(2)
        assert run_cli("entropy", "--config", str(cfg), "--J", "1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_h0"] == pytest.approx(0.529238, abs=1e-5)

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta: 1.0\n")
        assert run_cli("entropy", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("command, line, message", [
        ("entropy", "units = furlongs", "units: invalid choice 'furlongs'"),
        ("sample", "N = abc", "N: invalid int value 'abc'"),
        ("entropy", "beta = one", "beta: invalid float value 'one'"),
    ])
    def test_config_values_are_checked_like_flags(self, tmp_path, capsys, command, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run_cli(command, "--config", str(cfg), "--output", str(tmp_path / "o")) == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"].startswith(message)
        assert list(tmp_path.iterdir()) == [cfg]

    def test_flag_and_config_errors_read_alike(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("units = furlongs\n")
        assert run_cli("entropy", "--config", str(cfg)) == 2
        from_file = json.loads(capsys.readouterr().err)
        assert run_cli("entropy", "--units", "furlongs") == 2
        assert json.loads(capsys.readouterr().err) == from_file

    def test_undeclared_config_keys_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta = 0\nprimes = 2,3\nunits = furlongs\n")
        assert run_cli("free-energy", "--config", str(cfg), "--bc", "free") == 0
        assert json.loads(capsys.readouterr().out)["free"] == pytest.approx(2 * math.log(2), abs=1e-9)
        assert run_cli("kie-weights", "--config", str(cfg), "--tol", "1e-3") == 0
        assert capsys.readouterr().out.splitlines()[0] == "j,n_j,w_j"


# a cheap run of every command that has options
CHEAP_RUNS = {
    "scgf": ["--t", "0.5"],
    "rate": ["--x", "0.1"],
    "free-energy": [],
    "entropy": [],
    "sample": ["--N", "4", "--count", "2"],
    "smb": ["--N", "16", "--count", "4"],
    "invariance": [],
    "kie-weights": ["--primes", "2", "--tol", "1e-3"],
}


def parser_options(command):
    """The --name options of one subcommand's parser, without --help."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in sub.choices[command]._actions for s in a.option_strings}
    return {s[2:] for s in flags if s.startswith("--")} - {"help"}


class TestOptions:
    def test_every_command_with_options_has_a_cheap_run(self):
        commands = [c for c in cli._COMMANDS if parser_options(c)]
        assert sorted(commands) == sorted(CHEAP_RUNS)
        assert parser_options("verify") == set()

    @pytest.mark.parametrize("command", sorted(CHEAP_RUNS))
    def test_every_declared_option_is_read_and_echoed(self, tmp_path, monkeypatch, command):
        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        read = set()
        resolve = cli._resolve
        monkeypatch.setattr(cli, "_resolve", lambda args: Recording(resolve(args)))
        out = tmp_path / "out"
        assert run_cli(command, *CHEAP_RUNS[command], "--output", str(out)) == 0
        meta = json.loads((tmp_path / "out.meta.json").read_text())
        assert set(meta["config"]) == parser_options(command) - {"config"}
        assert read == set(meta["config"])

    def test_option_count(self):
        assert sum(len(parser_options(c)) for c in cli._COMMANDS) == 61

    @pytest.mark.parametrize("argv", [
        ["scgf", "--bogus", "1"],
        ["scgf", "--t"],
        ["sample", "--N", "abc", "--output", "x.bin"],
        ["entropy", "--units", "furlongs"],
        ["free-energy", "--bc", "periodic"],
        ["kie-weights", "--beta", "1"],
        ["kie-weights", "--J", "7"],
        ["smb", "--tol", "1"],
        ["sample", "--tol", "1"],
        ["invariance", "--tol", "1"],
        ["verify", "--config", "x.cfg"],
        ["no-such-command"],
        [],
    ])
    def test_usage_errors_exit_2_with_json(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)["error"]
        assert err["code"] == 2 and err["type"] == "ValueError"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag, value", [("kie-weights", "primes", "2,x"),
                                                      ("invariance", "indices", "1,x")])
    def test_bad_int_list_names_its_option(self, capsys, command, flag, value):
        assert run_cli(command, "--" + flag, value) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == f"{flag}: invalid int_list value {value!r}"

    def test_value_starting_with_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("scgf", "--f", "-s[1]*s[2]", "--t", "0.5", "--output", "a.csv") == 0
        assert run_cli("scgf", "--f=-s[1]*s[2]", "--t", "0.5", "--output", "b.csv") == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("argv", [["--help"], ["scgf", "--help"], ["verify", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            run_cli(*argv)
        assert exit_.value.code == 0
        assert "usage: multising" in capsys.readouterr().out

    def test_version_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli("--version")
        assert exit_.value.code == 0
        assert capsys.readouterr().out.strip() == multising.__version__


def fraction_grid(spec):
    """Reference grid: the count truncated toward zero, each point
    float(Fraction)."""
    start, stop, step = (Fraction(p) for p in spec.split(":"))
    return np.array([float(start + i * step) for i in range(int((stop - start) / step) + 1)])


class TestParseGrid:
    @pytest.mark.parametrize("spec", ["-3:3:0.0002", "-0.9:0.9:0.1", "1e-3:2e-2:1e-3",
                                      "1:0.9:0.5", "1:0:0.5", "0:0:1", "0:1:0.3",
                                      "-2.5:7:0.75", "1e-20:3e-19:7e-21"])
    def test_range_has_the_bits_of_fraction_points(self, spec):
        got = cli._parse_grid(spec)
        assert got.dtype == np.float64
        assert got.tobytes() == fraction_grid(spec).tobytes()

    def test_decimal_points_and_truncating_count(self):
        assert 0.5 in cli._parse_grid("-0.9:0.9:0.1").tolist()
        assert cli._parse_grid("1:0.9:0.5").tolist() == [1.0]
        assert cli._parse_grid("1:0:0.5").size == 0
        assert cli._parse_grid("0:0:1").tolist() == [0.0]
        assert cli._parse_grid("0:1:0.3").tolist() == [0.0, 0.3, 0.6, 0.9]
        assert cli._parse_grid("-3:3:0.0002").size == 30001

    def test_list_and_single_value(self):
        assert cli._parse_grid("0.1,-2,3e-4").tolist() == [0.1, -2.0, 3e-4]
        assert cli._parse_grid("0.25").tolist() == [0.25]

    @pytest.mark.parametrize("spec", ["1:2", "1:2:3:4", "a:1:0.1", "0:1:0", "0:1:-0.1",
                                      "1/0:1:0.1", "x", "1,y", ""])
    def test_bad_specs_raise_value_error(self, spec):
        with pytest.raises(ValueError):
            cli._parse_grid(spec)

    def test_bad_spec_exits_2(self, capsys):
        assert run_cli("scgf", "--t", "0:1:0") == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == 2

    def test_points_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 11)
        assert cli._parse_grid("0:1:0.1").size == 11
        with pytest.raises(InfeasibleSizeError, match="12 points"):
            cli._parse_grid("0:1.1:0.1")

    @pytest.mark.parametrize("argv", [["scgf", "--t=-3:3:1e-9"], ["rate", "--x=0:0.9:1e-9"]])
    def test_grid_past_the_cap_exits_4_before_any_point(self, capsys, argv):
        # 6e9 and 9e8 points: refused on the count, with no point built
        assert run_cli(*argv) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 4 and err["type"] == "InfeasibleSizeError"
        assert f"points (cap {cli._MAX_GRID_POINTS})" in err["message"]


def csv_reference(header, columns):
    """The CSV contract, one row at a time."""
    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns])
    lines = [",".join(header)] + [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    COLUMNS = [
        np.array([0.1, -0.0, 1e-300, math.inf, -math.inf, math.nan, 2.0 / 3.0]),
        np.arange(-3, 4),
        range(1, 8),
        tuple(3**k for k in range(0, 140, 20)),
        {j: 1.0 / j for j in range(1, 8)}.values(),
    ]

    @pytest.mark.parametrize("chunk", [1, 3, 7, 8192])
    def test_columns_across_chunk_boundaries(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", chunk)
        out = tmp_path / "t.csv"
        header = ["a", "b", "c", "d", "e"]
        cli.write_csv(str(out), header, self.COLUMNS)
        text = out.read_text()
        assert text == csv_reference(header, self.COLUMNS)
        lines = text.splitlines()
        assert lines[1] == "0.1,-3,1,1,1.0"
        assert [line.split(",")[0] for line in lines[4:7]] == ["inf", "-inf", "nan"]
        assert "np." not in text

    def test_stdout_and_empty_table(self, capsys):
        cli.write_csv(None, ["x", "y"], [np.array([0.5, 1.5]), (2, 3)])
        assert capsys.readouterr().out == "x,y\n0.5,2\n1.5,3\n"
        cli.write_csv(None, ["x"], [np.array([])])
        assert capsys.readouterr().out == "x\n"

    @pytest.mark.parametrize("rows", [0, 1, 8191, 8192, 8193, 16385])
    def test_row_counts_around_the_chunk_size(self, tmp_path, rows):
        assert cli._CSV_CHUNK_ROWS == 8192
        rng = np.random.default_rng(rows)
        columns = [
            rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
            rng.integers(-2**62, 2**62, rows),
            tuple(7 ** (k % 200) for k in range(rows)),
            range(rows, 2 * rows),
            {k: 1.0 / (k + 1) for k in range(rows)}.values(),
        ]
        out = tmp_path / "t.csv"
        header = ["a", "b", "c", "d", "e"]
        cli.write_csv(str(out), header, columns)
        assert out.read_text() == csv_reference(header, columns)

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="equal"):
            cli.write_csv(str(tmp_path / "t.csv"), ["a", "b"], [np.zeros(3), range(2)])
        assert not (tmp_path / "t.csv").exists()


class TestJsonOutput:
    def test_non_finite_value_exits_3_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gibbs, "free_energy", lambda *args, **kwargs: math.nan)
        out = tmp_path / "fe.json"
        assert run_cli("free-energy", "--output", str(out)) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 3 and err["message"].startswith("free, minus, plus:")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_list_entry_is_named(self, capsys):
        with pytest.raises(PreconditionError, match="^a: not finite"):
            cli._write_json(None, {"a": [1.0, -math.inf], "b": 2.0, "c": "nan"})
        assert capsys.readouterr().out == ""


# SHA-256 of the CSV and of its sidecar, with the output named out.csv in the
# working directory (the sidecar echoes the output path and the package
# version).  The values were computed with the row-list CSV writer and the
# Fraction-per-point grid that the column writer and the integer grid
# replaced; every CSV byte is part of the output contract.  The
# scgf-30001-tilts CSV was re-pinned when transfer moved to closed-form logs:
# its F and F' moved by at most 8.9e-16 and 5.6e-16.  The readme-scgf,
# readme-rate and scgf-30001-tilts CSVs were re-pinned when the tilted pass
# came to merge predecessor pairs by the last step's normalised weights:
# F moved by at most 1.3e-15 and F' by 5.6e-16 (4.4e-16 and 2.2e-16 in
# readme-scgf), I by 3.3e-16 and t* by 1.2e-15, and trunc_err and every
# sidecar byte are unchanged.  The three kie-weights
# CSVs stop at the first J whose exact remaining mass is below --tol: 387,
# 2,608 and 1,006 rows (n_j of up to 303 digits in kie-weights-2-deep).  Each
# is the J-row prefix of the CSV that the conservative analytic tail bound
# wrote (1,941, 186,712 and 1,008 rows), hashed on that code; the sidecars
# were re-pinned for the exact truncation_tail and the sums it bounds.  The
# zero and constant observables, pinned when the router came to factor every
# index, take the one-prime route: F is 0 and t, with no index to factor.
BYTE_IDENTITY = {
    "readme-scgf": (
        ["scgf", "--beta", "0", "--J", "1", "--h", "0", "--f", "s[1]*s[2]", "--t", "-3:3:0.1"],
        "b3eb25a7a1a8383f6f182b25f83a5498d1d722491a7fef77bc0c03aa7985a789",
        "3864d20abff49ac2749f0b8d7f4fcf5b63e1412f2051eb7aef16eea44a6343ab",
    ),
    "readme-rate": (
        ["rate", "--beta", "0", "--J", "1", "--h", "0", "--f", "s[1]*s[2]", "--x", "-0.9:0.9:0.05"],
        "7ffa1871b12c82f4694a338fbc4c3fb783b69aa8907e8e32b3d0720051cefbcd",
        "24f17ca409ca6453af6e674d701965046a769483cbb39b9081c0458b2a0c3cab",
    ),
    "readme-series": (
        ["scgf", "--beta", "0", "--f", "s[1]*s[2] + s[1]*s[3]", "--t", "0.1", "--tol", "0.05"],
        "124b4a8be599adffdc8c75942aeb0250fa2778fb5a20cb7e09f9afcda4f9f12e",
        "a5b546e8fa82cc4d198edbf8c6c370e65a7eccba34ddfeb980628f14e9094052",
    ),
    "readme-kie-weights-2-3": (
        ["kie-weights", "--primes", "2,3", "--tol", "1e-8"],
        "4b151597b4bf8a74e863fb84ce753c5a581ea01461a23aa88343156d49da5a84",
        "71d7a7139700ac303edf8adced0867bbc43f7aaf91e561b71a65ad2116aa8b1d",
    ),
    "kie-weights-2-3-5": (
        ["kie-weights", "--primes", "2,3,5", "--tol", "1e-8"],
        "a7934793fc76eb7e7ab435b3c3f12ace68e860b5742194080dbc9d422520dde9",
        "6ea6b62cb18844abc207243964dc02f79478b9bce4efe1012f435faa1cf908b3",
    ),
    "kie-weights-2-deep": (
        ["kie-weights", "--primes", "2", "--tol", "1e-300"],
        "37ab66a9fb42aa6a1a04115b71118bcabfc7d20a3e8674b26e531a9fdcf6a19a",
        "19b1738439b97676818e34fe43e7b7d2d293e06a37f98929e9f0d73ec0ca54e2",
    ),
    "scgf-zero-observable": (
        ["scgf", "--f", "s[1] - s[1]", "--t", "0.5"],
        "d64998c023c509d553204deb5de010dbf8ea4230a99224c07b0b6c097e992576",
        "00fae7e0122ec7178b7f097748c31758ceabc4a139946a45c56cd7a5900b2347",
    ),
    "scgf-constant-observable": (
        ["scgf", "--f", "s[1]*s[1]", "--t", "0.5"],
        "7e1243db8e7572feed7863ea7f0c502ef63925feb5ea9dc13e8b6a4dd00fb244",
        "3ddbd1fa9b58aae90df33f053b9fc5e916ecb13ebdcea63ab470c4f7351ab921",
    ),
    "scgf-30001-tilts": (
        ["scgf", "--beta", "1", "--J", "1", "--h", "0.3", "--t", "-3:3:0.0002"],
        "d420eaf7ec4e032ed29bdae183adecf22c50a860d725bddf16421c1b8d403237",
        "ca5f3506a46ede878c481ccd6daf7626e422ad5b1ffc20c1be73dac5ef3cd922",
    ),
}


@pytest.mark.parametrize("name", sorted(BYTE_IDENTITY))
def test_outputs_are_byte_identical(tmp_path, monkeypatch, name):
    argv, csv_sha, meta_sha = BYTE_IDENTITY[name]
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--output", "out.csv") == 0
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256((tmp_path / "out.csv.meta.json").read_bytes()).hexdigest() == meta_sha
