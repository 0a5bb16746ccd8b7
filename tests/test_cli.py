import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multising import arith, cli, gibbs, multiprime
from multising.arith import PrimeBasis
from multising.errors import ObservableSyntaxError, PreconditionError
from multising.ising1d import ModelParams
from multising.multiprime import RegionPressureKey
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
        if obs.is_zero():
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
        model_d, fstar = multiprime.extend_observable(Observable.make([((1, 3), 1.0)]),
                                                      PrimeBasis((2,)), params)
        for j, psi in zip(rows[:, 0].astype(int), rows[:, 3]):
            key = RegionPressureKey(arith.canonical_region(model_d.basis, int(j)), fstar, 0.1)
            assert psi == pytest.approx(oracles.enumerated_region_pressure(key, model_d), abs=1e-12)


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

    def test_unreachable_weight_tolerance_exit_code(self, capsys):
        code = run_cli("kie-weights", "--primes", "2,3,5,7", "--tol", "1e-5")
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"]["code"] == 4

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
        assert meta["stream_version"] == 2
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
# its F and F' moved by at most 8.9e-16 and 5.6e-16.  The kie-weights-2-3-5
# (186,712 rows) and kie-weights-2-deep (n_j of up to 304 digits) values were
# computed with the heap-merge smooth stream and the dict of weights that the
# bounded enumeration and the weight array replaced.
BYTE_IDENTITY = {
    "readme-scgf": (
        ["scgf", "--beta", "0", "--J", "1", "--h", "0", "--f", "s[1]*s[2]", "--t", "-3:3:0.1"],
        "9480926c2fe19506f95ef0444bbf4fca7eda475361e5a50423519821838a032c",
        "3864d20abff49ac2749f0b8d7f4fcf5b63e1412f2051eb7aef16eea44a6343ab",
    ),
    "readme-rate": (
        ["rate", "--beta", "0", "--J", "1", "--h", "0", "--f", "s[1]*s[2]", "--x", "-0.9:0.9:0.05"],
        "7d0901562283dbe480d8f4a845cc45666d8f7a6bc51211eefe26d80218c2b7cb",
        "24f17ca409ca6453af6e674d701965046a769483cbb39b9081c0458b2a0c3cab",
    ),
    "readme-series": (
        ["scgf", "--beta", "0", "--f", "s[1]*s[2] + s[1]*s[3]", "--t", "0.1", "--tol", "0.05"],
        "124b4a8be599adffdc8c75942aeb0250fa2778fb5a20cb7e09f9afcda4f9f12e",
        "a5b546e8fa82cc4d198edbf8c6c370e65a7eccba34ddfeb980628f14e9094052",
    ),
    "readme-kie-weights-2-3": (
        ["kie-weights", "--primes", "2,3", "--tol", "1e-8"],
        "91ca0dab789f5cd2e5ea700255b65ce1523a811192a8e20b2faabe575a60e086",
        "dea935a06e4b917e643c23c291382e6b413433b2d31458488bf0ad0cd3b7a32a",
    ),
    "kie-weights-2-3-5": (
        ["kie-weights", "--primes", "2,3,5", "--tol", "1e-8"],
        "7555d6e0e14d514ad9ede9d4266880c90f8e339eb938c46f0837f81d6926e9b6",
        "d72ff3fd7a82737bb197a533df81e88133d06ffeb89f4ac59e323d761e7713b7",
    ),
    "kie-weights-2-deep": (
        ["kie-weights", "--primes", "2", "--tol", "1e-300"],
        "f686fd181bc7def063857e5c5cfe3dbf24019c8101dc8289780fe8d15ff2a6a2",
        "17d4b2bbfaf354de43788c6a4199949fe1de1f8e6f3807efa65445ea446b4bdc",
    ),
    "scgf-30001-tilts": (
        ["scgf", "--beta", "1", "--J", "1", "--h", "0.3", "--t", "-3:3:0.0002"],
        "31796fdd7e7c54e5e965a67383a4d7e186793a12fc9c7f255902fd2b1ef40737",
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
