"""Command-line surface: file formats, exit codes, manifests, determinism."""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recsel
from recsel import cli, datasets, families, montecarlo, stationarity
from recsel.errors import DataError, UsageError

RAINFALL = datasets.RAINFALL_RECORD_VALUES
RAIN_FAMILY = '{"kind": "proportional_hazard", "member": "custom", "params": {"custom_H": {"shift": 4, "power": 1.9, "scale": 1}}}'


def run(*argv):
    return cli.main(list(argv))


def write_sequence(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n", encoding="utf-8")


class TestRecordsCommand:
    def test_bundled_rainfall(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("records", "--input", "lacc-rainfall-records", "--out", str(out)) == 0
        lines = (out / "records.csv").read_text().strip().splitlines()
        assert lines[0] == "index,time,value"
        assert len(lines) == 9
        assert lines[1] == "1,1,12.69"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "records"
        assert manifest["tool_version"]
        assert any(k.endswith("lacc_rainfall_records.txt") for k in manifest["input_digests"])

    def test_single_value(self, tmp_path):
        seq = tmp_path / "one.txt"
        write_sequence(seq, [7.5])
        out = tmp_path / "o"
        assert run("records", "--input", str(seq), "--out", str(out)) == 0
        lines = (out / "records.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_malformed_line_names_lineno(self, tmp_path, capsys):
        seq = tmp_path / "bad.txt"
        seq.write_text("1.0\nnot-a-number\n2.0\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("records", "--input", str(seq), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "bad.txt:2" in err

    def test_csv_column(self, tmp_path):
        seq = tmp_path / "data.csv"
        seq.write_text("year,rain\n1890,3.0\n1891,1.0\n1892,4.0\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("records", "--input", str(seq), "--column", "rain", "--out", str(out)) == 0
        lines = (out / "records.csv").read_text().strip().splitlines()
        assert lines[1:] == ["1,1,3", "2,3,4"]

    def test_csv_comment_cell_names_its_line(self, tmp_path, capsys):
        # CSV cells are not comment-stripped: '# 5' is a value that does not
        # parse, on line 4 of the file, past the blank line
        seq = tmp_path / "data.csv"
        seq.write_text("year,rain\n1890,3.0\n\n1891,# 5\n", encoding="utf-8")
        assert run("records", "--input", str(seq), "--column", "rain", "--out", str(tmp_path / "o")) == 3
        assert f"{seq}:4: cannot parse '# 5' as a number" in capsys.readouterr().err

    def test_csv_blank_cells_are_skipped(self, tmp_path):
        seq = tmp_path / "data.csv"
        seq.write_text("year,rain\n1890,3.0\n1891, \n1892\n1893,4.0\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("records", "--input", str(seq), "--column", "rain", "--out", str(out)) == 0
        lines = (out / "records.csv").read_text().strip().splitlines()
        assert lines[1:] == ["1,1,3", "2,2,4"]

    def test_csv_column_without_values(self, tmp_path, capsys):
        seq = tmp_path / "data.csv"
        seq.write_text("year,rain\n1890,\n", encoding="utf-8")
        assert run("records", "--input", str(seq), "--column", "rain", "--out", str(tmp_path / "o")) == 3
        assert f"column 'rain' of {seq} holds no values" in capsys.readouterr().err

    def test_lower_direction(self, tmp_path):
        seq = tmp_path / "s.txt"
        write_sequence(seq, [3, 1, 4, 1, 5])
        out = tmp_path / "o"
        assert run("records", "--input", str(seq), "--direction", "lower", "--out", str(out)) == 0
        lines = (out / "records.csv").read_text().strip().splitlines()
        assert lines[1:] == ["1,1,3", "2,2,1"]

    def test_gamma_family_gives_transformed_records(self, tmp_path):
        seq = tmp_path / "s.txt"
        write_sequence(seq, [1.0, 3.0, 2.0])
        out = tmp_path / "o"
        fam = '{"kind": "gamma_type", "member": "rayleigh"}'
        assert run("records", "--input", str(seq), "--family", fam, "--out", str(out)) == 0
        lines = (out / "records.csv").read_text().strip().splitlines()
        assert lines[1:] == ["1,1,0.5", "2,2,4.5"]

    def test_gamma_family_refuses_lower_direction(self, tmp_path, capsys):
        """Transformed records are upper records; --direction lower would be
        ignored, so it is a usage error before anything is written."""
        out = tmp_path / "o"
        fam = '{"kind": "gamma_type", "member": "rayleigh"}'
        assert run("records", "--input", "lacc-rainfall-records", "--family", fam,
                   "--direction", "lower", "--out", str(out)) == 2
        assert "--direction lower" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestEstimateCommand:
    def test_rainfall_nonstationary(self, tmp_path):
        out = tmp_path / "o"
        assert run("estimate", "--input", "lacc-rainfall-records", "--family", RAIN_FAMILY,
                   "--model", "nonstationary", "--out", str(out)) == 0
        rows = json.loads((out / "estimates.json").read_text())
        h = (np.asarray(RAINFALL) - 4.0) ** 1.9
        spac = np.diff(np.concatenate(([0.0], h)))
        assert [r["estimate"] for r in rows] == pytest.approx(spac.tolist(), rel=1e-9)
        assert rows[0]["band_lo"] >= 0.0

    def test_rainfall_stationary(self, tmp_path):
        out = tmp_path / "o"
        assert run("estimate", "--input", "lacc-rainfall-records", "--family", RAIN_FAMILY,
                   "--model", "stationary", "--out", str(out)) == 0
        rows = json.loads((out / "estimates.json").read_text())
        h = (np.asarray(RAINFALL) - 4.0) ** 1.9
        assert [r["estimate"] for r in rows] == pytest.approx((h / np.arange(1, 9)).tolist(), rel=1e-9)

    def test_single_record_nonstationary_is_usage_error(self, tmp_path, capsys):
        seq = tmp_path / "flat.txt"
        write_sequence(seq, [5.0, 5.0, 5.0])
        out = tmp_path / "o"
        fam = '{"kind": "proportional_hazard", "member": "exponential"}'
        assert run("estimate", "--input", str(seq), "--family", fam,
                   "--model", "nonstationary", "--out", str(out)) == 2
        assert "fewer than 2 records" in capsys.readouterr().err

    def test_band_factor_flag(self, tmp_path):
        out15 = tmp_path / "a"
        out30 = tmp_path / "b"
        fam = '{"kind": "proportional_hazard", "member": "exponential"}'
        seq = tmp_path / "s.txt"
        write_sequence(seq, [1.0, 2.0, 4.0])
        run("estimate", "--input", str(seq), "--family", fam, "--out", str(out15))
        run("estimate", "--input", str(seq), "--family", fam, "--band-factor", "3.0", "--out", str(out30))
        a = json.loads((out15 / "estimates.json").read_text())
        b = json.loads((out30 / "estimates.json").read_text())
        assert b[1]["band_hi"] - b[1]["estimate"] == pytest.approx(
            2.0 * (a[1]["band_hi"] - a[1]["estimate"]), rel=1e-9)

    def test_infinite_canonical_record_is_data_error(self, tmp_path, capsys):
        """-log G(0) = inf for the beta member: the record 0 lies outside its
        support, so neither estimate nor test writes a result."""
        seq = tmp_path / "s.txt"
        write_sequence(seq, [0.5, 0.2, 0.0])
        fam = '{"kind": "proportional_reversed_hazard", "member": "beta"}'
        for command in ("estimate", "test"):
            out = tmp_path / command
            assert run(command, "--input", str(seq), "--family", fam, "--out", str(out)) == 3
            assert "value 0.0 outside support (0.0, 1.0]" in capsys.readouterr().err
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("commands, family, values, message", [
        (("estimate", "test"), '{"kind": "proportional_hazard", "member": "rayleigh"}',
         [1, -1, 2], "value -1.0 outside support [0.0, inf)"),
        (("records",), '{"kind": "gamma_type", "member": "inverse_gaussian"}',
         [1, 0, 2], "value 0.0 outside support (0.0, inf)"),
        (("estimate",), '{"kind": "proportional_hazard", "member": "pareto", "params": {"beta": 2}}',
         [3, 1, 4], "value 1.0 outside support [2.0, inf)"),
        (("estimate",), '{"kind": "proportional_reversed_hazard", "member": "beta"}',
         [0.5, 1.5, 0.2], "value 1.5 outside support (0.0, 1.0]"),
    ], ids=["rayleigh", "inverse-gaussian-zero", "pareto-non-record", "beta-non-record"])
    def test_value_outside_support_is_data_error(self, tmp_path, capsys, commands, family, values, message):
        seq = tmp_path / "s.txt"
        write_sequence(seq, values)
        for command in commands:
            out = tmp_path / command
            assert run(command, "--input", str(seq), "--family", family, "--out", str(out)) == 3
            assert message in capsys.readouterr().err
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("family", [
        '{"kind": "gamma_type", "member": "normal_zero_mean"}',
        '{"kind": "gamma_type", "member": "weibull_known_beta", "params": {"beta": 3}}',
    ], ids=["normal", "weibull"])
    def test_overflowing_canonical_value_is_data_error(self, tmp_path, capsys, family):
        """1e200 is finite and inside the support, but S(1e200) is past
        float64: the error names the overflow, and no numpy warning shows
        (Tier-1 turns warnings into errors)."""
        seq = tmp_path / "s.txt"
        write_sequence(seq, [1, 1e200])
        out = tmp_path / "o"
        assert run("estimate", "--input", str(seq), "--family", family, "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "data error: the canonical value of 1e+200 overflows float64" in err
        assert "Warning" not in err
        assert list(out.iterdir()) == []

    def test_burr_power_past_float64_keeps_a_finite_hazard(self, tmp_path):
        """x**alpha overflows at x = 1e250, alpha = 1.5, but H = log1p(x**alpha)
        is about 1.5 log x = 863.47: the estimate uses that value."""
        seq = tmp_path / "s.txt"
        write_sequence(seq, [1, 1e250])
        out = tmp_path / "o"
        family = '{"kind": "proportional_hazard", "member": "burr", "params": {"alpha": 1.5}}'
        assert run("estimate", "--input", str(seq), "--family", family, "--out", str(out)) == 0
        rows = json.loads((out / "estimates.json").read_text())
        # the nonstationary UMVUE at n = 2 is H(R_2) - H(R_1), with H(1) = log 2
        assert rows[1]["estimate"] == pytest.approx(1.5 * np.log(1e250) - np.log(2), rel=1e-12)

    def test_large_gamma_shape_keeps_a_finite_risk(self, tmp_path, capsys):
        """u**(p+1) overflows at p = 2000 from u = 2 on; the second-moment term
        is then taken scaled by u_prev/u, so the risk estimates stay finite
        (v^2 minus that term: 4.9975e-10 and 1.12444e-09 at n = 2 and 3)."""
        seq = tmp_path / "s.txt"
        write_sequence(seq, [1, 2, 3])
        out = tmp_path / "o"
        family = '{"kind": "gamma_type", "member": "gamma", "p": 2000}'
        assert run("estimate", "--input", str(seq), "--family", family, "--out", str(out)) == 0
        assert "Warning" not in capsys.readouterr().err
        risks = [r["risk_estimate"] for r in json.loads((out / "estimates.json").read_text())]
        u, r = np.array([2.0, 3.0]), np.array([0.5, 2 / 3])
        v = u / 2000 * (1 - r**2000)
        term = u * u * (1 - r**2001 - 2001 * r**2000 * (1 - r)) / (2000 * 2001)
        assert risks[1:] == pytest.approx(v * v - term, rel=1e-9)
        assert risks[1:] == pytest.approx([5.0e-10, 1.1e-9], rel=0.03)

    def test_nan_risk_is_a_numeric_error_naming_n(self, tmp_path, capsys):
        """At u = 1e200 and p = 2000 even the scaled terms overflow, and the
        risk at n = 1 is inf - inf: exit 4 names n, not the band."""
        seq = tmp_path / "s.txt"
        write_sequence(seq, [1e200, 2e200, 3e200])
        out = tmp_path / "o"
        family = '{"kind": "gamma_type", "member": "gamma", "p": 2000}'
        assert run("estimate", "--input", str(seq), "--family", family, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert "numeric error: the estimate or risk estimate at n=1 is NaN" in err
        assert "band" not in err and "Warning" not in err

    def test_zero_band_factor_is_a_point_band(self, tmp_path):
        out = tmp_path / "o"
        assert run("estimate", "--input", "lacc-rainfall-records", "--family", RAIN_FAMILY,
                   "--band-factor", "0", "--out", str(out)) == 0
        for r in json.loads((out / "estimates.json").read_text()):
            assert r["band_lo"] == r["estimate"] == r["band_hi"]


@pytest.mark.parametrize("command", ["estimate", "demo-rainfall"])
@pytest.mark.parametrize("factor, message", [("nan", "must be a finite number"),
                                             ("inf", "must be a finite number"),
                                             ("-1", "must be >= 0")])
def test_band_factor_must_be_finite_and_non_negative(tmp_path, capsys, command, factor, message):
    out = tmp_path / "o"
    argv = ["--input", "lacc-rainfall-records", "--family", RAIN_FAMILY] * (command == "estimate")
    assert run(command, *argv, "--band-factor", factor, "--out", str(out)) == 2
    assert f"band_factor {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


class TestSimulateCommand:
    def config(self, tmp_path, reps=2000, scheme="constant", params=None):
        doc = {
            "family": {"kind": "gamma_type", "member": "gamma", "p": 0.5},
            "theta_model": {"scheme": scheme, "params": params or ({"value": 1.0} if scheme == "constant" else {})},
            "n_target": 4,
            "replications": reps,
            "master_seed": 99,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_bundled_config_layout(self, tmp_path):
        import importlib.resources as res

        cfg_path = Path(str(res.files("recsel").joinpath("data/configs/table1_scheme1_p05.json")))
        doc = json.loads(cfg_path.read_text(encoding="utf-8"))
        doc["replications"] = 1000
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run("simulate", "--config", str(path), "--out", str(out)) == 0
        lines = (out / "simulate_summary.csv").read_text().strip().splitlines()
        assert lines[0] == "scheme,p,n,estimator,bias,risk,se_bias,se_risk"
        ns = {line.split(",")[2] for line in lines[1:]}
        assert ns == {"2", "3", "4"}

    def test_integral_float_counts_are_whole_numbers(self, tmp_path):
        """A count written as 1e3 is the whole number 1000: the tables are
        byte-identical to those of the integer config."""
        path = self.config(tmp_path, reps=1000)
        text = path.read_text(encoding="utf-8")
        tables = []
        for tag, reps in (("int", "1000"), ("float", "1e3")):
            doc = text.replace('"replications": 1000', f'"replications": {reps}')
            assert f'"replications": {reps}' in doc
            path.write_text(doc, encoding="utf-8")
            out = tmp_path / tag
            assert run("simulate", "--config", str(path), "--out", str(out)) == 0
            tables.append([(out / name).read_bytes()
                           for name in ("simulate_summary.csv", "simulate_summary.json")])
        assert tables[0] == tables[1]

    def test_single_replicate_flags_se(self, tmp_path, capsys):
        path = self.config(tmp_path, reps=1)
        out = tmp_path / "o"
        assert run("simulate", "--config", str(path), "--out", str(out)) == 0
        assert "standard errors undefined" in capsys.readouterr().err
        assert "nan" in (out / "simulate_summary.csv").read_text()

    def test_unknown_scheme_is_usage_error(self, tmp_path, capsys):
        path = self.config(tmp_path, scheme="zigzag", params={})
        assert run("simulate", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    def test_byte_identical_across_threads_and_runs(self, tmp_path):
        path = self.config(tmp_path)
        outputs = []
        for tag, threads in (("a", "1"), ("b", "2"), ("c", "4"), ("d", "8"), ("e", "1")):
            out = tmp_path / tag
            assert run("simulate", "--config", str(path), "--threads", threads,
                       "--out", str(out)) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert set(outputs[0]) == {"manifest.json", "simulate_summary.csv", "simulate_summary.json"}
        assert all(o == outputs[0] for o in outputs)


    def test_manifest_counters_match_the_draws(self, tmp_path):
        """Counters of a streamed config (white noise) and of a record-chain
        config (constant theta, hazard family) match their draws."""
        white_noise = self.config(tmp_path, scheme="white_noise", params={})
        doc = json.loads(white_noise.read_text())
        doc["family"] = {"kind": "proportional_hazard", "member": "exponential"}
        doc["theta_model"] = {"scheme": "constant", "params": {"value": 2.5}}
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps(doc), encoding="utf-8")
        for path, sampler in ((white_noise, "stream"), (chain, "record_chain")):
            out = tmp_path / sampler
            assert run("simulate", "--config", str(path), "--threads", "2", "--out", str(out)) == 0
            counters = json.loads((out / "manifest.json").read_text())["counters"]
            doc = json.loads(path.read_text())
            draws = montecarlo.simulate_records(montecarlo.SimulationConfig(
                family=families.from_json_dict(doc["family"]),
                theta_model=montecarlo.ParameterSequenceModel.from_json_dict(doc["theta_model"]),
                n_target=doc["n_target"], replications=doc["replications"],
                master_seed=doc["master_seed"]))
            obs = sorted(int(o) for o in draws.observations)  # 2000 replicates
            assert counters == {
                "observations_per_replicate": {"p50": obs[999], "p99": obs[1979], "max": obs[-1]},
                "truncated": int(draws.truncated.sum()),
                "geometric_exponent_clamped": 0,
                "white_noise_redraws": 0,
                "sampler": sampler,
                "stream_layout": 3,
                "non_finite_cells": 0,
            }
            assert counters["observations_per_replicate"]["max"] > counters["observations_per_replicate"]["p50"]

    def test_non_finite_cells_warn_and_exit_0(self, tmp_path, capsys):
        """Clamped geometric thetas near e^700 overflow some cells to inf or
        NaN: the table is kept, one warning names the cells and the
        departure counters, and numpy's own warnings stay silent."""
        path = self.config(tmp_path, reps=100, scheme="stochastic_geometric", params={})
        doc = json.loads(path.read_text())
        doc.update(n_target=170)
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--config", str(path), "--out", str(out)) == 0
        cells = json.loads((out / "simulate_summary.json").read_text())["cells"]
        bad = [c for c in cells
               if not np.isfinite([c["bias"], c["risk"], c["se_bias"], c["se_risk"]]).all()]
        counters = json.loads((out / "manifest.json").read_text())["counters"]
        assert counters["non_finite_cells"] == len(bad) > 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"warning: {len(bad)} of {len(cells)} table cells are not finite (")
        assert "umvue_gamma n=" in err[0] and "natural_gamma n=" in err[0]
        assert f"geometric_exponent_clamped={counters['geometric_exponent_clamped']}" in err[0]

    @pytest.mark.parametrize("scheme, params, n_target, key", [
        ("white_noise", {"mean": 0.5, "sd": 1.0}, 4, "white_noise_redraws"),
        # a few rows are still short of 170 records past i ~ 7.3e3
        ("stochastic_geometric", {}, 170, "geometric_exponent_clamped"),
    ])
    def test_departure_counters(self, tmp_path, scheme, params, n_target, key):
        """Redrawn and clamped theta values reach the manifest, the same at
        every thread count (tests/test_montecarlo.py checks the counts)."""
        path = self.config(tmp_path, reps=100, scheme=scheme, params=params)
        doc = json.loads(path.read_text())
        doc.update(n_target=n_target)
        path.write_text(json.dumps(doc), encoding="utf-8")
        seen = []
        for threads in ("1", "2", "8"):
            out = tmp_path / threads
            assert run("simulate", "--config", str(path), "--threads", threads, "--out", str(out)) == 0
            seen.append(json.loads((out / "manifest.json").read_text())["counters"])
        summary = montecarlo.bias_risk_table(montecarlo.SimulationConfig(
            family=families.from_json_dict(doc["family"]),
            theta_model=montecarlo.ParameterSequenceModel.from_json_dict(doc["theta_model"]),
            n_target=n_target, replications=100, master_seed=doc["master_seed"]))
        assert seen == [summary.counters] * 3
        assert seen[0][key] > 0


GOOD_CONFIG = {"family": {"kind": "gamma_type", "member": "gamma", "p": 0.5},
               "theta_model": {"scheme": "constant", "params": {"value": 1.0}},
               "n_target": 3, "replications": 10, "master_seed": 1}
BAD_FAMILIES = {
    "gamma p": {"kind": "gamma_type", "member": "gamma", "p": "x"},
    "pareto beta": {"kind": "proportional_hazard", "member": "pareto", "params": {"beta": "b"}},
    "custom table": {"kind": "proportional_hazard", "member": "custom",
                     "params": {"table_x": [0.0, 1.0], "table_h": "ab"}},
    "gamma p nan": {"kind": "gamma_type", "member": "gamma", "p": float("nan")},
    "pareto beta nan": {"kind": "proportional_hazard", "member": "pareto",
                        "params": {"beta": float("nan")}},
    "hazard unknown param": {"kind": "proportional_hazard", "member": "exponential",
                             "params": {"foo": 1}},
    "weibull unknown param": {"kind": "gamma_type", "member": "weibull_known_beta",
                              "params": {"beta": 2.0, "foo": 1}},
    "hazard p": {"kind": "proportional_hazard", "member": "exponential", "p": 3.0},
}


def config_text(field, literal):
    """GOOD_CONFIG as JSON text with `field` set to a JSON literal that
    Python does not write, such as 1e400."""
    return json.dumps(dict(GOOD_CONFIG, **{field: "<literal>"})).replace('"<literal>"', literal)


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, n_target="x")], id="config n_target"),
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, n_target=3.9)], id="config n_target fraction"),
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, n_target="3")], id="config n_target string"),
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, n_target=True)], id="config n_target true"),
    pytest.param(["simulate", "--config", config_text("max_observations", "1e400")],
                 id="config max_observations 1e400"),
    pytest.param(["simulate", "--config", config_text("replications", "1e400")],
                 id="config replications 1e400"),
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, n_values=[2.5])], id="config n_values fraction"),
    pytest.param(["simulate", "--config", [1, 2]], id="config list"),
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, family="gamma")], id="config family"),
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, theta_model={
        "scheme": "constant", "params": {"value": "a"}})], id="config constant value"),
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, theta_model={
        "scheme": "constant", "params": {"value": float("nan")}})], id="config constant value nan"),
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, theta_model={
        "scheme": "white_noise", "params": {"mean": "x"}})], id="config white noise mean"),
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, theta_model={
        "scheme": "stochastic_geometric", "params": {"redraw_per_index": "false"}})],
        id="config geometric redraw string"),
    pytest.param(["simulate", "--config", dict(GOOD_CONFIG, family=BAD_FAMILIES["gamma p nan"])],
                 id="config gamma p nan"),
    *[pytest.param([command, "--input", "lacc-rainfall-records", "--family", json.dumps(family)],
                   id=f"{command} {name}")
      for command in ("test", "estimate") for name, family in BAD_FAMILIES.items()],
])
def test_malformed_values_are_usage_errors(tmp_path, capsys, argv):
    """A config or family value of the wrong type exits 2 with a message,
    not with a traceback."""
    config = tmp_path / "config.json"
    if argv[0] == "simulate":
        text = argv[2] if isinstance(argv[2], str) else json.dumps(argv[2])
        config.write_text(text, encoding="utf-8")
        argv = argv[:2] + [str(config)]
    out = tmp_path / "o"
    assert run(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("usage error:")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("n_values", [[7], [0, 2], [2, 4]])
def test_config_n_values_outside_n_target(tmp_path, capsys, n_values):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(GOOD_CONFIG, n_values=n_values)), encoding="utf-8")
    out = tmp_path / "o"
    assert run("simulate", "--config", str(config), "--out", str(out)) == 2
    assert "n_values must lie in 1..n_target = 3" in capsys.readouterr().err
    assert list(out.iterdir()) == []


class TestCritvalsCommand:
    def test_shape_and_warning(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("critvals", "--n-min", "2", "--n-max", "4", "--alphas", "0.05", "0.1",
                   "--reps", "5000", "--seed", "3", "--out", str(out)) == 0
        assert "wide Monte Carlo error" in capsys.readouterr().err
        table = stationarity.CriticalValueTable.from_text((out / "critvals.csv").read_text(), is_json=False)
        assert table.n_values == (2, 3, 4)
        assert table.alphas == (0.05, 0.1)

    def test_median_alpha_is_valid(self, tmp_path):
        out = tmp_path / "o"
        assert run("critvals", "--n-min", "3", "--n-max", "3", "--alphas", "0.5",
                   "--reps", "20000", "--seed", "3", "--out", str(out)) == 0

    def test_byte_identical_across_threads(self, tmp_path):
        blobs = []
        for tag, threads in (("a", "1"), ("b", "4"), ("c", "8")):
            out = tmp_path / tag
            assert run("critvals", "--n-min", "2", "--n-max", "5", "--reps", "20000",
                       "--seed", "44", "--threads", threads, "--out", str(out)) == 0
            blobs.append((out / "critvals.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("command", ["simulate", "critvals"])
def test_counts_past_memory_are_usage_errors(tmp_path, capsys, command):
    """10**15 replications pass every count check; the allocation numpy
    refuses is a usage error (exit 2) that names it, not a traceback."""
    out = tmp_path / "o"
    if command == "simulate":
        config = tmp_path / "config.json"
        config.write_text(config_text("replications", "1e15"), encoding="utf-8")
        argv = ["simulate", "--config", str(config)]
    else:
        argv = ["critvals", "--n-min", "2", "--n-max", "3", "--reps", str(10**15)]
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "Unable to allocate" in err and "lower the replication count" in err


class TestAlphaOutsideUnitInterval:
    """An alpha outside (0, 1) exits 2 before any null draw is simulated,
    and nothing is written."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def fail(*args):
            raise AssertionError("null draws simulated")

        monkeypatch.setattr(stationarity, "_null_T_block", fail)

    @pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
    def test_critvals(self, tmp_path, capsys, alpha):
        out = tmp_path / "o"
        assert run("critvals", "--n-min", "2", "--n-max", "3", "--alphas", "0.05", alpha,
                   "--reps", "20000", "--out", str(out)) == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["test", "demo-rainfall"])
    @pytest.mark.parametrize("alpha", ["0", "1"])
    def test_test_and_demo(self, tmp_path, capsys, command, alpha):
        out = tmp_path / "o"
        argv = ["--input", "lacc-rainfall-records", "--family", RAIN_FAMILY] * (command == "test")
        assert run(command, *argv, "--alpha", alpha, "--reps", "20000", "--out", str(out)) == 2
        assert "alpha must lie in (0, 1)" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestTestCommand:
    def test_rainfall_with_supplied_table(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("# replications=100000\n# master_seed=0\nn,0.05\n8,2698.59\n")
        out = tmp_path / "o"
        assert run("test", "--input", "lacc-rainfall-records", "--family", RAIN_FAMILY,
                   "--alpha", "0.05", "--table", str(table), "--out", str(out)) == 0
        report = json.loads((out / "test_report.json").read_text())
        assert report["decision"] == "fail_to_reject"
        assert report["n"] == 8
        # faithful statistic: mean of 7 squared ratio jumps
        h = (np.asarray(RAINFALL) - 4.0) ** 1.9
        spac = np.diff(np.concatenate(([0.0], h)))
        expect = float(np.sum((spac[1:] / spac[:-1] - 1.0) ** 2) / 7.0)
        assert report["T"] == pytest.approx(expect, rel=1e-12)

    def test_table_comment_lines_are_ignored(self, tmp_path):
        plain = "# replications=100000\n# master_seed=0\nn,0.05\n8,2698.59\n"
        noted = "# table by hand, n = 8 only\n#\n" + plain.replace("n,", "# rows follow\nn,")
        reports = []
        for tag, text in (("plain", plain), ("noted", noted)):
            table = tmp_path / f"{tag}.csv"
            table.write_text(text, encoding="utf-8")
            out = tmp_path / tag
            assert run("test", "--input", "lacc-rainfall-records", "--family", RAIN_FAMILY,
                       "--table", str(table), "--out", str(out)) == 0
            reports.append((out / "test_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_rainfall_with_regenerated_table(self, tmp_path):
        out = tmp_path / "o"
        assert run("test", "--input", "lacc-rainfall-records", "--family", RAIN_FAMILY,
                   "--alpha", "0.05", "--reps", "20000", "--seed", "5", "--out", str(out)) == 0
        report = json.loads((out / "test_report.json").read_text())
        assert report["decision"] == "fail_to_reject"
        assert report["table_replications"] == 20000
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["table_master_seed"] == 5

    def test_flat_path_statistic_zero(self, tmp_path):
        # equal spacings on the hazard scale give T = 0
        seq = tmp_path / "s.txt"
        write_sequence(seq, [1.0, 2.0, 3.0, 4.0])
        fam = '{"kind": "proportional_hazard", "member": "exponential"}'
        out = tmp_path / "o"
        assert run("test", "--input", str(seq), "--family", fam, "--alpha", "0.1",
                   "--reps", "5000", "--seed", "6", "--out", str(out)) == 0
        report = json.loads((out / "test_report.json").read_text())
        assert report["T"] == 0.0
        assert report["decision"] == "fail_to_reject"

    def test_exploding_spacings_reject(self, tmp_path):
        # thousand-fold spacing jumps push T far beyond the 1% critical value
        vals = np.cumsum([1.0, 1e3, 1e6, 1e9])
        seq = tmp_path / "s.txt"
        write_sequence(seq, vals)
        fam = '{"kind": "proportional_hazard", "member": "exponential"}'
        out = tmp_path / "o"
        assert run("test", "--input", str(seq), "--family", fam, "--alpha", "0.01",
                   "--reps", "20000", "--seed", "7", "--out", str(out)) == 0
        report = json.loads((out / "test_report.json").read_text())
        assert report["decision"] == "reject"

    def test_missing_input(self, tmp_path):
        assert run("test", "--input", str(tmp_path / "nope.txt"), "--family", RAIN_FAMILY,
                   "--out", str(tmp_path / "o")) == 3

    @pytest.mark.parametrize("family, code", [
        ({"member": "gamma", "p": 0.5}, 2),
        ({"member": "gamma", "p": 3.0}, 2),
        ({"member": "normal_zero_mean"}, 2),
        ({"member": "gamma", "p": 1.0}, 0),
        ({"member": "rayleigh"}, 0),
    ])
    def test_gamma_type_needs_p_one(self, tmp_path, capsys, family, code):
        """The null table is the law of T for exponential canonical spacings,
        which a gamma-type family has only at p = 1."""
        family = json.dumps(dict(family, kind="gamma_type"))
        out = tmp_path / "o"
        assert run("test", "--input", "lacc-rainfall-records", "--family", family,
                   "--reps", "2000", "--seed", "3", "--out", str(out)) == code
        if code == 2:
            assert "gamma-type families need p = 1" in capsys.readouterr().err
            assert list(out.iterdir()) == []
        else:
            assert json.loads((out / "test_report.json").read_text())["n"] == 8


class TestDemoRainfall:
    def test_full_pipeline(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("demo-rainfall", "--reps", "20000", "--seed", "8", "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "fail_to_reject" in stdout
        assert "record sequence is bundled" in stdout  # fit-check limitation note
        est = (out / "rainfall_estimates.csv").read_text().strip().splitlines()
        assert est[0].startswith("hypothesis,n,estimator_id")
        assert sum(1 for line in est if line.startswith("stationary")) == 8
        assert sum(1 for line in est if line.startswith("nonstationary")) == 8
        assert (out / "rainfall_records.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "demo-rainfall"


class TestUnreadablePaths:
    """A path that exists but cannot be read as UTF-8 text gives the
    documented exit code (3 for input data, 2 for config and family files)."""

    @pytest.fixture
    def paths(self, tmp_path):
        folder = tmp_path / "folder"
        folder.mkdir()
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"1.0\n\xff\xfe\n2.0\n")
        latin1_csv = tmp_path / "latin1.csv"
        latin1_csv.write_bytes(b"rain\n1.0\n\xff\n")
        return {"<folder>": folder, "<latin1>": latin1, "<latin1_csv>": latin1_csv}

    @pytest.mark.parametrize("argv, code", [
        (["records", "--input", "<folder>"], 3),
        (["records", "--input", "<latin1>"], 3),
        (["records", "--input", "<latin1_csv>", "--column", "rain"], 3),
        (["test", "--input", "<folder>", "--family", RAIN_FAMILY], 3),
        (["simulate", "--config", "<folder>"], 2),
        (["simulate", "--config", "<latin1>"], 2),
        (["estimate", "--input", "lacc-rainfall-records", "--family", "<folder>"], 2),
        (["estimate", "--input", "lacc-rainfall-records", "--family", "<latin1>"], 2),
    ])
    def test_exit_code(self, paths, tmp_path, capsys, argv, code):
        argv = [str(paths.get(a, a)) for a in argv]
        assert run(*argv, "--out", str(tmp_path / "o")) == code
        err = capsys.readouterr().err
        assert err.startswith("data error:" if code == 3 else "usage error:")


class TestTableFile:
    """A --table that cannot be read is a usage error (exit 2); one that
    reads but is not a valid table is a data error (exit 3)."""

    CASES = {
        "missing": (None, 2),
        "directory": (None, 2),
        "not-utf8": (b"n,0.05\n8,\xff\n", 2),
        "bad-number.csv": (b"n,0.05\n8,two\n", 3),
        "bad.json": (b'{"n_values": [8], "alphas": [0.05], ', 3),
        "no-quantiles.json": (b'{"n_values": [8], "alphas": [0.05]}', 3),
        "nan-quantile.csv": (b"n,0.05\n8,nan\n", 3),
        "inf-quantile.csv": (b"n,0.05\n8,inf\n", 3),
        "null-quantile.json": (b'{"n_values": [8], "alphas": [0.05], "quantiles": [[null]]}', 3),
        "duplicate-n.csv": (b"n,0.05\n8,2698.59\n8,1\n", 3),
        "fractional-n.json": (b'{"n_values": [3.9, 8], "alphas": [0.05], '
                              b'"quantiles": [[100.0], [2698.59]]}', 3),
        "replications-1e400.json": (b'{"n_values": [8], "alphas": [0.05], '
                                    b'"quantiles": [[2698.59]], "replications": 1e400}', 3),
    }

    @pytest.mark.parametrize("command", [
        ["test", "--input", "lacc-rainfall-records", "--family", "lacc-rainfall-records"],
        ["demo-rainfall"],
    ], ids=["test", "demo-rainfall"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code(self, tmp_path, capsys, command, case):
        content, code = self.CASES[case]
        table = tmp_path / case
        if case == "directory":
            table.mkdir()
        elif content is not None:
            table.write_bytes(content)
        assert run(*command, "--table", str(table), "--out", str(tmp_path / "o")) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error:" if code == 2 else "data error:")
        assert str(table) in err


IMPORT_GUARD = textwrap.dedent("""
    import json, sys
    from pathlib import Path

    import recsel
    from recsel import cli

    work = Path(sys.argv[1])
    fam = sys.argv[2]
    runs = [
        ["records", "--input", "lacc-rainfall-records"],
        ["estimate", "--input", "lacc-rainfall-records", "--family", fam],
        ["test", "--input", "lacc-rainfall-records", "--family", fam, "--reps", "2000"],
        ["critvals", "--n-min", "2", "--n-max", "3", "--reps", "2000"],
        ["demo-rainfall", "--reps", "2000"],
        ["simulate", "--config", str(work / "config.json")],
        ["simulate", "--config", str(work / "chain.json")],
    ]
    codes = [cli.main(argv + ["--out", str(work / str(i))]) for i, argv in enumerate(runs)]
    print(json.dumps({"codes": codes,
                      "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
""")


def test_cli_subcommands_do_not_import_scipy(tmp_path):
    """No subcommand needs scipy; only quadrature risk and the gamma-type
    cdf/pdf import it, on first use."""
    import importlib.resources as res

    doc = json.loads(res.files("recsel").joinpath("data/configs/table1_scheme1_p05.json").read_text())
    doc["replications"] = 200
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    # constant theta with a hazard family runs the record chain
    doc["family"] = {"kind": "proportional_hazard", "member": "exponential"}
    doc["theta_model"] = {"scheme": "constant", "params": {"value": 1.0}}
    (tmp_path / "chain.json").write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(recsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD, str(tmp_path), RAIN_FAMILY],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * 7
    assert result["scipy"] == []


def test_cli_start_up_does_not_import_numpy_random():
    """numpy.random (~17 ms) is imported when a stream is first built, not
    by importing the CLI or building its parser."""
    src = str(Path(recsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, recsel.cli; recsel.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestSeedValidation:
    """A negative or non-integer master seed is a usage error (exit 2) that
    names the field, on the command line and in a simulate config; so is a
    negative or non-integer --threads.  A larger --threads than nproc is
    capped at nproc."""

    @pytest.mark.parametrize("command", [
        ["simulate", "--config", "<config>"],
        ["critvals", "--reps", "100"],
        ["test", "--input", "lacc-rainfall-records", "--family", "lacc-rainfall-records"],
        ["demo-rainfall"],
    ], ids=["simulate", "critvals", "test", "demo-rainfall"])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "seven"])
    def test_seed_flag(self, tmp_path, capsys, command, seed):
        config = TestSimulateCommand().config(tmp_path, reps=10)
        argv = [str(config) if a == "<config>" else a for a in command]
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--seed", seed, "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert "argument --seed: must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["critvals", "--reps", "100"],
        ["records", "--input", "lacc-rainfall-records"],
    ], ids=["critvals", "records"])
    @pytest.mark.parametrize("threads", ["-3", "1.5"])
    def test_threads_flag(self, tmp_path, capsys, command, threads):
        with pytest.raises(SystemExit) as exc:
            run(*command, "--threads", threads, "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert "argument --threads: must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate", "--config", "<config>"], ["critvals"]],
                             ids=["simulate", "critvals"])
    @pytest.mark.parametrize("nproc, threads, expected", [
        (2, "5000", 2), (2, "1", 1), (16, "0", 8), (None, "3", 1),
    ])
    def test_threads_capped_at_nproc(self, tmp_path, monkeypatch, command, nproc, threads,
                                     expected):
        # the engines are stubbed to record their threads, so no thread starts
        seen = []

        def engine(*args, threads):
            seen.append(threads)
            raise UsageError("stubbed engine")

        monkeypatch.setattr(os, "cpu_count", lambda: nproc)
        monkeypatch.setattr(stationarity, "critical_values", engine)
        monkeypatch.setattr(montecarlo, "bias_risk_table", engine)
        config = TestSimulateCommand().config(tmp_path, reps=10)
        argv = [str(config) if a == "<config>" else a for a in command]
        assert run(*argv, "--threads", threads, "--out", str(tmp_path / "o")) == 2
        assert seen == [expected]

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True, None])
    def test_config_master_seed(self, tmp_path, capsys, seed):
        config = TestSimulateCommand().config(tmp_path, reps=10)
        doc = json.loads(config.read_text())
        doc["master_seed"] = seed
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert run("simulate", "--config", str(config), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: master_seed must be a non-negative integer")

    def test_config_seed_override_wins(self, tmp_path):
        config = TestSimulateCommand().config(tmp_path, reps=10)
        doc = json.loads(config.read_text())
        doc["master_seed"] = -1
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "o"
        assert run("simulate", "--config", str(config), "--seed", str(2**130), "--out", str(out)) == 0
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == 2**130


def reference_load(path):
    """The plain-text loader's per-line loop: the definition the fast path
    must reproduce, value for value and error for error."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise DataError(f"{path}:{lineno}: cannot parse {line!r} as a number") from None
    if not values:
        raise DataError(f"{path} holds no values")
    return np.asarray(values)


def load_outcome(load, path):
    try:
        values = load(path)
    except DataError as exc:
        return "error", str(exc)
    assert values.dtype == np.float64 and values.ndim == 1
    return "values", values.view(np.int64).tolist()


PAD = st.sampled_from(["", " ", "\t", "  \t "])
NUMBER_LINE = st.builds(
    lambda pre, v, fmt, post, note: pre + fmt(v) + post + note,
    PAD, st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([repr, lambda v: format(v, ".6g")]), PAD,
    st.sampled_from(["", "# note", " #1.5", "#"]))
COMMENT_TEXT = st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)))
FILLER_LINE = st.one_of(PAD, st.builds(lambda pre, c: pre + "#" + c, PAD, COMMENT_TEXT))


@st.composite
def sequence_files(draw):
    lines = draw(st.lists(st.one_of(NUMBER_LINE, FILLER_LINE), max_size=30))
    lines.insert(draw(st.integers(0, len(lines))), draw(NUMBER_LINE))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


class TestLoaderMatchesReference:
    @given(text=sequence_files())
    @settings(max_examples=200, deadline=None)
    def test_numeric_files_bit_for_bit(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("seq") / "s.txt"
        path.write_text(text, encoding="utf-8", newline="")
        ours = cli._load_sequence(str(path))
        ref = reference_load(str(path))
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64))

    @given(lines=st.lists(st.text(), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_same_outcome(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("seq") / "s.txt"
        path.write_text("\n".join(lines), encoding="utf-8", newline="")
        assert load_outcome(cli._load_sequence, str(path)) == load_outcome(reference_load, str(path))

    @pytest.mark.parametrize("text", ["1 2\n3 4\n", "1 2\n"])
    def test_two_tokens_per_line_names_the_first_line(self, tmp_path, text):
        path = tmp_path / "pairs.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as exc:
            cli._load_sequence(str(path))
        assert str(exc.value) == f"{path}:1: cannot parse '1 2' as a number"

    def test_underscore_digits_are_accepted(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("1_000\n", encoding="utf-8")
        assert cli._load_sequence(str(path)).tolist() == [1000.0]

    def test_comments_only_holds_no_values(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\n  # another\n", encoding="utf-8")
        # loadtxt's "input contained no data" warning must not reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="holds no values"):
                cli._load_sequence(str(path))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_data_error(self, tmp_path, capsys, token):
        path = tmp_path / "nf.txt"
        path.write_text(f"1.0\n{token}\n2.0\n", encoding="utf-8")
        assert run("records", "--input", str(path), "--out", str(tmp_path / "o")) == 3
        assert "non-finite values" in capsys.readouterr().err
