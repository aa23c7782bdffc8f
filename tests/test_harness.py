import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relurand
from relurand import cli, harness, probes
from relurand.cli import main
from relurand.errors import ConfigError
from relurand.harness import (
    KINDS,
    PROBE_NAMES,
    SAMPLE,
    ExperimentConfig,
    TrialRecord,
    run_experiment,
    write_csv,
    write_summary_json,
)
from relurand.linalg import _openblas_thread_calls


# one tiny config of each kind
_QUICK = {
    "attack": {"d": 16, "widths": [16, 16], "trials": 3},
    "sweep": {"dims": [8, 16], "trials": 3},
    "collapse": {"d": 4, "width": 16, "depth": 3, "n_pairs": 2},
    "kernel": {"steps": 5},
    "probe:value_gradient": {"d": 32, "widths": [32], "trials": 5},
    "probe:scale_preservation": {"d": 32, "widths": [32, 32], "trials": 3,
                                 "radius": 0.5, "n_samples": 3},
    "probe:activation_margin": {"d": 32, "widths": [32, 32], "trials": 3},
    "probe:gradient_smoothness": {"d": 32, "widths": [32, 32], "trials": 3,
                                  "radius": 0.5, "n_samples": 3},
    "probe:segment_spectral": {"d": 32, "widths": [32, 16, 32], "trials": 2,
                               "radius": 0.5, "n_samples": 2},
    "probe:sign_flip": {"d": 16, "trials": 3, "radius": 0.2, "n_draws": 1000},
    "probe:dist_equiv": {"d": 32, "widths": [32], "trials": 100},
    "probe:gaussian_spectral": {"dims": [20, 30], "trials": 5},
}


def _quick_argv(kind, out_dir):
    """The CLI arguments of kind's _QUICK config at seed 3."""
    argv = kind.split(":") + ["--seed", "3", "--out-dir", str(out_dir)]
    for key, v in _QUICK[kind].items():
        argv += ["--" + key.replace("_", "-")]
        argv += [str(x) for x in v] if isinstance(v, list) else [str(v)]
    return argv


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig.from_dict({"kind": "nonsense"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_dict({"kind": "attack", "bogus": 1})

    def test_sweep_needs_dims(self):
        with pytest.raises(ConfigError, match="dims"):
            ExperimentConfig.from_dict({"kind": "sweep"})

    def test_bad_delta(self):
        with pytest.raises(ConfigError, match="delta"):
            ExperimentConfig.from_dict({"kind": "attack", "delta": 2.0})

    def test_sample_is_no_experiment(self):
        cfg = ExperimentConfig.from_dict({"kind": SAMPLE, "d": 8})
        with pytest.raises(ConfigError, match="sample"):
            run_experiment(cfg)

    def test_committed_configs_load(self):
        # configs/<kind>.json, with probe_<name> for probe:<name>; README runs each
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text()
        kinds = set()
        for path in sorted((root / "configs").glob("*.json")):
            kind = path.stem.replace("probe_", "probe:", 1)
            data = json.loads(path.read_text())
            assert ExperimentConfig.from_dict({"kind": kind, **data}).kind == kind
            assert f"configs/{path.name}" in readme, path.name
            kinds.add(kind)
        assert kinds == set(KINDS)

    def test_round_trip_dict(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "attack", "d": 32, "widths": [32, 32], "trials": 5})
        assert ExperimentConfig.from_dict(dataclasses.asdict(cfg)) == cfg


class TestRunExperiment:
    def test_kernel_rows_match_iterate(self):
        from relurand.collapse import kernel_iterate
        cfg = ExperimentConfig.from_dict(
            {"kind": "kernel", "theta_0": np.pi / 2, "steps": 12})
        out = run_experiment(cfg)
        tr = kernel_iterate(np.pi / 2, 12)
        assert len(out["rows"]) == 12
        assert out["rows"][3].values["rho"] == tr.rhos[3]
        assert out["summary"]["rho_final"] == tr.rhos[-1]

    def test_attack_summary(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "attack", "d": 128, "widths": [128, 128],
             "trials": 10, "master_seed": 4})
        out = run_experiment(cfg)
        assert out["summary"]["flip_rate"] >= 0.8
        assert out["summary"]["config"]["d"] == 128

    def test_parallel_matches_serial(self):
        base = {"kind": "attack", "d": 64, "widths": [64, 64],
                "trials": 8, "master_seed": 12}
        serial = run_experiment(ExperimentConfig.from_dict(base))
        parallel = run_experiment(ExperimentConfig.from_dict({**base, "workers": 4}))
        for a, b in zip(serial["rows"], parallel["rows"]):
            assert a.values == b.values
        s1 = {k: v for k, v in serial["summary"].items() if k != "config"}
        s2 = {k: v for k, v in parallel["summary"].items() if k != "config"}
        assert s1 == s2

    def test_linearity_columns(self):
        base = {"d": 16, "widths": [16, 16], "trials": 12, "master_seed": 3}
        attack = run_experiment(ExperimentConfig.from_dict({"kind": "attack", **base}))
        linearity, abs_cos = [], []
        for r in attack["rows"]:
            v = r.values
            if r.status != "degenerate":
                abs_cos.append(abs(v["cos_grad_x"]))
            if r.status == "ok":
                assert v["linearity"] == v["t_star"] * v["grad_norm"] / abs(v["f_x"])
                linearity.append(v["linearity"])
            else:
                assert "linearity" not in v
        assert linearity and min(linearity) > 0.0
        # the sweep's first dimension runs the same trials on the same streams
        sweep = run_experiment(ExperimentConfig.from_dict(
            {"kind": "sweep", "dims": [16, 24], "widths": [1, 1], "trials": 12,
             "master_seed": 3}))
        row = sweep["rows"][0].values
        assert row["linearity_median"] == float(np.median(linearity))
        assert row["ratio_median"] == attack["summary"]["ratio_median"]
        # over every non-degenerate trial, flipped or not
        assert len(abs_cos) > len(linearity)
        assert row["abs_cos_sqrt_d_median"] == float(np.median(np.sqrt(16) * np.array(abs_cos)))

    @pytest.mark.parametrize("d, widths", [(16, [16, 16]), (200, [300, 50]), (1, [3])])
    def test_ratio_is_linearity_times_cosine(self, d, widths):
        # Euler's identity f(x) = grad f(x).x splits the flip ratio t*/||x||
        # into linearity and |cos(grad f(x), x)|, up to rounding
        rows = run_experiment(ExperimentConfig.from_dict(
            {"kind": "attack", "d": d, "widths": widths, "trials": 40, "master_seed": 5}))["rows"]
        flipped = 0
        for r in rows:
            v = r.values
            if r.status == "degenerate":
                assert "cos_grad_x" not in v
                continue
            assert -1.0 <= v["cos_grad_x"] <= 1.0
            if r.status == "ok":
                assert v["ratio"] == pytest.approx(v["linearity"] * abs(v["cos_grad_x"]),
                                                   rel=1e-12)
                flipped += 1
        assert flipped >= 10

    def test_probe_dispatch_all_names(self, tmp_path, capsys):
        assert list(_QUICK) == list(KINDS)
        for kind, extra in _QUICK.items():
            cfg = ExperimentConfig.from_dict({"kind": kind, "master_seed": 3, **extra})
            out = run_experiment(cfg)
            assert out["rows"], kind
            if kind.startswith("probe:"):
                assert "violation_frequency" in out["summary"], kind
            assert main(_quick_argv(kind, tmp_path)) == 0, kind
            stem = kind.replace(":", "_")
            write_csv(out["rows"], tmp_path / "direct.csv")
            assert (tmp_path / f"{stem}.csv").read_bytes() == \
                (tmp_path / "direct.csv").read_bytes(), kind
            assert (tmp_path / f"{stem}_summary.json").exists(), kind


    def test_collapse_layer_without_cosine_is_nan(self):
        # at seed 7 no pair has two nonzero images past layer 1: those
        # layers' cosine_median is nan, without a numpy warning
        cfg = ExperimentConfig.from_dict({"kind": "collapse", "d": 2, "width": 8, "depth": 4,
                                          "n_pairs": 1, "master_seed": 7})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = run_experiment(cfg)["rows"]
        cosines = [r.values["cosine_median"] for r in rows]
        assert np.isfinite(cosines[0]) and np.isnan(cosines[1:]).all()


class TestOutputs:
    def test_csv_round_trips_floats(self, tmp_path):
        rows = [TrialRecord(0, {"a": 0.1, "b": None, "c": True}),
                TrialRecord(1, {"a": 1 / 3, "d": 7}, status="not_flipped")]
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,seed,status,a,b,c,d"
        cells = lines[1].split(",")
        assert float(cells[3]) == 0.1
        assert cells[4] == "" and cells[5] == "true"
        assert float(lines[2].split(",")[3]) == 1 / 3

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == "trial,seed,status\n"

    def test_byte_identical_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"kind": "attack", "d": 64, "widths": [64], "trials": 6, "master_seed": 8})
        blobs = []
        for k in range(2):
            out = run_experiment(cfg)
            c, j = tmp_path / f"r{k}.csv", tmp_path / f"r{k}.json"
            write_csv(out["rows"], c)
            write_summary_json(out["summary"], j)
            blobs.append((c.read_bytes(), j.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_json_cleans_numpy_types(self, tmp_path):
        path = tmp_path / "s.json"
        write_summary_json({"a": np.float64(1.5), "b": np.int64(2),
                            "c": np.bool_(True), "d": [np.float64(0.25)]}, path)
        assert json.loads(path.read_text()) == {"a": 1.5, "b": 2, "c": True,
                                                "d": [0.25]}


class TestCli:
    def test_kernel_exit_zero(self, tmp_path, capsys):
        rc = main(["kernel", "--theta0", "1.0", "--steps", "5",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "kernel.csv").exists()
        assert (tmp_path / "kernel_summary.json").exists()

    def test_config_error_exit_one(self, tmp_path, capsys):
        rc = main(["sweep", "--out-dir", str(tmp_path)])  # missing dims
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_io_error_exit_two(self, capsys):
        rc = main(["kernel", "--steps", "3",
                   "--out-dir", "/proc/nonexistent/x"])
        assert rc == 2

    def test_alert_exit_three(self, tmp_path, capsys):
        # an alert level below any frequency trips the alert; the flag
        # overrides the config file's 0.5
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"d": 32, "widths": [32], "trials": 40, "master_seed": 5,
             "alert_level": 0.5}))
        rc = main(["probe", "value_gradient", "--config", str(cfgfile),
                   "--alert-level", "-1.0", "--out-dir", str(tmp_path)])
        assert rc == 3
        summary = json.loads((tmp_path / "probe_value_gradient_summary.json").read_text())
        freq = summary["violation_frequency"]
        assert capsys.readouterr().err == (
            f"alert: probe:value_gradient violation frequency {freq} "
            "exceeds alert level -1.0\n")

    def test_flags_override_config(self, tmp_path, capsys):
        # a config file may name the subcommand's own kind
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"kind": "kernel", "theta_0": 3.0, "steps": 4}))
        rc = main(["kernel", "--config", str(cfgfile), "--steps", "7",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "kernel_summary.json").read_text())
        assert summary["config"]["steps"] == 7
        assert summary["config"]["theta_0"] == 3.0

    @pytest.mark.parametrize("kind", [k for k in KINDS if not k.startswith("probe:")])
    def test_kind_subcommand_help(self, capsys, kind):
        # the CLI builds one subcommand per kind in KINDS, listed with its help line
        with pytest.raises(SystemExit) as exc:
            main([kind, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: relurand {kind} ")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert re.search(rf"^ +{kind} +{re.escape(KINDS[kind].help)}$",
                         capsys.readouterr().out, re.MULTILINE)

    def test_parser_built_once_and_reused(self, tmp_path, capsys):
        # main builds its parser once per process; help, a usage error and a
        # config error in between leave a repeated run's outputs byte-identical
        assert cli._parser() is cli._parser()
        argv = ["attack", "--d", "16", "--widths", "16", "16", "--trials", "4", "--seed", "5"]

        def run(out):
            assert main(argv + ["--out-dir", str(out)]) == 0
            return [(out / name).read_bytes() for name in ("attack.csv", "attack_summary.json")]

        first = run(tmp_path / "a")
        for bad, code in ((["attack", "--help"], 0), (["attack", "--no-such-flag"], 2)):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == code
        assert main(["attack", "--trials", "0", "--out-dir", str(tmp_path / "c")]) == 1
        assert run(tmp_path / "b") == first

    def test_every_config_key_is_a_flag(self, tmp_path, capsys):
        flags = {
            "--seed": ("master_seed", ["7"], 7), "--d": ("d", ["5"], 5),
            "--widths": ("widths", ["3", "4"], [3, 4]), "--trials": ("trials", ["2"], 2),
            "--radius": ("radius", ["0.25"], 0.25), "--alpha": ("alpha", ["0.2"], 0.2),
            "--delta": ("delta", ["0.3"], 0.3), "--t-max": ("t_max", ["2.5"], 2.5),
            "--dims": ("dims", ["6", "7"], [6, 7]), "--theta0": ("theta_0", ["1.0"], 1.0),
            "--steps": ("steps", ["3"], 3), "--n-pairs": ("n_pairs", ["4"], 4),
            "--width": ("width", ["9"], 9), "--depth": ("depth", ["2"], 2),
            "--n-samples": ("n_samples", ["3"], 3), "--n-draws": ("n_draws", ["11"], 11),
            "--workers": ("workers", ["2"], 2), "--alert-level": ("alert_level", ["0.5"], 0.5),
        }
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"kind"}
        assert {key for key, _, _ in flags.values()} == keys
        # every subcommand takes every flag; sample reads d, widths and the seed
        commands = ["sample", "attack", "sweep", "collapse", "kernel",
                    *(f"probe {name}" for name in PROBE_NAMES)]
        assert len(commands) == 13
        for command in commands:
            out_dir = tmp_path / command.replace(" ", "_")
            argv = [*command.split(), "--out-dir", str(out_dir)]
            for flag, (_, values, _) in flags.items():
                argv += [flag, *values]
            assert main(argv) == 0, command
            if command == "sample":
                from relurand.network import load_network
                net = load_network(out_dir / "network.rrnn")
                assert (net.arch.input_dim, net.arch.hidden_widths, net.master_seed) == \
                    (5, (3, 4), 7)
                continue
            kind = command.replace(" ", ":")
            stem = kind.replace(":", "_")
            config = json.loads((out_dir / f"{stem}_summary.json").read_text())["config"]
            assert config == {"kind": kind, **{k: v for k, _, v in flags.values()}}, command

    @pytest.mark.parametrize("argv, key", [
        ("attack --widths 0", "widths"),
        ("sweep --dims 8 0", "dims"),
        ("sweep --dims 8 8 --trials 5", "dims"),
        ("sample --d 0", "d"),
        ("probe gaussian_spectral --dims 0 3", "dims"),
        ("probe activation_margin --alpha 0", "alpha"),
        ("probe segment_spectral --d 16 --widths 16", "widths"),
        ("collapse --d 1", "d"),
        ("attack --t-max -1", "t_max"),
        ("attack --t-max 0", "t_max"),
        ("attack --t-max inf", "t_max"),
        ("probe sign_flip --radius nan", "radius"),
        ("kernel --theta0 nan", "theta_0"),
        ("kernel --theta0 4", "theta_0"),
    ])
    def test_invalid_config_rejected_before_work(self, tmp_path, capsys, argv, key):
        rc = main(argv.split() + ["--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error:") and f"'{key}'" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("config, key", [
        ('{"d": NaN}', "d"), ('{"trials": 2.5}', "trials"), ('{"workers": true}', "workers"),
        ('{"widths": 5}', "widths"), ('{"widths": [4, NaN]}', "widths"),
        ('{"radius": "1"}', "radius"), ('{"t_max": [1]}', "t_max"),
        ('{"kind": "collapse", "d": 8, "widths": [8], "trials": 2}', "kind"),
    ])
    def test_wrongly_typed_config_file_rejected(self, tmp_path, capsys, config, key):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(config)
        out = tmp_path / "out"
        rc = main(["attack", "--config", str(cfgfile), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error:") and f"'{key}'" in err
        assert not out.exists()

    def test_degenerate_trial_is_a_row(self, tmp_path, capsys):
        # width 1: a dead hidden neuron gives f(x) = 0 and a zero gradient
        rc = main(["attack", "--d", "2", "--widths", "1", "--trials", "20",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "attack.csv").read_text().splitlines()
        statuses = [line.split(",")[2] for line in lines[1:]]
        assert len(statuses) == 20
        assert "degenerate" in statuses
        summary = json.loads((tmp_path / "attack_summary.json").read_text())
        assert summary["flip_rate"] == statuses.count("ok") / 20

    def test_degenerate_sweep_trials_are_counted(self, tmp_path, capsys):
        # d = 1 and d = 2 nets often have a dead hidden layer: f(x) = 0
        rc = main(["sweep", "--dims", "1", "2", "--trials", "20",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 2
        assert all(int(r["degenerate"]) > 0 for r in rows)
        assert all(float(r["flip_rate"]) == int(r["flips"]) / 20 for r in rows)

    def test_sweep_honours_t_max(self, tmp_path, capsys):
        rc = main(["sweep", "--dims", "8", "16", "--trials", "5", "--t-max", "1e-9",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert [int(r["flips"]) for r in rows] == [0, 0]

    def test_zero_gradient_smoothness_trial_is_a_row(self, tmp_path, capsys):
        # width 1: most trials have a dead unit, so grad f(x) = 0 and the
        # drift ratio has no scale
        rc = main(["probe", "gradient_smoothness", "--d", "2", "--widths", "1", "1",
                   "--trials", "4", "--radius", "0.5", "--n-samples", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "probe_gradient_smoothness.csv").read_text().splitlines()
        statuses = [line.split(",")[2] for line in lines[1:]]
        assert len(statuses) == 4 and "degenerate" in statuses
        assert "inf" not in "".join(lines)

        def reject(constant):
            raise AssertionError(f"summary holds {constant}, which is not JSON")

        json.loads((tmp_path / "probe_gradient_smoothness_summary.json").read_text(),
                   parse_constant=reject)

    def test_degenerate_probe_trial_is_a_row(self, tmp_path, capsys):
        # width 1: half the trials have a zero first-layer image.  A 1 x 1
        # layer misses the margin with probability P(|Z| < 0.1) = 0.08, above
        # the default alert level, so the alert is off: this test is about rows
        rc = main(["probe", "activation_margin", "--d", "2", "--widths", "1", "1",
                   "--trials", "20", "--alert-level", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "probe_activation_margin.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 20
        assert [int(r[1]) for r in rows] == list(range(20))
        degenerate = [r for r in rows if r[2] == "degenerate"]
        assert degenerate and all(c == "" for r in degenerate for c in r[3:])
        ok = [float(r[-1]) for r in rows if r[2] == "ok"]
        summary = json.loads((tmp_path / "probe_activation_margin_summary.json").read_text())
        assert summary["violation_frequency"] == pytest.approx(np.mean(ok))

    def test_malformed_config_file_exit_one(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("{bad")
        rc = main(["kernel", "--config", str(cfgfile), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_sample_writes_loadable_network(self, tmp_path, capsys):
        from relurand.network import load_network
        out = tmp_path / "net.rrnn"
        rc = main(["sample", "--d", "8", "--widths", "6", "4",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        net = load_network(out)
        assert net.arch.input_dim == 8
        assert net.arch.hidden_widths == (6, 4)

    @pytest.mark.parametrize("mode", ["standard", "depth-collapse"])
    def test_sample_writes_the_seeded_build(self, tmp_path, capsys, mode):
        # a version 1 file that sample wrote is regenerated from its d,
        # widths, mode and seed only because sample draws exactly this net
        from relurand.network import (Architecture, InitMode, build_network,
                                      load_network, save_network)
        from relurand.rng import RngStream
        out = tmp_path / "net.rrnn"
        rc = main(["sample", "--d", "7", "--widths", "5", "3", "--seed", "11",
                   "--mode", mode, "--out", str(out)])
        assert rc == 0
        init = InitMode.DEPTH_COLLAPSE if mode == "depth-collapse" else InitMode.STANDARD
        net = build_network(Architecture(7, (5, 3)), init, RngStream(11, 0))
        loaded = load_network(out)
        assert (loaded.mode, loaded.master_seed, loaded.stream_id) == (init, 11, 0)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, net.weights))
        save_network(net, tmp_path / "built.rrnn")
        assert out.read_bytes() == (tmp_path / "built.rrnn").read_bytes()

    def test_sample_reads_config_and_creates_out_dir(self, tmp_path, capsys):
        from relurand.network import load_network
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"d": 8, "widths": [4], "master_seed": 3}))
        out_dir = tmp_path / "missing" / "dir"
        rc = main(["sample", "--config", str(cfgfile), "--out-dir", str(out_dir)])
        assert rc == 0
        net = load_network(out_dir / "network.rrnn")
        assert net.arch.input_dim == 8
        assert net.arch.hidden_widths == (4,)

    def test_attack_at_width_ten_thousand_in_little_memory(self, tmp_path, capsys):
        # dense weights would take 1.6 GB; the lazy layers hold only what
        # the walk queried
        tracemalloc.start()
        try:
            rc = main(["attack", "--d", "10000", "--widths", "10000", "10000",
                       "--trials", "2", "--out-dir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 100e6
        lines = (tmp_path / "attack.csv").read_text().splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == ["ok", "ok"]

    def test_parallel_cli_outputs_identical(self, tmp_path, capsys):
        for argv in (["attack", "--d", "64", "--widths", "64", "--trials", "6"],
                     ["sweep", "--dims", "8", "16", "32", "--trials", "4"]):
            kind = argv[0]
            csvs, summaries = set(), []
            for w in ("1", "2", "3"):
                d = tmp_path / f"{kind}{w}"
                rc = main(argv + ["--seed", "8", "--workers", w, "--out-dir", str(d)])
                assert rc == 0
                csvs.add((d / f"{kind}.csv").read_bytes())
                summary = json.loads((d / f"{kind}_summary.json").read_text())
                del summary["config"]["workers"]
                summaries.append(summary)
            assert len(csvs) == 1, kind
            assert summaries[0] == summaries[1] == summaries[2], kind


def test_pinned_runs_independent_of_blas_threads(tmp_path):
    """tests/pinned_runs.py at one and at two OpenBLAS threads: every run
    exits 0, both passes print the same digests, and the runs cover every
    kind and sample.  BLAS reads its thread count once, at import, so each
    pass is a fresh process; the two run side by side."""
    src = str(Path(relurand.__file__).parents[1])
    passes = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        passes.append(subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("pinned_runs.py")),
             str(tmp_path / threads)], env=env, stdout=subprocess.PIPE, text=True))
    lines = [p.communicate(timeout=300)[0].splitlines() for p in passes]
    assert [p.returncode for p in passes] == [0, 0]
    assert lines[0] == lines[1]
    kinds = set()
    for line in lines[0]:
        _, rc, *argv = line.split()
        assert rc == "0", line
        kinds.add(f"probe:{argv[1]}" if argv[0] == "probe" else argv[0])
    assert kinds == {*KINDS, SAMPLE}


def test_pinned_runs_compare(tmp_path):
    """--compare prints, per run directory, the largest relative change over
    the CSV cells and summary values, the run's argv, and names a changed
    header or row count."""
    table = "trial,seed,status,x\n0,0,ok,1.5\n1,1,not_flipped,\n"
    runs = [(table, {"r": 2.0, "config": {"d": 4}}, table, {"r": 2.0, "config": {"d": 4}}),
            (table, {"r": 2.0}, table.replace("1.5", "1.5000000003"), {"r": 2.000000002}),
            (table, {"r": 2.0}, "trial,seed,status,x,y\n0,0,ok,1.5,3\n", {"r": 2.0})]
    for i, run in enumerate(runs):
        for side, (csv_text, summary) in zip("ab", (run[:2], run[2:])):
            out = tmp_path / side / str(i)
            out.mkdir(parents=True)
            (out / "attack.csv").write_text(csv_text)
            (out / "attack_summary.json").write_text(json.dumps(summary))
    lines = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("pinned_runs.py")), "--compare",
         str(tmp_path / "a"), str(tmp_path / "b")],
        check=True, capture_output=True, text=True).stdout.splitlines()
    assert len(lines) == 3
    assert lines[0] == "0 attack --config configs/attack.json"
    worst, rest = lines[1].split(" ", 1)
    assert float(worst) == pytest.approx(1e-9, rel=1e-3) and ";" not in rest
    assert lines[2].startswith("0 ")
    assert lines[2].endswith("; attack.csv header +y; attack.csv rows 2 -> 1")


def test_probes_run_on_one_blas_thread(monkeypatch):
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS found in /proc/self/maps")
    count = calls[0]
    seen = {}

    def spy(key, fn):
        def wrapped(*args, **kwargs):
            seen[key] = count()
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(probes, "probe_gaussian_spectral",
                        spy("probe", probes.probe_gaussian_spectral))
    monkeypatch.setattr(harness, "kernel_iterate", spy("kernel", harness.kernel_iterate))
    before = count()
    run_experiment(ExperimentConfig.from_dict(
        {"kind": "probe:gaussian_spectral", "dims": [3, 4], "trials": 2}))
    assert count() == before
    run_experiment(ExperimentConfig.from_dict({"kind": "kernel", "steps": 3}))
    assert seen == {"probe": 1, "kernel": before}


def _sizes(lo, hi):
    return st.one_of(st.integers(lo, hi), st.integers(-2, 0), st.just(float("nan")))


_REALS = st.one_of(st.floats(-2.0, 4.0), st.sampled_from([0.0, -1.0, float("nan")]))

# The size keys are always set, so that no default (d = 64, n_draws = 10^5)
# makes an example slow; the other keys are set or left at their defaults.
_FLAT_CONFIGS = st.fixed_dictionaries(
    {"d": _sizes(1, 8), "widths": st.lists(_sizes(1, 8), max_size=3),
     "dims": st.lists(_sizes(1, 8), max_size=3), "trials": _sizes(1, 3),
     "n_draws": _sizes(1, 200), "depth": _sizes(1, 4), "width": _sizes(8, 16),
     "steps": _sizes(1, 20), "n_pairs": _sizes(1, 3), "n_samples": _sizes(1, 3)},
    optional={"master_seed": st.integers(-3, 3), "workers": _sizes(1, 2),
              "radius": _REALS, "alpha": _REALS, "delta": _REALS, "theta_0": _REALS,
              "alert_level": _REALS, "t_max": st.one_of(st.none(), _REALS)})


@given(kind=st.sampled_from(sorted(KINDS) + [SAMPLE]), config=_FLAT_CONFIGS)
@settings(max_examples=300, deadline=None)
def test_cli_fuzz_flat_configs(kind, config):
    argv = ["probe", kind.split(":")[1]] if kind.startswith("probe:") else [kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv + ["--config", str(path), "--out-dir", tmp])
    assert rc in (0, 1, 2, 3)
