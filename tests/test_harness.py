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
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import relurand
from relurand import cli, harness, probes
from relurand.cli import main
from relurand.errors import ConfigError, DegenerateInput
from relurand.harness import (
    KINDS,
    ExperimentConfig,
    TrialRecord,
    run_experiment,
    write_csv,
    write_summary_json,
)
from relurand.linalg import _openblas_thread_calls


# one tiny config of each kind with a runner
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


def _quick(kind):
    """kind's _QUICK config, at seed 3 where the kind takes a seed."""
    seed = {"master_seed": 3} if "master_seed" in KINDS[kind].keys else {}
    return {**seed, **_QUICK[kind]}


def _quick_argv(kind, out_dir):
    """The CLI arguments of kind's _QUICK config at seed 3 (_quick)."""
    argv = kind.split(":") + ["--out-dir", str(out_dir)]
    for key, v in _quick(kind).items():
        key = "seed" if key == "master_seed" else key
        argv += ["--" + key.replace("_", "-")]
        argv += [str(x) for x in v] if isinstance(v, list) else [str(v)]
    return argv


def _command_taking(key):
    """The argv words of the first subcommand whose kind takes key."""
    return next(kind for kind in KINDS if key in harness._accepted(kind)).split(":")


# flag -> (key, words on the command line, value in a summary) for every
# key but kind, each value valid and other than the key's default
_FLAGS = {
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


def _range_cases():
    """(key, out-of-range value, error) for every config key but kind and
    master_seed, from its type: an integer and each list entry must be
    positive, a number finite.  A key of any other type gets a case that
    fails, until its range rule is written here."""
    for key, hint in harness._HINTS.items():
        if key in ("kind", "master_seed"):
            continue
        if hint is int:
            yield key, 0, f"'{key}' must be positive"
        elif hint == tuple[int, ...]:
            yield key, [4, 0], f"every entry of '{key}' must be positive"
        elif hint in (float, Optional[float]):
            yield key, float("nan"), f"'{key}' must be finite"
        else:
            yield key, None, f"no range rule for the type of '{key}'"


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
        cfg = ExperimentConfig.from_dict({"kind": "sample", "d": 8})
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
        assert kinds == {kind for kind, spec in KINDS.items() if spec.run}

    def test_config_checks_itself_when_made(self):
        # no unchecked config exists: construction raises, and the seed is
        # one of the 2^64 signed 64-bit integers, each its own stream key
        with pytest.raises(ConfigError, match="'d' must be positive"):
            ExperimentConfig(kind="attack", d=0)
        for seed in (-2**63, 2**63 - 1):
            assert ExperimentConfig(kind="attack", master_seed=seed).master_seed == seed
        for seed in (-2**63 - 1, 2**63, 2**64):
            with pytest.raises(ConfigError, match="'master_seed' must be an integer in"):
                ExperimentConfig(kind="attack", master_seed=seed)
        assert ExperimentConfig(kind="sweep", dims=[4, 8]).dims == (4, 8)

    @pytest.mark.parametrize("key, value, message", list(_range_cases()))
    def test_every_key_has_its_range_rule(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(kind="attack", **{key: value})
        assert str(info.value) == message

    def test_round_trip_dict(self, tmp_path, capsys):
        # a summary's config holds exactly the keys its kind takes and
        # rebuilds the run's config, and a rerun from it writes the same CSV
        for kind in _QUICK:
            stem = kind.replace(":", "_")
            assert main(_quick_argv(kind, tmp_path / "a")) == 0, kind
            config = json.loads((tmp_path / "a" / f"{stem}_summary.json").read_text())["config"]
            assert set(config) == set(harness._accepted(kind)), kind
            assert ExperimentConfig.from_dict(config) == \
                ExperimentConfig.from_dict({"kind": kind, **_quick(kind)}), kind
            cfgfile = tmp_path / "cfg.json"
            cfgfile.write_text(json.dumps(config))
            assert main([*kind.split(":"), "--config", str(cfgfile),
                         "--out-dir", str(tmp_path / "b")]) == 0, kind
            assert (tmp_path / "b" / f"{stem}.csv").read_bytes() == \
                (tmp_path / "a" / f"{stem}.csv").read_bytes(), kind

    def test_readme_key_table(self):
        # README's table of the keys each subcommand takes is the code's
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(\w+(?: \w+)?)` \| (.*) \|$", readme, re.MULTILINE)
        table = {command: re.findall(r"`(\w+)`", keys) for command, keys in rows}
        assert table == {kind.replace(":", " "): list(KINDS[kind].keys) for kind in KINDS}


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
            {"kind": "sweep", "dims": [16, 24], "trials": 12, "master_seed": 3}))
        row = sweep["rows"][0].values
        statuses = [r.status for r in attack["rows"]]
        assert (row["flips"], row["degenerate"]) == (statuses.count("ok"),
                                                     statuses.count("degenerate"))
        assert row["linearity_median"] == float(np.median(linearity))
        assert row["ratio_median"] == attack["summary"]["ratio_median"]
        # over every non-degenerate trial, flipped or not
        assert len(abs_cos) > len(linearity)
        assert row["abs_cos_sqrt_d_median"] == float(np.median(np.sqrt(16) * np.array(abs_cos)))
        # attack's summary is that sweep row's statistics, every one of them
        stats = {k: v for k, v in attack["summary"].items() if k not in ("config", "version")}
        assert stats == {k: v for k, v in row.items() if k not in ("d", "trials")}

    def test_sweep_honours_widths(self):
        # at its first d, sweep runs attack's trials on the same widths and streams
        base = {"widths": [3, 5], "trials": 20, "master_seed": 4}
        sweep = run_experiment(ExperimentConfig.from_dict(
            {"kind": "sweep", "dims": [8, 16], **base}))
        attack = run_experiment(ExperimentConfig.from_dict({"kind": "attack", "d": 8, **base}))
        stats = {k: v for k, v in attack["summary"].items() if k not in ("config", "version")}
        row = sweep["rows"][0].values
        assert stats == {k: v for k, v in row.items() if k not in ("d", "trials")}

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

    def test_keys_a_kind_does_not_take_change_nothing(self, tmp_path):
        # every key a kind does not take, set to another valid value, moves
        # no row and no summary value: rejecting those keys loses no function
        for kind, extra in _QUICK.items():
            foreign = {key: value for _, (key, _, value) in _FLAGS.items()
                       if key not in harness._accepted(kind)}
            outputs = []
            for i, cfg in enumerate((ExperimentConfig(kind=kind, master_seed=3, **extra),
                                     ExperimentConfig(**{"kind": kind, "master_seed": 3,
                                                         **extra, **foreign}))):
                out = run_experiment(cfg)
                write_csv(out["rows"], tmp_path / f"{i}.csv")
                del out["summary"]["config"]
                outputs.append(((tmp_path / f"{i}.csv").read_bytes(),
                                json.dumps(out["summary"], sort_keys=True)))
            assert foreign and outputs[0] == outputs[1], kind

    def test_probe_dispatch_all_names(self, tmp_path, capsys):
        assert list(_QUICK) == [kind for kind, spec in KINDS.items() if spec.run]
        for kind in _QUICK:
            cfg = ExperimentConfig.from_dict({"kind": kind, **_quick(kind)})
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

    @pytest.mark.parametrize("argv, target", [
        ("attack --d 16 --trials 2", "run_experiment"),
        ("sample --d 8 --widths 4", "build_network"),
    ])
    def test_out_of_memory_exit_one(self, tmp_path, capsys, monkeypatch, argv, target):
        # a size that passes the config check but cannot be allocated
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")
        monkeypatch.setattr(cli, target, allocate)
        out = tmp_path / "out"
        rc = main(argv.split() + ["--out-dir", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 8.00 TiB\n"
        assert not out.exists()

    def test_package_error_exit_one(self, tmp_path, capsys, monkeypatch):
        # a RelurandError that reaches main, such as a DegenerateInput no trial caught
        def degenerate(*args, **kwargs):
            raise DegenerateInput("f(x)=0.0, ||grad||=0.0")
        monkeypatch.setattr(cli, "run_experiment", degenerate)
        out = tmp_path / "out"
        rc = main(["attack", "--d", "16", "--trials", "2", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == "error: f(x)=0.0, ||grad||=0.0\n"
        assert not out.exists()

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
        # each subcommand takes each key its kind takes as a flag, and its
        # summary records every one; sample saves the net of d, widths and the seed
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"kind"}
        assert {key for key, _, _ in _FLAGS.values()} == keys
        for kind in KINDS:
            taken = {flag: v for flag, v in _FLAGS.items() if v[0] in harness._accepted(kind)}
            out_dir = tmp_path / kind.replace(":", "_")
            argv = [*kind.split(":"), "--out-dir", str(out_dir)]
            for flag, (_, values, _) in taken.items():
                argv += [flag, *values]
            assert main(argv) == 0, kind
            if kind == "sample":
                from relurand.network import load_network
                net = load_network(out_dir / "network.rrnn")
                assert (net.arch.input_dim, net.arch.hidden_widths, net.master_seed) == \
                    (5, (3, 4), 7)
                continue
            stem = kind.replace(":", "_")
            config = json.loads((out_dir / f"{stem}_summary.json").read_text())["config"]
            assert config == {"kind": kind, **{k: v for k, _, v in taken.values()}}, kind

    def test_every_other_flag_is_the_config_file_error(self, tmp_path, capsys):
        # a flag whose key the subcommand's kind does not take exits 1 before
        # any work, with the one stderr line of that key in a config file;
        # of the 13 subcommands' 18 keys each, 80 pairs are taken
        cfgfile = tmp_path / "cfg.json"
        out = tmp_path / "out"
        rejected = 0
        for kind in KINDS:
            for flag, (key, values, value) in _FLAGS.items():
                if key in harness._accepted(kind):
                    continue
                cfgfile.write_text(json.dumps({key: value}))
                errs = []
                for source in ([flag, *values], ["--config", str(cfgfile)]):
                    assert main([*kind.split(":"), *source, "--out-dir", str(out)]) == 1, \
                        (kind, flag)
                    errs.append(capsys.readouterr().err)
                    assert not out.exists()
                assert errs[0] == errs[1] == \
                    f"config error: kind '{kind}' takes no key(s) ['{key}']\n"
                rejected += 1
        assert 13 * 18 - rejected == 80

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
        ("probe sign_flip --radius -1", "radius"),
        ("kernel --theta0 nan", "theta_0"),
        ("kernel --theta0 4", "theta_0"),
        # keys the kind does not take
        ("attack --d 8 --trials 3 --depth 7 --n-pairs 3 --theta0 1", "depth"),
        ("kernel --trials 3 --widths 4 4", "trials"),
        ("kernel --steps 5 --seed 1", "master_seed"),
        ("collapse --d 4 --width 16 --depth 2 --n-pairs 2 --workers 2", "workers"),
    ])
    def test_invalid_config_rejected_before_work(self, tmp_path, capsys, argv, key):
        rc = main(argv.split() + ["--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("config error:") and f"'{key}'" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, config, key", [
        ("--d abc", '{"d": "abc"}', "d"),
        ("--d 100000000000000000000000", '{"d": 100000000000000000000000}', "d"),
        ("--widths 8 x", '{"widths": [8, "x"]}', "widths"),
        ("--radius abc", '{"radius": "abc"}', "radius"),
        ("--t-max none", '{"t_max": "none"}', "t_max"),
        # RngStream keys on the seed mod 2^64: these would run seed 0's streams
        ("--seed 18446744073709551616", '{"master_seed": 18446744073709551616}',
         "master_seed"),
        ("--seed -18446744073709551616", '{"master_seed": -18446744073709551616}',
         "master_seed"),
    ])
    def test_malformed_flag_is_the_config_file_error(self, tmp_path, capsys, flag, config,
                                                     key):
        # the same malformed value as a flag and in a config file, on a
        # subcommand that takes the key: exit 1, one identical stderr line
        # naming the key, nothing written
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(config)
        errs = []
        for i, source in enumerate((flag.split(), ["--config", str(cfgfile)])):
            out = tmp_path / str(i)
            assert main([*_command_taking(key), *source, "--out-dir", str(out)]) == 1
            errs.append(capsys.readouterr().err)
            assert not out.exists()
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"config error: '{key}' must be ")

    def test_integer_number_key_is_its_flag_value(self, tmp_path, capsys):
        # {"radius": 1} in a file is the 1.0 that --radius 1 parses to, so
        # the run writes the same summary, config included, from either
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"radius": 1}')
        argv = ["probe", "sign_flip", "--n-draws", "1000", "--trials", "2"]
        outputs = []
        for i, source in enumerate((["--radius", "1"], ["--config", str(cfgfile)])):
            out = tmp_path / str(i)
            assert main(argv + source + ["--out-dir", str(out)]) == 0
            outputs.append([(out / f"probe_sign_flip{suffix}").read_bytes()
                            for suffix in (".csv", "_summary.json")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("config, key", [
        ('{"d": NaN}', "d"), ('{"trials": 2.5}', "trials"), ('{"workers": true}', "workers"),
        ('{"widths": 5}', "widths"), ('{"widths": [4, NaN]}', "widths"),
        ('{"radius": "1"}', "radius"), ('{"t_max": [1]}', "t_max"),
        pytest.param('{"radius": 1%s}' % ("0" * 400), "radius", id="radius-10**400"),
        ('{"kind": "collapse", "d": 8, "widths": [8], "trials": 2}', "kind"),
    ])
    def test_wrongly_typed_config_file_rejected(self, tmp_path, capsys, config, key):
        # on a subcommand that takes the key, so that its type is checked
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(config)
        out = tmp_path / "out"
        rc = main([*_command_taking(key), "--config", str(cfgfile), "--out-dir", str(out)])
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

    def test_empty_widths_mean_d_d(self, tmp_path, capsys):
        # one default in every kind: attack without widths runs the (d, d)
        # net, and sample without widths saves it
        from relurand.network import load_network
        csvs = set()
        for name, widths in (("empty", []), ("dd", ["--widths", "12", "12"])):
            rc = main(["attack", "--d", "12", "--trials", "6", "--seed", "4", *widths,
                       "--out-dir", str(tmp_path / name)])
            assert rc == 0
            csvs.add((tmp_path / name / "attack.csv").read_bytes())
        assert len(csvs) == 1
        out = tmp_path / "net.rrnn"
        assert main(["sample", "--d", "12", "--seed", "4", "--out", str(out)]) == 0
        assert load_network(out).arch.hidden_widths == (12, 12)

    def test_no_bound_applies_frequency_is_null(self, tmp_path, capsys):
        # r = 100 > R = 2 at every trial, so no row has a bound: the run has
        # no violation frequency, and no alert level can be exceeded
        rc = main(["probe", "sign_flip", "--d", "4", "--radius", "100", "--trials", "3",
                   "--alert-level", "-1", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        header, *lines = (tmp_path / "probe_sign_flip.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == 3 and all(r["bound"] == "" for r in rows)
        summary = json.loads((tmp_path / "probe_sign_flip_summary.json").read_text())
        assert summary["violation_frequency"] is None

    def test_gradient_smoothness_has_no_violation_frequency(self, tmp_path, capsys):
        # the probe checks no bound, so no alert level can be exceeded
        rc = main(["probe", "gradient_smoothness", "--d", "8", "--trials", "3",
                   "--n-samples", "2", "--alert-level", "-1", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        header, *lines = (tmp_path / "probe_gradient_smoothness.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == 3 and all(r["violation_frequency"] == "" for r in rows)
        summary = json.loads((tmp_path / "probe_gradient_smoothness_summary.json").read_text())
        assert summary["violation_frequency"] is None

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

    # not JSON, not UTF-8 (the head of an ELF binary), and JSON but no object
    @pytest.mark.parametrize("content", [b"{bad", b"\x7fELF\x02\x01\x01\x00\xff\xfe{}",
                                         b"[1, 2]"])
    def test_malformed_config_file_exit_one(self, tmp_path, capsys, content):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_bytes(content)
        rc = main(["kernel", "--config", str(cfgfile), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: 'config' file ")

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

    def test_parallel_cli_outputs_identical(self, tmp_path, capsys, forks):
        # at workers w the trials also run in w - 1 forked children; those of
        # segment_spectral call spectral_norm under the BLAS pin
        for argv in (["attack", "--d", "64", "--widths", "64", "--trials", "6"],
                     ["sweep", "--dims", "8", "16", "32", "--trials", "4"],
                     ["probe", "segment_spectral", "--d", "32", "--widths", "32", "16", "32",
                      "--trials", "5", "--radius", "0.5", "--n-samples", "2"],
                     ["probe", "value_gradient", "--d", "16", "--widths", "16", "--trials", "7"],
                     ["probe", "dist_equiv", "--d", "16", "--widths", "16", "--trials", "40",
                      "--alert-level", "1"],
                     ["probe", "gaussian_spectral", "--dims", "6", "9", "--trials", "5"],
                     ["probe", "scale_preservation", "--d", "16", "--trials", "4",
                      "--n-samples", "2", "--alert-level", "1"],
                     ["probe", "activation_margin", "--d", "16", "--trials", "4",
                      "--alert-level", "1"],
                     ["probe", "gradient_smoothness", "--d", "16", "--trials", "4",
                      "--n-samples", "2"],
                     ["probe", "sign_flip", "--d", "8", "--trials", "4", "--n-draws", "500",
                      "--alert-level", "1"]):
            kind = "_".join(argv[:2]) if argv[0] == "probe" else argv[0]
            csvs, summaries = set(), []
            for w in ("1", "2", "3"):
                d = tmp_path / f"{kind}{w}"
                forks.clear()
                rc = main(argv + ["--seed", "8", "--workers", w, "--out-dir", str(d)])
                assert rc == 0
                assert len(forks) == int(w) - 1, kind
                csvs.add((d / f"{kind}.csv").read_bytes())
                summary = json.loads((d / f"{kind}_summary.json").read_text())
                del summary["config"]["workers"]
                summaries.append(summary)
            assert len(csvs) == 1, kind
            assert summaries[0] == summaries[1] == summaries[2], kind



def _csv_records(path):
    """A CSV's rows as TrialRecords, each nonempty cell a float: written at
    17 digits, every float reads back exactly."""
    header, *lines = path.read_text().splitlines()
    columns = header.split(",")[3:]
    records = []
    for line in lines:
        _, seed, status, *cells = line.split(",")
        records.append(TrialRecord(int(seed), {k: float(v) for k, v in zip(columns, cells) if v},
                                   status))
    return records


class TestSummaryFromCsv:
    """A summary recomputed from its CSV alone equals the summary JSON
    exactly.  dist_equiv and gaussian_spectral are not covered: their CSV
    holds their summary as its one row, not their trials' samples, so
    there is nothing to recompute it from."""

    @staticmethod
    def _run(tmp_path, argv):
        kind = "_".join(argv[:2]) if argv[0] == "probe" else argv[0]
        assert main(argv + ["--seed", "5", "--out-dir", str(tmp_path)]) == 0
        return (_csv_records(tmp_path / f"{kind}.csv"),
                json.loads((tmp_path / f"{kind}_summary.json").read_text()))

    def test_attack(self, tmp_path, capsys):
        # narrow layers and a short reach: trials of every status
        rows, summary = self._run(tmp_path, ["attack", "--d", "4", "--widths", "3", "3",
                                             "--trials", "30", "--t-max", "2"])
        assert {r.status for r in rows} == {"ok", "not_flipped", "degenerate"}
        stats = harness._flip_stats(4, rows)
        assert {k: summary[k] for k in stats} == stats

    def test_sign_flip_violation_frequency(self, tmp_path, capsys):
        # r close to R, where the bound is small: some trials violate it
        rows, summary = self._run(tmp_path, ["probe", "sign_flip", "--d", "8", "--radius", "2.8",
                                             "--trials", "20", "--n-draws", "200",
                                             "--alert-level", "1"])
        violated = [float(r.values["empirical"] > r.values["bound"]) for r in rows]
        assert 0.0 < summary["violation_frequency"] == float(np.mean(violated)) < 1.0

    def test_value_gradient(self, tmp_path, capsys):
        # width 3 and delta near 1: both bounds fail at some nets
        rows, summary = self._run(tmp_path, ["probe", "value_gradient", "--d", "16",
                                             "--widths", "3", "3", "--trials", "40",
                                             "--delta", "0.999", "--alert-level", "1"])
        stats = probes.value_gradient_stats([r.values for r in rows], 2, 0.999)
        assert {k: summary[k] for k in stats} == stats
        assert 0.0 < stats["grad_bound_freq"] < 1.0 and 0.0 < stats["value_bound_freq"] < 1.0


@pytest.fixture
def forks(monkeypatch):
    """Fan-out as on an 8-CPU host, so that `workers` alone sets how many
    processes share the trials; yields the list of pids os.fork returned
    in the caller.  After the test no child of this process is left."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(os, "fork", counting_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _map(workers, fn, n):
    return harness._map_trials(ExperimentConfig(kind="attack", workers=workers), fn, n)


class TestFanOut:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_degenerate_trial_in_a_child_is_a_row(self, forks, workers):
        def fn(i):
            if i == 4:
                raise DegenerateInput("zero gradient")
            return TrialRecord(i, {"i": i})

        records = _map(workers, fn, 6)
        assert len(forks) == workers - 1
        assert [r.status for r in records] == ["ok"] * 4 + ["degenerate", "ok"]
        assert [r.seed for r in records] == list(range(6))
        assert [r.values.get("i") for r in records] == [0, 1, 2, 3, None, 5]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_raise_in_a_child_reaches_the_caller(self, forks, workers):
        def fn(i):
            if i == 5:
                raise ValueError(f"trial {i} failed")
            return i

        with pytest.raises(ValueError, match="^trial 5 failed$"):
            _map(workers, fn, 6)

    def test_unpicklable_exception_becomes_relurand_error(self, forks):
        class Local(Exception):
            pass

        def fn(i):
            if i == 1:
                raise Local("cannot cross a pipe")
            return i

        with pytest.raises(harness.RelurandError, match="cannot cross a pipe"):
            _map(2, fn, 2)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_raise_in_the_callers_share_reaps_the_children(self, forks, workers):
        def fn(i):
            if i == 3:
                raise KeyError("caller")
            return i

        with pytest.raises(KeyError):
            _map(workers, fn, 4)

    def test_child_killed_by_a_signal(self, forks):
        import signal

        def fn(i):
            if i == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(harness.RelurandError, match=r"killed by signal 9 \("):
            _map(2, fn, 2)

    def test_forks_at_most_one_child_per_trial(self, forks):
        assert _map(64, lambda i: i * i, 3) == [0, 1, 4]
        assert len(forks) == 2

    def test_a_failed_fork_runs_the_share_in_the_caller(self, monkeypatch, forks):
        def no_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _map(3, lambda i: -i, 5) == [0, -1, -2, -3, -4]

    def test_no_fork_beside_a_live_thread(self, forks):
        import threading
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _map(3, lambda i: i + 1, 6) == [1, 2, 3, 4, 5, 6]
        finally:
            release.set()
            thread.join()
        assert forks == []


def test_pinned_runs_independent_of_blas_threads(tmp_path):
    """tests/pinned_runs.py at one and at two OpenBLAS threads: every run
    exits 0, both passes print the same digests, and the runs cover every
    kind, sample among them.  BLAS reads its thread count once, at import, so each
    pass is a fresh process; the two run side by side.  pyproject.toml's
    RuntimeWarning filter reaches only this process, so the children get
    their own, and a RuntimeWarning fails the pass."""
    src = str(Path(relurand.__file__).parents[1])
    passes = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONWARNINGS": "error::RuntimeWarning",
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
    assert kinds == set(KINDS)


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


def test_every_kind_runs_on_one_blas_thread(monkeypatch):
    # attack, kernel and a probe each run at one OpenBLAS thread, from a
    # count of 2, and leave the count as they found it
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS found in /proc/self/maps")
    count, put = calls
    seen = {}

    def spy(key, fn):
        def wrapped(*args, **kwargs):
            seen[key] = count()
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(harness, "flip_search", spy("attack", harness.flip_search))
    monkeypatch.setattr(harness, "kernel_iterate", spy("kernel", harness.kernel_iterate))
    monkeypatch.setattr(probes, "probe_gaussian_spectral",
                        spy("probe", probes.probe_gaussian_spectral))
    saved = count()
    put(2)
    try:
        for config in ({"kind": "attack", "d": 8, "widths": [8], "trials": 2},
                       {"kind": "kernel", "steps": 3},
                       {"kind": "probe:gaussian_spectral", "dims": [3, 4], "trials": 2}):
            run_experiment(ExperimentConfig.from_dict(config))
            assert count() == 2, config["kind"]
    finally:
        put(saved)
    assert seen == {"attack": 1, "kernel": 1, "probe": 1}


def _sizes(lo, hi):
    return st.one_of(st.integers(lo, hi), st.integers(-2, 0), st.just(float("nan")))


_REALS = st.one_of(st.floats(-2.0, 4.0), st.sampled_from([0.0, -1.0, float("nan")]))

# The size keys a kind takes are always set, so that no default (d = 64,
# n_draws = 10^5) makes an example slow; its other keys are set or left at
# their defaults.
_SIZE_KEYS = {"d": _sizes(1, 8), "widths": st.lists(_sizes(1, 8), max_size=3),
              "dims": st.lists(_sizes(1, 8), max_size=3), "trials": _sizes(1, 3),
              "n_draws": _sizes(1, 200), "depth": _sizes(1, 4), "width": _sizes(8, 16),
              "steps": _sizes(1, 20), "n_pairs": _sizes(1, 3), "n_samples": _sizes(1, 3)}
_OTHER_KEYS = {"master_seed": st.integers(-3, 3), "workers": _sizes(1, 2),
               "radius": _REALS, "alpha": _REALS, "delta": _REALS, "theta_0": _REALS,
               "alert_level": _REALS, "t_max": st.one_of(st.none(), _REALS)}


@st.composite
def _flat_configs(draw):
    """(kind, a config file's keys, the one key in it that the kind does not
    take, or None when there is none)."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    taken = harness._accepted(kind)
    config = draw(st.fixed_dictionaries(
        {k: v for k, v in _SIZE_KEYS.items() if k in taken},
        optional={k: v for k, v in _OTHER_KEYS.items() if k in taken}))
    keys = {**_SIZE_KEYS, **_OTHER_KEYS}
    foreign = draw(st.none() | st.sampled_from(sorted(set(keys) - set(taken))))
    if foreign is not None:
        config[foreign] = draw(keys[foreign])
    return kind, config, foreign


@given(case=_flat_configs())
@settings(max_examples=300, deadline=None)
def test_cli_fuzz_flat_configs(case):
    kind, config, foreign = case
    argv = ["probe", kind.split(":")[1]] if kind.startswith("probe:") else [kind]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv + ["--config", str(path), "--out-dir", tmp])
        written = [p.name for p in Path(tmp).iterdir()]
    assert rc in (0, 1, 2, 3)
    if foreign is not None:
        assert rc == 1 and written == ["config.json"]
        assert err.getvalue() == f"config error: kind '{kind}' takes no key(s) ['{foreign}']\n"
