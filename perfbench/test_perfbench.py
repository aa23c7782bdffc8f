"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench

They are not part of the tier-1 suite (pyproject's testpaths is tests/).
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import child  # noqa: E402
import relurand.cli  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ATTACK = workloads.WORKLOADS["attack"][0]


def _attack_outputs(out_dir: Path, workers: int) -> tuple[bytes, bytes]:
    call = dict(ATTACK, workers=workers)
    with contextlib.redirect_stdout(io.StringIO()):
        assert relurand.cli.main(workloads.argv(call, 7, out_dir)) == 0
    return ((out_dir / "attack.csv").read_bytes(),
            (out_dir / "attack_summary.json").read_bytes())


@pytest.fixture(scope="module")
def attack_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("attack")
    return {name: _attack_outputs(base / name, workers)
            for name, workers in (("a", 2), ("b", 2), ("serial", 1))}


def test_attack_csv_identical_across_runs_and_workers(attack_runs):
    assert attack_runs["a"][0] == attack_runs["b"][0] == attack_runs["serial"][0]


def test_attack_summary_identical_across_runs(attack_runs):
    assert attack_runs["a"][1] == attack_runs["b"][1]


@pytest.mark.xfail(strict=True, reason="known defect: <kind>_summary.json embeds "
                   "config.workers, so it differs across worker counts")
def test_attack_summary_identical_across_workers(attack_runs):
    assert attack_runs["a"][1] == attack_runs["serial"][1]


def _traced_counts(runner: child.Runner, seed: int) -> tuple[dict, spans.Tracer]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        runner.iteration(seed)
    finally:
        tracer.uninstall()
    return dict(tracer.counts), tracer


@pytest.mark.parametrize("name", ["attack", "probes"])
def test_counts_repeat_exactly(name, tmp_path):
    runner = child.Runner(name, tmp_path)
    try:
        first, tracer = _traced_counts(runner, 11)
        second, _ = _traced_counts(runner, 11)
    finally:
        runner.close()
    _, _, calls = tracer.self_times()
    assert first == second
    assert first["rng.draws"] > 0
    if name == "attack":
        assert first["adversarial.evaluations"] > 0
        assert calls["network.forward"] > 0
    else:
        assert calls["linalg.spectral_norm"] > 0
    assert runner.failed == 0


def test_uninstall_restores_every_binding():
    from relurand import adversarial, harness, network, probes
    from relurand.rng import RngStream

    before = (network.forward, adversarial.forward, probes.forward, harness.forward,
              relurand.cli.main, harness._map_trials, RngStream.normal)
    tracer = spans.Tracer()
    tracer.install()
    assert adversarial.forward is not before[1] and network.forward is adversarial.forward
    tracer.uninstall()
    after = (network.forward, adversarial.forward, probes.forward, harness.forward,
             relurand.cli.main, harness._map_trials, RngStream.normal)
    assert after == before


def test_serial_self_times_sum_to_wall(tmp_path):
    """On a single-threaded workload every traced second lands in one layer."""
    calls = [{"kind": "collapse", "d": 10, "width": 200, "depth": 6, "n_pairs": 5},
             dict(workloads.WORKLOADS["probes"][2], trials=2)]
    runner = child.Runner("probes", tmp_path)
    tracer = spans.Tracer()
    acc = spans.LayerAccumulator()
    tracer.install()
    try:
        wall, _ = runner.iteration(3, calls=calls, check=False)
    finally:
        tracer.uninstall()
        runner.close()
    acc.add(tracer, wall)
    out = acc.metrics([wall], [])
    assert abs(out["trace.unattributed_s"]) <= 0.01 * wall
    assert out["rng.draws"] > 0 and out["collapse.layer_flops_computed"] > 0


def test_gates_fail_on_wrong_outputs():
    checker = workloads.Checker("attack")
    rows = [{"status": "ok", "ratio": "0.9"}] * ATTACK["trials"]
    assert checker.observe(ATTACK, rows, {}) == 0
    assert not checker.finish()["attack_flip_rate"][0]

    checker = workloads.Checker("attack")
    rows = [{"status": "degenerate", "ratio": ""}] + [{"status": "ok", "ratio": "0.1"}] * 49
    assert checker.observe(ATTACK, rows, {}) == 1

    sign_flip = workloads.WORKLOADS["probes"][0]
    checker = workloads.Checker("probes")
    rows = [{"status": "ok", "empirical": "0.02", "oracle": "0.0158",
             "std_error": "0.0004", "bound": "0.26"}] * 2
    checker.observe(sign_flip, rows, {})
    assert not checker.finish()["sign_flip_oracle"][0]


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER]


def test_refuses_checkout_without_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
