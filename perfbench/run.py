#!/usr/bin/env python3
"""relurand benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload attack --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  The workload runs in its own fresh
child process (perfbench/child.py) driven through ``relurand.cli.main``.
With ``--trace 0`` the command first times several fresh interpreters up to
a validated config (setup_s), then reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics from perfbench/spans.py.
Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 when
every output check passed, 1 when one failed, 2 when the checkout has no
relurand source or the workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_STARTS = 9
CHILD_TIMEOUT_S = 150.0

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("units_per_s", "1/s"),
)


def _child(args: list[str], env: dict) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure_setup(name: str, env: dict) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    relurand.cli and validated every config of the workload."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = _child(["setup", name], env)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            _stop(proc)
        if line.strip() != "ok" or proc.returncode != 0:
            raise RuntimeError(f"setup child failed (exit {proc.returncode})")
        times.append(t1 - t0)
    return times


def run_child(name: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    out_dir = ROOT / ".perfbench_out" / name
    proc = _child(["run", name, str(seed), str(seconds), str(trace), str(out_dir)], env)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        _stop(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload child failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def tail(values: list[float]) -> tuple[int, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def end_to_end(name: str, setup: list[float], res: dict) -> dict:
    wall = statistics.median(res["wall_s"])
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": statistics.median(res["cpu_s"]),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "units_per_s": workloads.units(name) / wall,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "relurand" / "cli.py").is_file():
        print(f"perfbench: no relurand source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    try:
        setup = [] if args.trace else measure_setup(args.workload, env)
        res = run_child(args.workload, args.seed, args.seconds, args.trace, env)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    for gate, (ok, detail) in res["gates"].items():
        print(f"check {gate}: {'pass' if ok else 'FAIL'} ({detail})")
    correct = res["failed"] == 0
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")

    if args.trace:
        from spans import PER_LAYER
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = end_to_end(args.workload, setup, res)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        walls = res["wall_s"]
        extra = f"median of {len(walls)} iterations"
        t = tail(walls)
        if t:
            extra += f"; p{t[0]} {t[1]:.4f} s"
        print(f"wall_s samples: {extra}; setup_s median of {len(setup)} starts")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")

    result = {"correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    out = ROOT / ".perfbench_out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "env": res["env"], "gates": res["gates"],
                   "wall_s_samples": res.get("wall_s"), "setup_s_samples": setup},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
