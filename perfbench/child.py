"""One workload in one fresh interpreter; started by run.py, never directly.

    child.py setup <workload>
        Import relurand.cli, validate every config of the workload, print
        "ok".  run.py times this from process start to build setup_s.
    child.py run <workload> <seed> <seconds> <trace> <out_dir>
        Drive the workload through relurand.cli.main until <seconds> have
        passed and print one JSON line with raw samples, counts and gates.

Before the setup handshake only relurand and workloads.py (stdlib only) are
imported, so setup_s is close to what every CLI invocation pays.
"""

from __future__ import annotations

import sys

import workloads


def setup(name: str) -> None:
    import relurand.cli  # noqa: F401
    from relurand.harness import ExperimentConfig

    for call in workloads.WORKLOADS[name]:
        ExperimentConfig.from_dict({**call, "master_seed": 0})
    sys.stdout.write("ok\n")
    sys.stdout.flush()


def _environment() -> dict:
    import os
    import platform
    from pathlib import Path

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3,
        "machine": platform.machine(),
    }


class Runner:
    """Runs iterations of one workload through cli.main and checks them."""

    def __init__(self, name: str, out_dir):
        import os
        from pathlib import Path

        import relurand.cli

        self.cli = relurand.cli
        self.calls = workloads.WORKLOADS[name]
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.checker = workloads.Checker(name)
        self.devnull = open(os.devnull, "w")
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        self.devnull.close()

    def iteration(self, seed: int, calls=None, check: bool = True) -> tuple[float, float]:
        """Run every call once; return (wall_s, cpu_s) summed over the
        cli.main calls only.  Output files are read after the clock stops."""
        import contextlib
        import resource
        import time
        import traceback

        wall = cpu = 0.0
        for call in calls or self.calls:
            for suffix in (".csv", "_summary.json"):
                workloads.output(self.out_dir, call, suffix).unlink(missing_ok=True)
            argv = workloads.argv(call, seed, self.out_dir)
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(self.devnull):
                    rc = self.cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = "raised"
            t1 = time.perf_counter()
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            wall += t1 - t0
            cpu += (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
            if not check:
                continue
            self.attempted += 1
            if rc != 0:
                print(f"cli.main({' '.join(argv)}) returned {rc}", file=sys.stderr)
                self.failed += 1
                continue
            rows = workloads.read_rows(self.out_dir, call)
            summary = workloads.read_summary(self.out_dir, call)
            self.attempted += len(rows)
            self.failed += self.checker.observe(call, rows, summary)
        return wall, cpu

    def csv_bytes(self) -> dict:
        """Bytes of every call's CSV as the last iteration left them."""
        return {c["kind"]: workloads.output(self.out_dir, c, ".csv").read_bytes()
                for c in self.calls}

    def gates(self, extra=None) -> dict:
        gates = self.checker.finish()
        gates.update(extra or {})
        self.attempted += len(gates)
        self.failed += sum(not ok for ok, _ in gates.values())
        return gates


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    import resource
    import time

    runner = Runner(name, out_dir)
    try:
        # warm-up: lazy imports, BLAS thread start, first-touch pages
        runner.iteration(workloads.call_seed(seed, 0))
        if trace:
            result = _traced(runner, seed, seconds)
        else:
            walls, cpus = [], []
            start = time.perf_counter()
            k = 1
            while time.perf_counter() - start < seconds or len(walls) < 3:
                w, c = runner.iteration(workloads.call_seed(seed, k))
                walls.append(w)
                cpus.append(c)
                k += 1
            result = {"wall_s": walls, "cpu_s": cpus, "gates": runner.gates()}
    finally:
        runner.close()
    result.update(
        attempted=runner.attempted, failed=runner.failed,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        env=_environment())
    return result


def _traced(runner: Runner, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced iterations on one input set.

    Every iteration uses the seed of the checked warm-up iteration, so each
    traced iteration must give the same counts and the same CSV bytes; the
    statistical gates see the warm-up's outputs only once.  The untraced
    partner of each traced iteration gives trace.overhead_s.  A workload that
    fans out also runs the untraced iteration at workers=1 for
    harness.fanout_speedup.
    """
    import time

    from spans import LayerAccumulator, Tracer

    tracer = Tracer()
    fan = [dict(c, workers=1) for c in runner.calls if c.get("workers", 1) > 1]
    s = workloads.call_seed(seed, 0)
    expected = runner.csv_bytes()
    layer = LayerAccumulator()
    untraced, serial = [], []
    counts_seen = []
    same_csv = True
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(untraced) < 2:
        untraced.append(runner.iteration(s, check=False)[0])
        if fan:
            serial.append(runner.iteration(s, calls=fan, check=False)[0])
        tracer.reset()
        tracer.install()
        try:
            wall, _ = runner.iteration(s, check=False)
        finally:
            tracer.uninstall()
        same_csv &= runner.csv_bytes() == expected
        layer.add(tracer, wall)
        counts_seen.append(dict(tracer.counts))
    tracer.dump(runner.out_dir / "spans.json")
    n = len(counts_seen)
    repeat = all(c == counts_seen[0] for c in counts_seen)
    gates = runner.gates({
        "trace_counts_repeat": (repeat, f"counts identical over {n} traced iterations"),
        "trace_outputs_repeat": (same_csv, f"CSV bytes of {n} traced iterations "
                                           "identical to the untraced warm-up"),
    })
    return {"layers": layer.metrics(untraced, serial), "gates": gates}


def main(argv: list[str]) -> int:
    import json

    mode, name = argv[0], argv[1]
    if mode == "setup":
        setup(name)
        return 0
    seed, seconds, trace, out_dir = int(argv[2]), float(argv[3]), argv[4] == "1", argv[5]
    result = run(name, seed, seconds, trace, out_dir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
