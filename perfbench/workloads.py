"""Workload definitions and output checks for the relurand benchmark.

A workload is a fixed list of CLI invocations ("calls"); one pass over the
list is an iteration.  Problem sizes are pinned here.  Each call is a flat
config dict with the same keys as ``ExperimentConfig``; ``argv`` turns it
into the command line a user would type.

Output checks are statistical gates taken from the acceptance tests, never
byte hashes, because faster samplers legitimately change random streams.
Every gate is pooled over a whole run or set so that a correct program trips
it with probability well below 1e-4 per run at any seed.  This module imports
neither numpy nor relurand: the parent process uses it too.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Every iteration of a workload runs these calls in order.  Trial counts are
# chosen so that one iteration takes 0.5-5 s on 2 cores and, in `probes`,
# no single probe takes more than about half of the iteration.
WORKLOADS = {
    # The paper's flip-rate config (acceptance test_04) at nproc workers.
    # Bound by weight sampling and ~30 sequential forward passes per trial;
    # exercises the search and the thread fan-out.
    "attack": [
        {"kind": "attack", "d": 500, "widths": [500, 500], "workers": 2, "trials": 50},
    ],
    # Deep 2/fan-in collapse simulation: per-layer gaussian sampling plus one
    # width x fan-in matmat.  Never touches network or adversarial.
    "collapse": [
        {"kind": "collapse", "d": 10, "width": 2000, "depth": 40, "n_pairs": 50},
    ],
    # The Monte Carlo bound probes at the sizes of scripts/run_bound_probes.py,
    # single-threaded: spectral norms and many small forward/gradient calls.
    "probes": [
        {"kind": "probe:sign_flip", "d": 200, "radius": 0.7,
         "n_draws": 100_000, "trials": 2, "workers": 1},
        {"kind": "probe:gaussian_spectral", "dims": [200, 300],
         "delta": 0.01, "trials": 40, "workers": 1},
        {"kind": "probe:segment_spectral", "d": 256,
         "widths": [256, 64, 256], "radius": 1.6, "n_samples": 5,
         "trials": 6, "workers": 1},
        {"kind": "probe:value_gradient", "d": 256, "widths": [256, 256],
         "trials": 100, "workers": 1},
        # The KS test inside dist_equiv rejects at level 0.01, so a correct
        # program would exit 3 on about 1 call in 100.  The alert is
        # disabled for this probe and the KS statistic is gated below at
        # DIST_EQUIV_LEVEL instead.
        {"kind": "probe:dist_equiv", "d": 128, "widths": [128, 128],
         "trials": 300, "workers": 1, "alert_level": 1.0},
    ],
}

# Pooled |z| of the sign-flip estimates against the exact theta/pi oracle.
# test_08 gates each of 60 pairs at |z| <= 3, which a correct program fails
# at about 15% of seeds; one pooled z at 4 fails at 6e-5.
SIGN_FLIP_MAX_Z = 4.0
# Two-sample KS level for dist_equiv (test_09 uses 0.01 at one fixed seed).
DIST_EQUIV_LEVEL = 1e-6
ATTACK_MIN_FLIP_RATE = 0.95
ATTACK_MAX_RATIO = 0.5
COLLAPSE_NORM_RATIO = (0.8, 1.2)
COLLAPSE_MAX_MAD = 0.05
OK_STATUSES = ("ok", "not_flipped")

def argv(call: dict, seed: int, out_dir: Path) -> list[str]:
    """Command line for one call, e.g. ``attack --d 500 ... --seed 7``."""
    kind = call["kind"]
    args = ["probe", kind.split(":", 1)[1]] if kind.startswith("probe:") else [kind]
    for key, value in call.items():
        if key == "kind":
            continue
        args.append("--" + key.replace("_", "-"))
        args += [str(v) for v in value] if isinstance(value, list) else [str(value)]
    return args + ["--seed", str(seed), "--out-dir", str(out_dir)]


def call_seed(seed: int, iteration: int) -> int:
    """Master seed of one iteration: distinct inputs per iteration and run."""
    return seed * 100_003 + iteration


def units(name: str) -> int:
    """Work units of one iteration of workload ``name``."""
    total = 0
    for call in WORKLOADS[name]:
        if call["kind"] == "collapse":
            total += call["depth"] * call["n_pairs"]
        else:
            total += call["trials"]
    return total


def output(out_dir: Path, call: dict, suffix: str) -> Path:
    """Where the CLI writes a call's CSV (".csv") or summary ("_summary.json")."""
    return out_dir / (call["kind"].replace(":", "_") + suffix)


def read_rows(out_dir: Path, call: dict) -> list[dict]:
    with open(output(out_dir, call, ".csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def read_summary(out_dir: Path, call: dict) -> dict:
    with open(output(out_dir, call, "_summary.json")) as fh:
        return json.load(fh)


def _ks_critical(n_a: int, n_b: int, level: float) -> float:
    return math.sqrt(-0.5 * math.log(level / 2.0)) * math.sqrt((n_a + n_b) / (n_a * n_b))


class Checker:
    """Accumulates one run's outputs and applies the workload's gates.

    ``observe`` is called after every call with that call's CSV rows and
    returns the number of rows whose status is neither ok nor not_flipped.
    ``finish`` returns ``{gate name: (passed, detail)}``.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.attack_trials = 0
        self.attack_good = 0
        self.collapse_calls = 0
        self.collapse_bad_ratio = 0
        self.collapse_worst_mad = 0.0
        self.sf_diff = 0.0
        self.sf_var = 0.0
        self.sf_pairs = 0
        self.sf_over_bound = 0
        self.gs_worst = 0
        self.de_worst = 0.0
        self.de_calls = 0
        self.shape_errors: list[str] = []

    def observe(self, call: dict, rows: list[dict], summary: dict) -> int:
        kind = call["kind"]
        expected = call["depth"] if kind == "collapse" else (
            1 if kind in ("probe:dist_equiv", "probe:gaussian_spectral") else call["trials"])
        if len(rows) != expected:
            self.shape_errors.append(f"{kind}: {len(rows)} rows, expected {expected}")
        if summary.get("config", {}).get("kind", kind) != kind:
            self.shape_errors.append(f"{kind}: summary names another kind")
        bad = sum(r["status"] not in OK_STATUSES for r in rows)
        good = [r for r in rows if r["status"] in OK_STATUSES]
        if kind == "attack":
            self.attack_trials += len(rows)
            self.attack_good += sum(
                r["status"] == "ok" and float(r["ratio"]) <= ATTACK_MAX_RATIO for r in good)
        elif kind == "collapse":
            self.collapse_calls += 1
            lo, hi = COLLAPSE_NORM_RATIO
            self.collapse_bad_ratio += sum(
                not lo <= float(r["norm_ratio_median"]) <= hi for r in good)
            mad = sum(abs(float(r["cosine_median"]) - float(r["kernel_rho_median"]))
                      for r in good) / max(len(good), 1)
            self.collapse_worst_mad = max(self.collapse_worst_mad, mad)
        elif kind == "probe:sign_flip":
            for r in good:
                self.sf_pairs += 1
                self.sf_diff += float(r["empirical"]) - float(r["oracle"])
                self.sf_var += float(r["std_error"]) ** 2
                self.sf_over_bound += r["bound"] == "" or float(r["empirical"]) > float(r["bound"])
        elif kind == "probe:gaussian_spectral":
            for r in good:
                self.gs_worst = max(self.gs_worst, int(r["violations"]))
        elif kind == "probe:dist_equiv":
            for r in good:
                self.de_calls += 1
                n = int(r["trials"])
                self.de_worst = max(self.de_worst, float(r["ks_statistic"])
                                    / _ks_critical(n, n, DIST_EQUIV_LEVEL))
        return bad

    def finish(self) -> dict:
        gates = {"row_shape": (not self.shape_errors,
                               "; ".join(self.shape_errors[:3]) or "row counts as configured")}
        if self.attack_trials:
            rate = self.attack_good / self.attack_trials
            gates["attack_flip_rate"] = (
                rate >= ATTACK_MIN_FLIP_RATE,
                f"{self.attack_good}/{self.attack_trials} trials flipped with ratio "
                f"<= {ATTACK_MAX_RATIO} ({rate:.4f}, need >= {ATTACK_MIN_FLIP_RATE})")
        if self.collapse_calls:
            gates["collapse_norm_ratio"] = (
                self.collapse_bad_ratio == 0,
                f"{self.collapse_bad_ratio} layer medians outside {COLLAPSE_NORM_RATIO}")
            gates["collapse_kernel_mad"] = (
                self.collapse_worst_mad <= COLLAPSE_MAX_MAD,
                f"worst kernel-tracking MAD {self.collapse_worst_mad:.4f} "
                f"(<= {COLLAPSE_MAX_MAD})")
        if self.workload == "probes":
            z = self.sf_diff / math.sqrt(self.sf_var) if self.sf_var > 0 else math.inf
            gates["sign_flip_oracle"] = (
                abs(z) <= SIGN_FLIP_MAX_Z and self.sf_over_bound == 0,
                f"pooled |z| {abs(z):.2f} over {self.sf_pairs} pairs "
                f"(<= {SIGN_FLIP_MAX_Z}); {self.sf_over_bound} pairs over the bound")
            gates["gaussian_spectral_bound"] = (
                self.gs_worst <= 1, f"worst call had {self.gs_worst} violations (<= 1)")
            gates["dist_equiv_ks"] = (
                self.de_calls > 0 and self.de_worst <= 1.0,
                f"worst KS statistic / critical value at level {DIST_EQUIV_LEVEL:g} "
                f"is {self.de_worst:.3f} over {self.de_calls} calls (<= 1)")
        return gates
