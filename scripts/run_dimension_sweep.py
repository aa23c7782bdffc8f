#!/usr/bin/env python3
"""Flip-ratio scaling experiment across input dimensions.

Reproduces the headline scaling table: median perturbation ratio vs d,
with the fitted log-log slope (expected near -1/2).  Writes sweep.csv
and sweep_summary.json into --out-dir.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relurand.harness import ExperimentConfig, run_experiment, write_csv, write_summary_json


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="+",
                    default=[125, 250, 500, 1000, 2000])
    ap.add_argument("--layers", type=int, default=2,
                    help="hidden layer count; widths track d at each dimension")
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20240824)
    ap.add_argument("--out-dir", type=Path, default=Path("results"))
    args = ap.parse_args()

    # sweep reads only the number of widths; each dimension uses widths = (d,)*layers
    cfg = ExperimentConfig.from_dict({
        "kind": "sweep", "dims": args.dims, "widths": [1] * args.layers,
        "trials": args.trials, "master_seed": args.seed,
    })
    out = run_experiment(cfg)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out["rows"], args.out_dir / "sweep.csv")
    write_summary_json(out["summary"], args.out_dir / "sweep_summary.json")

    def fmt(v):  # no flips at a dimension: no median; fewer than two medians: no slope
        return "n/a" if v is None else f"{v:.4f}"

    for r in out["rows"]:
        v = r.values
        print(f"d={v['d']:5d}  flip_rate={v['flip_rate']:.3f}  "
              f"degenerate={v['degenerate']}  ratio_median={fmt(v['ratio_median'])}")
    print(f"log-log slope: {fmt(out['summary']['slope'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
