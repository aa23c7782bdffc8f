"""Run every pinned run and print one line per run: the sha256 of its
output files, its exit code and its argv.

    PYTHONPATH=src python tests/pinned_runs.py OUT_DIR

The pinned runs are every configs/*.json, then GUARDS.  All run through
relurand.cli.main in this one interpreter, where scipy, hypothesis and
pytest cannot be imported.  Two passes print the same lines exactly when
the outputs are the same bytes: one pass per OPENBLAS_NUM_THREADS value
(tests/test_harness.py), or one per src tree (README, Determinism).
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

# shapes that no config reaches, each on a code path of its own
GUARDS = [
    "collapse --d 10 --width 2000 --depth 3 --n-pairs 200",  # a 400-column factor
    "collapse --d 10 --width 200 --depth 6 --n-pairs 5",  # below _AHEAD_MIN_NORMALS
    "collapse --d 5 --width 2000 --depth 1 --n-pairs 20",  # one layer, buffers sized by columns
    "sample --d 8 --widths 4",
    "probe sign_flip --n-draws 8193 --trials 5",  # one row past a block of _SIGN_FLIP_BLOCK
    "probe segment_spectral --d 64 --widths 64 16 64 8 --n-samples 3 --trials 4",  # two segments
]

if __name__ == "__main__":
    for name in ("scipy", "hypothesis", "pytest"):
        sys.modules[name] = None
    from relurand.cli import main

    out_root = Path(sys.argv[1]).resolve()
    os.chdir(Path(__file__).resolve().parents[1])
    runs = [[*path.stem.replace("probe_", "probe ", 1).split(), "--config", f"configs/{path.name}"]
            for path in sorted(Path("configs").glob("*.json"))]
    for i, argv in enumerate(runs + [guard.split() for guard in GUARDS]):
        out = out_root / str(i)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([*argv, "--out-dir", str(out)])
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()) if out.is_dir() else []:
            digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
        print(digest.hexdigest(), rc, *argv, flush=True)
