"""Run every pinned run and print one line per run: the sha256 of its
output files, its exit code and its argv.

    PYTHONPATH=src python tests/pinned_runs.py OUT_DIR
    python tests/pinned_runs.py --compare OUT_DIR_A OUT_DIR_B

The pinned runs are every configs/*.json, then GUARDS.  All run through
relurand.cli.main in this one interpreter, where scipy, hypothesis and
pytest cannot be imported.  Two passes print the same lines exactly when
the outputs are the same bytes: one pass per OPENBLAS_NUM_THREADS value
(tests/test_harness.py), or one per src tree (README, Determinism).

--compare reads two such OUT_DIRs and prints one line per run: the
largest relative change over its numeric CSV cells and summary values (0
when they are equal), its argv, and a note for each file whose header,
row count, keys or bytes changed; such a file's cells are compared by
column name over the rows both have.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# shapes that no config reaches, each on a code path of its own
GUARDS = [
    "collapse --d 10 --width 2000 --depth 3 --n-pairs 200",  # a 400-column factor
    "collapse --d 10 --width 200 --depth 6 --n-pairs 5",  # below _AHEAD_MIN_NORMALS
    "collapse --d 5 --width 2000 --depth 1 --n-pairs 20",  # one layer, buffers sized by columns
    "sample --d 8 --widths 4",
    "probe sign_flip --n-draws 8193 --trials 5",  # one row past a block of _SIGN_FLIP_BLOCK
    "probe segment_spectral --d 64 --widths 64 16 64 8 --n-samples 3 --trials 4",  # two segments
    # width-1 layers die, so sampled points meet ties: their bytes follow the tie rule
    "probe scale_preservation --d 2 --widths 1 1 --trials 20 --n-samples 2 --alert-level 1",
    # widths honoured by sweep: each d's net has hidden widths (12, 6), as attack's would
    "sweep --dims 8 16 --widths 12 6 --trials 5",
    # trials shared with a forked child: the bytes of workers 1
    "attack --d 16 --trials 6 --workers 2",
    # layers die mid-walk, and lazy layers complete
    "attack --d 20 --widths 4 4 4 --trials 40",
    # narrow layers walked in a forked child
    "attack --d 30 --widths 3 3 --trials 40 --workers 2",
    "probe dist_equiv --d 16 --widths 16 16 --trials 40 --workers 2",
]


def pinned_runs() -> list[list[str]]:
    """The argv of every pinned run, in the order of its OUT_DIR subdirectory."""
    runs = [[*path.stem.replace("probe_", "probe ", 1).split(), "--config", f"configs/{path.name}"]
            for path in sorted((ROOT / "configs").glob("*.json"))]
    return runs + [guard.split() for guard in GUARDS]


def _change(a: str, b: str) -> float:
    """Relative change from text a to text b: 0 when equal, inf when they
    differ and are not both numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _leaves(value, key=""):
    """{path: JSON text} of every scalar in a JSON value."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return {k: v for name, item in items for k, v in _leaves(item, f"{key}/{name}").items()}
    return {key: json.dumps(value)}


def _table(path: Path) -> tuple[list[str], list[dict]]:
    """A CSV's header and its rows as {column: text}; write_csv quotes nothing."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return header, [dict(zip(header, row)) for row in rows]


def _compare_file(a: Path, b: Path) -> tuple[float, list[str]]:
    """The largest relative change from file a to file b, and notes."""
    if a.suffix == ".csv":
        (head_a, rows_a), (head_b, rows_b) = _table(a), _table(b)
        notes = []
        if head_a != head_b:
            added = [c for c in head_b if c not in head_a]
            dropped = [c for c in head_a if c not in head_b]
            notes.append(f"{a.name} header" + "".join(f" +{c}" for c in added)
                         + "".join(f" -{c}" for c in dropped))
        if len(rows_a) != len(rows_b):
            notes.append(f"{a.name} rows {len(rows_a)} -> {len(rows_b)}")
        shared = [c for c in head_a if c in head_b]
        worst = max((_change(ra[c], rb[c]) for ra, rb in zip(rows_a, rows_b) for c in shared),
                    default=0.0)
        return worst, notes
    if a.suffix == ".json":
        leaves_a, leaves_b = (_leaves(json.loads(p.read_text())) for p in (a, b))
        notes = [] if leaves_a.keys() == leaves_b.keys() else [f"{a.name} keys"]
        worst = max((_change(v, leaves_b[k]) for k, v in leaves_a.items() if k in leaves_b),
                    default=0.0)
        return worst, notes
    same = a.read_bytes() == b.read_bytes()
    return (0.0 if same else math.inf), ([] if same else [f"{a.name} bytes"])


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """One line per run directory in dir_a or dir_b: the largest relative
    change, the run's argv, and notes."""
    runs = pinned_runs()
    lines = []
    for i in sorted({int(p.name) for d in (dir_a, dir_b) if d.is_dir() for p in d.iterdir()}):
        a, b = dir_a / str(i), dir_b / str(i)
        names = {p.name for d in (a, b) if d.is_dir() for p in d.iterdir()}
        worst, notes = 0.0, []
        for name in sorted(names):
            if not ((a / name).is_file() and (b / name).is_file()):
                worst = math.inf
                notes.append(f"{name} only in {'B' if (b / name).is_file() else 'A'}")
                continue
            change, file_notes = _compare_file(a / name, b / name)
            worst = max(worst, change)
            notes += file_notes
        argv = " ".join(runs[i]) if i < len(runs) else f"run {i}"
        lines.append(f"{worst:.3g} {argv}" + "".join(f"; {n}" for n in notes))
    return lines


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        for line in compare(Path(sys.argv[2]), Path(sys.argv[3])):
            print(line)
        sys.exit(0)
    for name in ("scipy", "hypothesis", "pytest"):
        sys.modules[name] = None
    from relurand.cli import main

    out_root = Path(sys.argv[1]).resolve()
    os.chdir(ROOT)
    for i, argv in enumerate(pinned_runs()):
        out = out_root / str(i)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main([*argv, "--out-dir", str(out)])
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()) if out.is_dir() else []:
            digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
        print(digest.hexdigest(), rc, *argv, flush=True)
