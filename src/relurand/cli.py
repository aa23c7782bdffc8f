"""Command line interface.

Subcommands: sample, and one per kind in harness.KINDS with that kind's
help line, except that the kinds probe:<name> are probe <name>.  Every
subcommand builds one ExperimentConfig and validates it before any
work.  Every ExperimentConfig key is a flag (n_draws -> --n-draws), except
that master_seed is --seed and theta_0 is --theta0.  A JSON config file
(--config, such as configs/*.json) provides the same flat keys, and a
kind only if it is the subcommand's; flags override config keys
one-for-one.  Outputs go to --out-dir, which is created if missing;
sample reads d, widths and master_seed and writes network.rrnn there,
or to --out.
Exit codes: 0 success, 1 config error, 2 I/O error, 3 a probe's violation
frequency exceeded the configured alert level (one stderr line names the
kind, the frequency and the level).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import typing
from pathlib import Path

from .errors import ConfigError, RelurandError
from .harness import (
    _HINTS,
    KINDS,
    PROBE_NAMES,
    SAMPLE,
    ExperimentConfig,
    _arch,
    run_experiment,
    write_csv,
    write_summary_json,
)
from .network import InitMode, build_network, save_network
from .rng import RngStream

__all__ = ["main"]

# Every config key but kind (which the subcommand sets) is a flag: the key
# with '_' spelled '-', apart from these two.
_KEYS = [key for key in _HINTS if key != "kind"]
_FLAG_NAMES = {"master_seed": "seed", "theta_0": "theta0"}


def _build_config(kind: str, args: argparse.Namespace) -> ExperimentConfig:
    data = {"kind": kind}
    if args.config is not None:
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"'config' file {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        if loaded.get("kind", kind) != kind:
            raise ConfigError(f"'kind' {loaded['kind']!r} in {args.config} is not the "
                              f"subcommand's '{kind}'")
        data.update(loaded)
    for key in _KEYS:
        if getattr(args, key) is not None:
            data[key] = getattr(args, key)
    return ExperimentConfig.from_dict(data)


def _emit(result: dict, out_dir: Path, stem: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(result["rows"], out_dir / f"{stem}.csv")
    write_summary_json(result["summary"], out_dir / f"{stem}_summary.json")


def _cmd_sample(args: argparse.Namespace) -> int:
    config = _build_config(SAMPLE, args)
    arch = _arch(config)
    mode = InitMode.DEPTH_COLLAPSE if args.mode == "depth-collapse" else InitMode.STANDARD
    net = build_network(arch, mode, RngStream(config.master_seed, 0))
    out = args.out if args.out else args.out_dir / "network.rrnn"
    out.parent.mkdir(parents=True, exist_ok=True)
    save_network(net, out)
    print(f"wrote {out} (d={arch.input_dim}, widths={list(arch.hidden_widths)}, "
          f"mode={mode.name}, seed={config.master_seed})")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole argument parser, built on main's first call and reused by
    every later one: parse_args returns a fresh Namespace each time, and
    every default is None or an immutable Path."""
    # --config, --out-dir and the config flags, shared by every subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON config file")
    common.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    for key in _KEYS:
        hint = _HINTS[key]
        # tuple[int, ...] -> int with nargs="*"; Optional[float] -> float
        args = typing.get_args(hint)
        common.add_argument("--" + _FLAG_NAMES.get(key, key).replace("_", "-"), dest=key,
                            type=args[0] if args else hint, default=None,
                            nargs="*" if typing.get_origin(hint) is tuple else None)

    parser = argparse.ArgumentParser(
        prog="relurand",
        description="Random ReLU networks: adversarial flips, bound probes, depth collapse.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", parents=[common],
                              help="build and save a random network")
    p_sample.add_argument("--mode", choices=["standard", "depth-collapse"],
                          default="standard")
    p_sample.add_argument("--out", type=Path, default=None)

    for kind, spec in KINDS.items():
        if not kind.startswith("probe:"):
            sub.add_parser(kind, parents=[common], help=spec.help)

    p_probe = sub.add_parser("probe", parents=[common], help="Monte Carlo bound probes")
    p_probe.add_argument("name", choices=list(PROBE_NAMES))

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "sample":
            return _cmd_sample(args)
        kind = f"probe:{args.name}" if args.command == "probe" else args.command
        config = _build_config(kind, args)
        result = run_experiment(config)
        stem = kind.replace(":", "_")
        _emit(result, args.out_dir, stem)
        freq = result["summary"].get("violation_frequency")
        alert = config.alert_level
        print(json.dumps(
            {k: v for k, v in result["summary"].items() if k != "config"},
            default=str, sort_keys=True))
        if freq is not None and freq > alert:
            print(f"alert: {kind} violation frequency {freq} exceeds alert level {alert}",
                  file=sys.stderr)
            return 3
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except RelurandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
