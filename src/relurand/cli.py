"""Command line interface.

Subcommands: sample, and one per kind in harness.KINDS with that kind's
help line, except that the kinds probe:<name> are probe <name>.  Every
subcommand builds one ExperimentConfig, which checks itself, before any
work.  Each subcommand takes the keys its kind accepts
(harness._accepted), each as a flag (n_draws -> --n-draws), except that
master_seed is --seed and theta_0 is --theta0.  A JSON config file
(--config, such as configs/*.json) provides the same keys, and a kind
only if it is the subcommand's; flags override config keys one-for-one.
Every subcommand parses every flag, so a key its kind does not take,
like a malformed value (a flag's text is read as its key's type), is the
same config error from a flag as from a file.  Integers, the seed among
them, lie in [-2**63, 2**63), where distinct seeds give distinct
streams.  Outputs go to --out-dir, which is created if missing; sample
reads d, widths and master_seed and writes network.rrnn there, or to
--out.
Exit codes: 0 success, 1 config error, a run that ran out of memory or
a run that raised any other RelurandError (one stderr line; none writes
output), 2 I/O error or a command line argparse cannot parse (an unknown
flag or subcommand), 3 a probe's violation frequency exceeded the
configured alert level (one stderr line names the kind, the frequency
and the level).
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
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"'config' file {args.config} is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"'config' file {args.config} must hold a JSON object")
        if loaded.get("kind", kind) != kind:
            raise ConfigError(f"'kind' {loaded['kind']!r} in {args.config} is not the "
                              f"subcommand's '{kind}'")
        data.update(loaded)
    for key in _KEYS:
        text = getattr(args, key)
        if text is not None:
            data[key] = ([_parse(t, int) for t in text] if isinstance(text, list)
                         else _parse(text, _HINTS[key]))
    return ExperimentConfig.from_dict(data)


def _parse(text: str, hint):
    """A flag's text as a number of its key's type (float for
    Optional[float]), or the text itself where it spells none, for
    ExperimentConfig to reject as it would the same value in a file."""
    try:
        return int(text) if hint is int else float(text)
    except ValueError:
        return text


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
        # no argparse type, which would exit 2 on a malformed value:
        # _build_config parses the text, and a bad value exits 1 as in a file
        common.add_argument("--" + _FLAG_NAMES.get(key, key).replace("_", "-"), dest=key,
                            nargs="*" if typing.get_origin(_HINTS[key]) is tuple else None)

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
        args.out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(result["rows"], args.out_dir / f"{stem}.csv")
        write_summary_json(result["summary"], args.out_dir / f"{stem}_summary.json")
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
