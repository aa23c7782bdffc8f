"""Experiment orchestration: config validation, deterministic trial dispatch,
CSV/JSON emission.

A config is a flat record; run_experiment runs its trials one after
another in the calling thread, trial i on stream_id i (for sweep, j *
trials + k for trial k at the j-th dimension), so output is a pure
function of the config bytes.  `workers` is validated and recorded in the
summary, but no kind reads it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import typing
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, probes
from .adversarial import AttackResult, flip_search, paper_eta
from .collapse import collapse_simulate, kernel_iterate
from .errors import ConfigError, DegenerateInput
from .linalg import one_blas_thread
from .network import (Architecture, InitMode, bottleneck_decomposition, build_network,
                      lazy_network, sphere_input)
from .network import forward  # noqa: F401  perfbench's tracer test rebinds harness.forward
from .rng import RngStream

__all__ = ["ExperimentConfig", "TrialRecord", "run_experiment",
           "write_csv", "write_summary_json", "KINDS", "PROBE_NAMES", "SAMPLE"]


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    master_seed: int = 0
    d: int = 64
    widths: tuple[int, ...] = ()
    trials: int = 100
    radius: float = 1.0
    alpha: float = 0.1
    delta: float = 0.1
    t_max: Optional[float] = None
    dims: tuple[int, ...] = ()
    theta_0: float = float(np.pi / 2)
    steps: int = 100
    n_pairs: int = 20
    width: int = 256
    depth: int = 50
    n_samples: int = 20
    n_draws: int = 100_000
    workers: int = 1
    alert_level: float = 0.05

    def validate(self) -> None:
        for key, hint in _HINTS.items():
            if not _has_type(getattr(self, key), hint):
                raise ConfigError(f"'{key}' must be {_TYPE_NAMES[hint]}")
        if self.kind not in KINDS and self.kind != SAMPLE:
            raise ConfigError(f"unknown experiment kind '{self.kind}'")
        for key in ("d", "trials", "steps", "n_pairs", "width", "depth",
                    "n_samples", "n_draws", "workers"):
            if getattr(self, key) < 1:
                raise ConfigError(f"'{key}' must be positive")
        for key in ("widths", "dims"):
            if any(v < 1 for v in getattr(self, key)):
                raise ConfigError(f"every entry of '{key}' must be positive")
        for key in ("radius", "alpha", "delta", "theta_0", "alert_level", "t_max"):
            v = getattr(self, key)
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"'{key}' must be finite")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("'delta' must lie in (0, 1)")
        if self.radius < 0.0:
            raise ConfigError("'radius' must be >= 0")
        if self.t_max is not None and self.t_max <= 0.0:
            raise ConfigError("'t_max' must be positive")
        if self.kind in KINDS and KINDS[self.kind].invalid(self):
            raise ConfigError(KINDS[self.kind].error)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        data = dict(data)
        for key in ("widths", "dims"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        cfg = cls(**data)
        cfg.validate()
        return cfg


_HINTS = typing.get_type_hints(ExperimentConfig)
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number",
               Optional[float]: "a number or null", tuple[int, ...]: "a list of integers"}


def _has_type(value, hint) -> bool:
    """Whether a config value has its field's type; a bool is no number."""
    if hint == tuple[int, ...]:
        return isinstance(value, tuple) and all(_has_type(v, int) for v in value)
    if hint == Optional[float]:
        return value is None or _has_type(value, float)
    if isinstance(value, bool):
        return False
    if hint is float:
        return isinstance(value, (int, float, np.integer, np.floating))
    if hint is int:
        return isinstance(value, (int, np.integer))
    return isinstance(value, hint)


@dataclass
class TrialRecord:
    """One CSV row: the stream its values were drawn from, the values and a
    status; write_csv numbers rows by their position."""
    seed: int
    values: dict
    status: str = "ok"


def _arch(cfg: ExperimentConfig) -> Architecture:
    widths = cfg.widths if cfg.widths else (cfg.d,)
    return Architecture(cfg.d, widths)


def _map_trials(cfg: ExperimentConfig, fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)], one after another in the calling thread,
    with None in place of each trial whose input is degenerate (fn raised
    DegenerateInput: f(x) = 0, a zero gradient, a zero layer image); the
    runners write that None as a `degenerate` row.

    `cfg.workers` is read by no kind: a thread pool ran lazy `attack` trials
    slower than one thread (many small numpy calls pass the GIL back and
    forth) and won on only some per-trial probes (ROADMAP item 1)."""
    results = []
    for i in range(n):
        try:
            results.append(fn(i))
        except DegenerateInput:
            results.append(None)
    return results


def _trial_net(arch: Architecture, rng: RngStream):
    """A trial's input (network.sphere_input) and then its lazy standard
    net (network.lazy_network), both from rng, returned as (net, x)."""
    x = sphere_input(arch.input_dim, rng)
    return lazy_network(arch, rng), x


def _flip_trial(cfg: ExperimentConfig, arch: Architecture, i: int) -> AttackResult:
    """flip_search on trial i's net and input (_trial_net on stream i).  It
    raises DegenerateInput when f(x) = 0 or the gradient is zero and there
    is no direction to search, which _map_trials turns into None."""
    rng = RngStream(cfg.master_seed, i)
    return flip_search(*_trial_net(arch, rng), cfg.t_max, rng=rng)


def _run_attack(cfg: ExperimentConfig):
    arch = _arch(cfg)
    results = _map_trials(cfg, lambda i: _flip_trial(cfg, arch, i), cfg.trials)
    rows = []
    for i, res in enumerate(results):
        if res is None:
            rows.append(TrialRecord(i, {}, status="degenerate"))
            continue
        # the reference eta needs d >= 2; 1-d nets get NaN
        eta = (paper_eta(arch.ell, arch.input_dim, cfg.delta, res.grad_norm)
               if arch.input_dim >= 2 else float("nan"))
        vals = {"f_x": res.f_x, "grad_norm": res.grad_norm, "cos_grad_x": res.cos_grad_x,
                "paper_eta": eta, "evaluations": res.evaluations}
        if res.flipped:
            vals.update(t_star=res.t_star, ratio=res.ratio, linearity=res.linearity)
        rows.append(TrialRecord(i, vals, status="ok" if res.flipped else "not_flipped"))
    ratios = [r.values["ratio"] for r in rows if r.status == "ok"]
    summary = {
        "flip_rate": len(ratios) / cfg.trials,
        "ratio_median": float(np.median(ratios)) if ratios else None,
        "ratio_q95": float(np.quantile(ratios, 0.95)) if ratios else None,
    }
    return rows, summary


def _run_sweep(cfg: ExperimentConfig):
    """Flip-ratio and linearity statistics at each d in dims, with widths
    (d,) * len(widths), and the least-squares slope of ln(median ratio)
    against ln(d).

    Trial k at dimension index j runs on stream j * trials + k.  A degenerate
    trial is counted in its row's `degenerate` column and stays in the
    flip_rate denominator.  abs_cos_sqrt_d_median is the median of
    sqrt(d) |cos_grad_x| over every other trial, flipped or not; over
    flipped trials alone it would be biased, since whether a trial flips
    within reach depends on its cosine.
    """
    ell = len(cfg.widths) if cfg.widths else 2
    archs = [Architecture(d, (d,) * ell) for d in cfg.dims]
    results = _map_trials(cfg, lambda i: _flip_trial(cfg, archs[i // cfg.trials], i),
                          len(cfg.dims) * cfg.trials)
    rows = []
    for j, d in enumerate(cfg.dims):
        trials = results[j * cfg.trials:(j + 1) * cfg.trials]
        searched = [r for r in trials if r is not None]
        flipped = [r for r in searched if r.flipped]
        ratios = [r.ratio for r in flipped]
        rows.append(TrialRecord(j, {
            "d": d, "trials": cfg.trials, "flips": len(ratios),
            "degenerate": sum(r is None for r in trials), "flip_rate": len(ratios) / cfg.trials,
            "ratio_median": float(np.median(ratios)) if ratios else None,
            "ratio_q05": float(np.quantile(ratios, 0.05)) if ratios else None,
            "ratio_q95": float(np.quantile(ratios, 0.95)) if ratios else None,
            "linearity_median": (float(np.median([r.linearity for r in flipped]))
                                 if flipped else None),
            "abs_cos_sqrt_d_median": (
                float(np.median(np.sqrt(d) * np.abs([r.cos_grad_x for r in searched])))
                if searched else None),
        }))
    usable = [(r.values["d"], r.values["ratio_median"]) for r in rows
              if r.values["ratio_median"]]
    if len(usable) < 2:
        return rows, {"slope": None, "intercept": None}
    log_d, log_ratio = np.log(usable).T
    slope, intercept = np.polyfit(log_d, log_ratio, 1)
    return rows, {"slope": float(slope), "intercept": float(intercept)}


def _run_kernel(cfg: ExperimentConfig):
    trace = kernel_iterate(cfg.theta_0, cfg.steps)
    rows = [TrialRecord(t, {"theta": float(trace.thetas[t]), "rho": float(trace.rhos[t])})
            for t in range(cfg.steps)]
    summary = {"theta_0": cfg.theta_0, "rho_final": float(trace.rhos[-1])}
    return rows, summary


def _run_collapse(cfg: ExperimentConfig):
    rep = collapse_simulate(cfg.d, cfg.width, cfg.depth, cfg.n_pairs, cfg.master_seed)
    rows = []
    for t in range(cfg.depth):
        # a pair without two nonzero images has no cosine (NaN); with none, the median is nan
        cosines = rep.layer_cosines[~np.isnan(rep.layer_cosines[:, t]), t]
        rows.append(TrialRecord(t, {
            "layer": t + 1,
            "cosine_median": float(np.median(cosines)) if cosines.size else float("nan"),
            "kernel_rho_median": float(np.median(rep.kernel_track[:, t])),
            "norm_median": float(np.median(rep.layer_norms[:, t])),
            "norm_ratio_median": float(np.median(rep.norm_ratios[:, t])),
        }))
    ckpt = {f"constancy_median_depth_{t}": float(np.median(rep.constancy_ratios[:, j]))
            for j, t in enumerate(rep.checkpoint_depths)}
    summary = {"n_pairs": rep.n_pairs, **ckpt}
    return rows, summary


def _records(reports) -> list[TrialRecord]:
    """The CSV rows of each report in order; None in place of trial i's
    report is one `degenerate` row."""
    records: list[TrialRecord] = []
    for i, rep in enumerate(reports):
        if rep is None:
            records.append(TrialRecord(i, {}, status="degenerate"))
        else:
            records += [TrialRecord(seed, values) for seed, values in rep.rows]
    return records


def _ensemble(probe):
    """Runner for a probe that samples its own ensemble of `trials` nets or
    matrices: one call, one report."""
    def run(cfg: ExperimentConfig):
        rep = probe(cfg)
        return _records([rep]), {**rep.summary,
                                 "violation_frequency": rep.violation_frequency}
    return run


def _per_trial(probe, summarize=lambda reports: {}):
    """Runner for a probe called once per trial on stream i.  A trial whose
    input is degenerate is None from _map_trials and a `degenerate` row;
    the violation frequency is the mean over the other trials whose bound
    applies."""
    def run(cfg: ExperimentConfig):
        results = _map_trials(cfg, lambda i: probe(cfg, RngStream(cfg.master_seed, i)),
                              cfg.trials)
        reports = [r for r in results if r is not None]
        freqs = [r.violation_frequency for r in reports if r.violation_frequency is not None]
        freq = float(np.mean(freqs)) if freqs else 0.0
        return _records(results), {**summarize(reports), "violation_frequency": freq}
    return run


def _sign_flip(cfg: ExperimentConfig, rng: RngStream):
    x = sphere_input(cfg.d, rng)
    y = x + rng.sphere_point(cfg.d, norm=cfg.radius)
    return probes.probe_sign_flip(x, y, cfg.n_draws, rng)


class _Kind(NamedTuple):
    run: Callable                  # config -> (rows, summary)
    invalid: Callable = lambda cfg: False   # config -> True if this kind cannot run it
    error: str = ""                # the ConfigError message when invalid
    help: str = ""                 # the CLI subcommand's help line; probes share `probe`'s


# Probe functions are looked up on the module at call time, never stored,
# so that a tracer rebinding probes.probe_* sees every call.
KINDS = {
    "attack": _Kind(_run_attack, help="single-configuration flip searches"),
    "sweep": _Kind(_run_sweep, lambda cfg: not cfg.dims or len(set(cfg.dims)) < len(cfg.dims),
                   "'dims' must be a nonempty list of distinct dimensions for sweep",
                   help="flip-ratio scaling across input dimensions"),
    "collapse": _Kind(_run_collapse, lambda cfg: cfg.d < 2 or cfg.width < 8,
                      "collapse needs 'd' >= 2 and 'width' >= 8",
                      help="deep-network collapse simulation"),
    "kernel": _Kind(_run_kernel, lambda cfg: not (0.0 <= cfg.theta_0 <= np.pi),
                    "'theta_0' must lie in [0, pi] for kernel",
                    help="closed-form kernel iteration"),
    "probe:value_gradient": _Kind(_ensemble(
        lambda cfg: probes.probe_value_gradient(_arch(cfg), cfg.trials, cfg.delta,
                                                cfg.master_seed))),
    "probe:scale_preservation": _Kind(_per_trial(
        lambda cfg, rng: probes.probe_scale_preservation(
            *_trial_net(_arch(cfg), rng), cfg.radius, cfg.n_samples, rng))),
    "probe:activation_margin": _Kind(_per_trial(
        lambda cfg, rng: probes.probe_activation_margin(
            *_trial_net(_arch(cfg), rng), cfg.alpha, rng)),
        lambda cfg: not (0.0 < cfg.alpha < np.sqrt(np.pi / 8.0)),
        "'alpha' must lie in (0, sqrt(pi/8)) for probe:activation_margin"),
    "probe:gradient_smoothness": _Kind(_per_trial(
        lambda cfg, rng: probes.probe_gradient_smoothness(
            *_trial_net(_arch(cfg), rng), cfg.radius, cfg.n_samples, rng),
        lambda reports: {"median_max_drift_ratio": float(
            np.median([r.summary["max_drift_ratio"] for r in reports])) if reports else None})),
    "probe:segment_spectral": _Kind(_per_trial(
        # whole masked segment products need dense weights: the net, then x
        lambda cfg, rng: probes.probe_segment_spectral(
            build_network(_arch(cfg), InitMode.STANDARD, rng), sphere_input(cfg.d, rng),
            cfg.radius, cfg.n_samples, rng)),
        lambda cfg: len(bottleneck_decomposition(_arch(cfg)).indices) < 2,
        "'widths' must include a width below 'd' (two bottlenecks) for probe:segment_spectral"),
    "probe:sign_flip": _Kind(_per_trial(_sign_flip)),
    "probe:dist_equiv": _Kind(_ensemble(
        lambda cfg: probes.probe_dist_equiv(_arch(cfg), cfg.trials, cfg.master_seed))),
    "probe:gaussian_spectral": _Kind(_ensemble(
        lambda cfg: probes.probe_gaussian_spectral(*cfg.dims, cfg.delta, cfg.trials,
                                                   cfg.master_seed)),
        lambda cfg: len(cfg.dims) != 2, "'dims' must be [m, n] for probe:gaussian_spectral"),
}

# The kind of `relurand sample`'s config: validated like an experiment's,
# but it saves a network instead of running trials.
SAMPLE = "sample"

PROBE_NAMES = tuple(k.removeprefix("probe:") for k in KINDS if k.startswith("probe:"))


def run_experiment(config: ExperimentConfig) -> dict:
    config.validate()
    if config.kind == SAMPLE:
        raise ConfigError(f"kind '{SAMPLE}' builds a network and is no experiment to run")
    # A probe's products are a few hundred wide at most, where a second
    # OpenBLAS thread saves no time, costs up to 1.9x the CPU, and stalls
    # whenever the other core is busy; probes run their BLAS on one thread.
    with one_blas_thread() if config.kind.startswith("probe:") else contextlib.nullcontext():
        rows, summary = KINDS[config.kind].run(config)
    summary = {"config": dataclasses.asdict(config), "version": f"relurand-{__version__}",
               **summary}
    return {"rows": rows, "summary": summary}


def _render(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(rows: list[TrialRecord], path) -> None:
    """Header row plus one row per record, numbered from 0 in the `trial`
    column; floats at 17 significant digits so every value round-trips
    exactly through text."""
    columns: list[str] = []
    for r in rows:
        for k in r.values:
            if k not in columns:
                columns.append(k)
    header = ["trial", "seed", "status"] + columns
    lines = [",".join(header)]
    for i, r in enumerate(rows):
        cells = [str(i), str(r.seed), r.status]
        cells += [_render(r.values.get(c)) for c in columns]
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        # np.float64 subclasses float and is written as one; the hook only
        # sees the numpy scalars json cannot write, np.bool_ and np.integer.
        json.dump(summary, fh, indent=2, sort_keys=True, default=lambda v: v.item())
        fh.write("\n")
