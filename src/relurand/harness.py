"""Experiment orchestration: config validation, deterministic trial dispatch,
CSV/JSON emission.

A config checks itself when it is made.  KINDS is the one table of
kinds, `sample` among them: each row names the kind's runner (None for
`sample`, which saves a net and runs no experiment), every config key the
runner reads (master_seed and workers only where read) and the kind's
own check.  That table is the one rule for what a config of the kind may
set (_accepted): from_dict, which the CLI and config files go through,
rejects any other key, and a summary's `config` records exactly the
accepted keys.  run_experiment runs each kind with BLAS on one thread
(linalg.one_blas_thread), trial i on stream_id i (for sweep, j * trials
+ k for trial k at the j-th dimension), so output is a pure function of
the config bytes.  Every trial kind (`attack`, `sweep` and each probe)
runs its trials through one runner, _map_trials: it shares them among up
to `workers` forked processes where that is safe, and otherwise runs
them one after another, so each trial's row is the same either way; and
it writes every `degenerate` row.  Each kind's summary is a function of
its trials' rows.  Every kind that builds a net takes its architecture
from one rule (_arch: hidden widths `widths`, or (d, d) when empty).
`attack` and `sweep` run the same flip trials, each turned into its CSV
row in one place (_flip_row), and summarize them in one place
(_flip_stats): `attack`'s summary holds the statistics of the `sweep`
row at its one d.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import threading
import typing
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, probes
from .adversarial import flip_search, paper_eta
from .collapse import collapse_simulate, kernel_iterate
from .errors import ConfigError, DegenerateInput, RelurandError
from .linalg import one_blas_thread
from .network import (Architecture, bottleneck_decomposition, build_network, lazy_network,
                      sphere_input)
from .network import forward  # noqa: F401  perfbench's tracer test rebinds harness.forward
from .rng import RngStream

__all__ = ["ExperimentConfig", "TrialRecord", "run_experiment",
           "write_csv", "write_summary_json", "KINDS", "PROBE_NAMES"]


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

    def __post_init__(self) -> None:
        """Check every field, with a list taken as a tuple for widths and
        dims and an integer stored as a float for a number key (as its flag
        is parsed); the first invalid key raises ConfigError.  Each key's
        type sets its range: an integer other than master_seed, and each
        entry of a list, is positive, and a number is finite."""
        for key, hint in _HINTS.items():
            v = getattr(self, key)
            if hint == tuple[int, ...] and isinstance(v, list):
                v = tuple(v)
            if not _has_type(v, hint):
                raise ConfigError(f"'{key}' must be {_TYPE_NAMES[hint]}")
            if hint is float:
                v = float(v)
            object.__setattr__(self, key, v)
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind '{self.kind}'")
        for key, hint in _HINTS.items():
            v = getattr(self, key)
            if hint is int and key != "master_seed" and v < 1:
                raise ConfigError(f"'{key}' must be positive")
            if hint == tuple[int, ...] and any(e < 1 for e in v):
                raise ConfigError(f"every entry of '{key}' must be positive")
            if hint is float and not math.isfinite(v):
                raise ConfigError(f"'{key}' must be finite")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("'delta' must lie in (0, 1)")
        if self.radius < 0.0:
            raise ConfigError("'radius' must be >= 0")
        message = KINDS[self.kind].check(self)
        if message:
            raise ConfigError(message)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a config file's or the flags' keys.  A key the
        kind does not take (_accepted) is a ConfigError naming it and the
        kind, raised before any value is checked."""
        kind = data.get("kind")
        if not (isinstance(kind, str) and kind in KINDS):
            raise ConfigError(f"unknown experiment kind {kind!r}")
        foreign = set(data) - set(_accepted(kind))
        if foreign:
            raise ConfigError(f"kind '{kind}' takes no key(s) {sorted(foreign)}")
        return cls(**data)


_HINTS = typing.get_type_hints(ExperimentConfig)
# An integer value of any key must fit in signed 64 bits: numpy takes no
# larger size, and RngStream keys on the seed mod 2^64, so seeds 2^64 apart
# would share every stream.
_TYPE_NAMES = {str: "a string", int: "an integer in [-2**63, 2**63)",
               float: "a number (if an integer, in [-2**63, 2**63))",
               tuple[int, ...]: "a list of integers in [-2**63, 2**63)"}


def _has_type(value, hint) -> bool:
    """Whether a config value has its field's type; a bool is no number,
    and an integer lies in [-2**63, 2**63)."""
    if hint == tuple[int, ...]:
        return isinstance(value, tuple) and all(_has_type(v, int) for v in value)
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, np.integer)):
        return hint in (int, float) and -2**63 <= int(value) < 2**63
    if hint is float:
        return isinstance(value, (float, np.floating))
    return isinstance(value, hint)


@dataclass
class TrialRecord:
    """One CSV row: the stream its values were drawn from, the values and a
    status; write_csv numbers rows by their position."""
    seed: int
    values: dict
    status: str = "ok"


def _arch(cfg: ExperimentConfig, d: Optional[int] = None) -> Architecture:
    """The net of a trial at input dimension d (cfg.d by default): hidden
    widths cfg.widths, or (d, d) when they are empty, in every kind."""
    d = cfg.d if d is None else d
    return Architecture(d, cfg.widths or (d, d))


def _map_trials(cfg: ExperimentConfig, fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)], with a `degenerate` row on stream i in place
    of each trial i whose input is degenerate (fn raised DegenerateInput:
    f(x) = 0, a zero gradient, a zero layer image).

    W = min(cfg.workers, n, usable CPUs) processes share the trials where a
    fork is safe (_fanout_width): the caller runs trials 0, W, 2W, ..., and
    a forked child runs w, w + W, ... for each w in 1..W-1.  Strided shares
    spread a `sweep`'s large-d trials over every process.  Trial i runs on
    stream i wherever it runs, so the results do not depend on W.  A
    trial's exception, raised in any process, is raised here; a child that
    dies without a result is a RelurandError naming the signal.  No child
    outlives the call: on a raise, the children still running are killed,
    and every child is reaped."""
    width = _fanout_width(cfg.workers, n)
    shares = {}   # w -> (pid, read end of its pipe)
    payloads = None
    try:
        for w in range(1, width):
            try:
                shares[w] = _fork_share(fn, range(w, n, width))
            except OSError:   # no process or pipe to spare: the caller runs the rest
                break
        results = [None if i % width in shares else _trial(fn, i) for i in range(n)]
        payloads = {w: pipe.read() for w, (_, pipe) in shares.items()}
    finally:
        statuses = _reap(shares, kill=payloads is None)
    for w, data in payloads.items():
        results[w::width] = _unpack(data, statuses[w])
    return results


def _fanout_width(workers: int, n: int) -> int:
    """How many processes share n trials: min(workers, n, CPUs this process
    may run on) on Linux when no second Python thread is alive, else 1.
    Forking beside a live thread can leave the child waiting on a lock the
    thread held (linalg._pin_lock, say)."""
    if sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(workers, n, len(os.sched_getaffinity(0)))


def _trial(fn, i: int):
    """fn(i), or a `degenerate` row on stream i when trial i's input is
    degenerate: the only place one is made."""
    try:
        return fn(i)
    except DegenerateInput:
        return TrialRecord(i, {}, status="degenerate")


def _fork_share(fn, indices):
    """Fork a child that runs _trial(fn, i) for each i in indices and sends
    the list of results, or the exception a trial raised, pickled through
    a pipe; return (pid, the pipe's read end).  The child always leaves by
    os._exit, so it neither flushes the caller's stdio nor returns into its
    frames.  An exception that cannot be pickled is sent as a RelurandError
    holding its repr."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = [_trial(fn, i) for i in indices]
            except BaseException as exc:
                payload = exc
            try:
                data = pickle.dumps(payload)
                pickle.loads(data)
            except Exception as err:
                culprit = payload if isinstance(payload, BaseException) else err
                data = pickle.dumps(RelurandError(repr(culprit)))
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _reap(shares: dict, kill: bool) -> dict:
    """Close each share's pipe and wait for its child, killing it first when
    kill is set; return each child's wait status by share."""
    statuses = {}
    for w, (pid, pipe) in shares.items():
        pipe.close()
        if kill:
            import signal
            os.kill(pid, signal.SIGKILL)
        statuses[w] = os.waitpid(pid, 0)[1]
    return statuses


def _unpack(data: bytes, status: int) -> list:
    """A child's list of results from what it sent, raising the exception
    it sent instead; a RelurandError when it sent nothing whole (it died)."""
    try:
        payload = pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"exited with status {code}"
        if code < 0:
            import signal
            how = f"was killed by signal {-code} ({signal.strsignal(-code)})"
        raise RelurandError(f"a trial process {how} before sending its results") from None
    if isinstance(payload, BaseException):
        raise payload
    return payload


def _trial_net(arch: Architecture, rng: RngStream):
    """A trial's input (network.sphere_input) and then its lazy standard
    net (network.lazy_network), both from rng, returned as (net, x)."""
    x = sphere_input(arch.input_dim, rng)
    return lazy_network(arch, rng), x


def _flip_row(cfg: ExperimentConfig, arch: Architecture, i: int) -> TrialRecord:
    """Trial i's row from flip_search on its net and input (_trial_net on
    stream i).  It raises DegenerateInput when f(x) = 0 or the gradient is
    zero and there is no direction to search, which _map_trials writes as a
    `degenerate` row."""
    res = flip_search(*_trial_net(arch, RngStream(cfg.master_seed, i)))
    # the reference eta needs d >= 2; 1-d nets get NaN
    eta = (paper_eta(arch.ell, arch.input_dim, cfg.delta, res.grad_norm)
           if arch.input_dim >= 2 else float("nan"))
    vals = {"f_x": res.f_x, "grad_norm": res.grad_norm, "cos_grad_x": res.cos_grad_x,
            "paper_eta": eta, "evaluations": res.evaluations}
    if res.flipped:
        vals.update(t_star=res.t_star, ratio=res.ratio, linearity=res.linearity)
    return TrialRecord(i, vals, status="ok" if res.flipped else "not_flipped")


def _flip_stats(d: int, rows: list[TrialRecord]) -> dict:
    """Every statistic of one dimension's flip-trial rows: `attack`'s
    summary, and a `sweep` row after its d and trials.

    A degenerate trial is counted in `degenerate` and stays in the
    flip_rate denominator.  abs_cos_sqrt_d_median is the median of
    sqrt(d) |cos_grad_x| over every other trial, flipped or not; over
    flipped trials alone it would be biased, since whether a trial flips
    within reach depends on its cosine.
    """
    searched = [r.values for r in rows if r.status != "degenerate"]
    flipped = [r.values for r in rows if r.status == "ok"]
    ratios = [v["ratio"] for v in flipped]
    return {
        "flips": len(ratios), "degenerate": len(rows) - len(searched),
        "flip_rate": len(ratios) / len(rows),
        "ratio_median": float(np.median(ratios)) if ratios else None,
        "ratio_q05": float(np.quantile(ratios, 0.05)) if ratios else None,
        "ratio_q95": float(np.quantile(ratios, 0.95)) if ratios else None,
        "linearity_median": (float(np.median([v["linearity"] for v in flipped]))
                             if flipped else None),
        "abs_cos_sqrt_d_median": (
            float(np.median(np.sqrt(d) * np.abs([v["cos_grad_x"] for v in searched])))
            if searched else None),
    }


def _run_attack(cfg: ExperimentConfig):
    arch = _arch(cfg)
    rows = _map_trials(cfg, lambda i: _flip_row(cfg, arch, i), cfg.trials)
    return rows, _flip_stats(cfg.d, rows)


def _run_sweep(cfg: ExperimentConfig):
    """_flip_stats at each d in dims, on the net _arch(cfg, d) that `attack`
    at that d runs, from the rows it would write for its trials, and the
    least-squares slope of ln(median ratio) against ln(d).  Trial k at
    dimension index j runs on stream j * trials + k.
    """
    archs = [_arch(cfg, d) for d in cfg.dims]
    records = _map_trials(cfg, lambda i: _flip_row(cfg, archs[i // cfg.trials], i),
                          len(archs) * cfg.trials)
    rows = [TrialRecord(j, {"d": d, "trials": cfg.trials,
                            **_flip_stats(d, records[j * cfg.trials:(j + 1) * cfg.trials])})
            for j, d in enumerate(cfg.dims)]
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


def _per_trial(probe, freq=lambda row: row["violation_frequency"],
               summarize=lambda rows: {}):
    """Runner for a probe whose trial i is one call on stream i, its row
    that call's dict.  The violation frequency is the mean of freq(row)
    over the rows that are not degenerate and whose bound applies (freq
    not None), and None when there is no such row."""
    def run(cfg: ExperimentConfig):
        rows = _map_trials(
            cfg, lambda i: TrialRecord(i, probe(cfg, RngStream(cfg.master_seed, i))), cfg.trials)
        values = [r.values for r in rows if r.status == "ok"]
        freqs = [f for f in map(freq, values) if f is not None]
        return rows, {**summarize(values),
                      "violation_frequency": float(np.mean(freqs)) if freqs else None}
    return run


def _sign_flip(cfg: ExperimentConfig, rng: RngStream) -> dict:
    x = sphere_input(cfg.d, rng)
    y = x + rng.sphere_point(cfg.d, norm=cfg.radius)
    return probes.probe_sign_flip(x, y, cfg.n_draws, rng)


def _run_value_gradient(cfg: ExperimentConfig):
    """Trial k on a lazy net from stream k + 1, every net at the one input
    drawn from stream 0."""
    arch, x = _arch(cfg), sphere_input(cfg.d, RngStream(cfg.master_seed, 0))
    rows = _map_trials(cfg, lambda k: TrialRecord(k + 1, probes.probe_value_gradient(
        lazy_network(arch, RngStream(cfg.master_seed, k + 1)), x)), cfg.trials)
    return rows, probes.value_gradient_stats([r.values for r in rows], arch.ell, cfg.delta)


def _summary_row(summary: dict) -> tuple:
    """The rows and summary of a kind whose CSV holds its summary in place
    of its trials: one row, stream 0's, without the violation frequency."""
    row = {k: v for k, v in summary.items() if k != "violation_frequency"}
    return [TrialRecord(0, row)], summary


def _run_dist_equiv(cfg: ExperimentConfig):
    """Trial k's samples from streams 2k + 1 and 2k + 2, at the one input
    drawn from stream 0."""
    arch, x = _arch(cfg), sphere_input(cfg.d, RngStream(cfg.master_seed, 0))
    rows = _map_trials(cfg, lambda k: TrialRecord(k, probes.probe_dist_equiv(
        arch, x, RngStream(cfg.master_seed, 2 * k + 1), RngStream(cfg.master_seed, 2 * k + 2))),
        cfg.trials)
    return _summary_row(probes.dist_equiv_stats([r.values for r in rows]))


def _run_gaussian_spectral(cfg: ExperimentConfig):
    m, n = cfg.dims
    rows = _map_trials(cfg, lambda k: TrialRecord(k, probes.probe_gaussian_spectral(
        m, n, RngStream(cfg.master_seed, k))), cfg.trials)
    return _summary_row(probes.gaussian_spectral_stats([r.values for r in rows], m, n,
                                                       cfg.delta))


class _Kind(NamedTuple):
    run: Optional[Callable]        # config -> (rows, summary); None: the kind runs no experiment
    keys: tuple                    # every config key the kind reads, and the only keys it takes
    check: Callable = lambda cfg: None   # config -> why this kind cannot run it, or None
    help: str = ""                 # the CLI subcommand's help line; probes share `probe`'s


# Every trial kind runs its trials through _map_trials, one probe_* call
# per probe trial.  Probe functions are looked up on the module at call
# time, never stored, so that a tracer rebinding probes.probe_* sees every
# call.  `sample` saves the net of its config (cli) and runs nothing.
# Every probe but sign_flip and gaussian_spectral reads _PROBE_KEYS.
_PROBE_KEYS = ("master_seed", "workers", "d", "widths", "trials", "alert_level")
KINDS = {
    "sample": _Kind(None, ("master_seed", "d", "widths"),
                    help="build and save a random network"),
    "attack": _Kind(_run_attack,
                    ("master_seed", "workers", "d", "widths", "trials", "delta"),
                    help="single-configuration flip searches"),
    "sweep": _Kind(_run_sweep, ("master_seed", "workers", "dims", "widths", "trials"),
                   lambda cfg: (None if cfg.dims and len(set(cfg.dims)) == len(cfg.dims) else
                                "'dims' must be a nonempty list of distinct dimensions for sweep"),
                   help="flip-ratio scaling across input dimensions"),
    "collapse": _Kind(_run_collapse, ("master_seed", "d", "width", "depth", "n_pairs"),
                      lambda cfg: (None if cfg.d >= 2 and cfg.width >= 8
                                   else "collapse needs 'd' >= 2 and 'width' >= 8"),
                      help="deep-network collapse simulation"),
    "kernel": _Kind(_run_kernel, ("theta_0", "steps"),
                    lambda cfg: (None if 0.0 <= cfg.theta_0 <= np.pi
                                 else "'theta_0' must lie in [0, pi] for kernel"),
                    help="closed-form kernel iteration"),
    "probe:value_gradient": _Kind(_run_value_gradient, _PROBE_KEYS + ("delta",)),
    "probe:scale_preservation": _Kind(_per_trial(
        lambda cfg, rng: probes.probe_scale_preservation(
            *_trial_net(_arch(cfg), rng), cfg.radius, cfg.n_samples, rng)),
        _PROBE_KEYS + ("radius", "n_samples")),
    "probe:activation_margin": _Kind(_per_trial(
        lambda cfg, rng: probes.probe_activation_margin(
            *_trial_net(_arch(cfg), rng), cfg.alpha)),
        _PROBE_KEYS + ("alpha",),
        lambda cfg: (None if 0.0 < cfg.alpha < np.sqrt(np.pi / 8.0)
                     else "'alpha' must lie in (0, sqrt(pi/8)) for probe:activation_margin")),
    "probe:gradient_smoothness": _Kind(_per_trial(
        lambda cfg, rng: probes.probe_gradient_smoothness(
            *_trial_net(_arch(cfg), rng), cfg.radius, cfg.n_samples, rng),
        summarize=lambda rows: {"median_max_drift_ratio": float(
            np.median([r["max_drift_ratio"] for r in rows])) if rows else None}),
        _PROBE_KEYS + ("radius", "n_samples")),
    "probe:segment_spectral": _Kind(_per_trial(
        # whole masked segment products need dense weights: the net, then x
        lambda cfg, rng: probes.probe_segment_spectral(
            build_network(_arch(cfg), rng), sphere_input(cfg.d, rng),
            cfg.radius, cfg.n_samples, rng)),
        _PROBE_KEYS + ("radius", "n_samples"),
        lambda cfg: (None if len(bottleneck_decomposition(_arch(cfg)).indices) >= 2 else
                     "'widths' must include a width below 'd' (two bottlenecks) for "
                     "probe:segment_spectral")),
    "probe:sign_flip": _Kind(
        _per_trial(_sign_flip, lambda row: None if row["bound"] is None
                   else float(row["empirical"] > row["bound"])),
        ("master_seed", "workers", "d", "trials", "alert_level", "radius", "n_draws")),
    "probe:dist_equiv": _Kind(_run_dist_equiv, _PROBE_KEYS),
    "probe:gaussian_spectral": _Kind(
        _run_gaussian_spectral,
        ("master_seed", "workers", "dims", "trials", "delta", "alert_level"),
        lambda cfg: (None if len(cfg.dims) == 2
                     else "'dims' must be [m, n] for probe:gaussian_spectral")),
}

PROBE_NAMES = tuple(k.removeprefix("probe:") for k in KINDS if k.startswith("probe:"))


def _accepted(kind: str) -> tuple:
    """Every key a config of a kind may set: kind and the keys the kind
    reads.  from_dict rejects any other key, and a summary's `config`
    records exactly these."""
    return ("kind", *KINDS[kind].keys)


def run_experiment(config: ExperimentConfig) -> dict:
    run = KINDS[config.kind].run
    if run is None:
        raise ConfigError(f"kind '{config.kind}' builds a network and is no experiment to run")
    # A second OpenBLAS thread buys no kind any time: attack and sweep walk
    # matrix-vector products, a probe's products are a few hundred wide at
    # most (where two threads cost up to 1.9x the CPU and stall whenever the
    # other core is busy), and collapse pins its layer algebra anyway.
    with one_blas_thread():
        rows, summary = run(config)
    summary = {"config": {key: getattr(config, key) for key in _accepted(config.kind)},
               "version": f"relurand-{__version__}", **summary}
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
