"""End-to-end acceptance checks, one per release gate criterion.

Each test prints a single PASS/FAIL line so a verbose run reads as a
checklist.  Seeds are frozen; every numeric threshold was verified
against an independent computation before being recorded here.
"""

import numpy as np

from relurand.adversarial import flip_search, verify_theorem1
from relurand.cli import main as cli_main
from relurand.collapse import collapse_simulate, kernel_mc_estimate, kernel_map, sin_cos_gap
from relurand.harness import ExperimentConfig, _trial_net, run_experiment
from relurand.network import (
    Architecture,
    InitMode,
    build_network,
    forward,
    grad_difference_decomposition,
    gradient,
    sphere_input,
)
from relurand.probes import (
    dist_equiv_stats,
    probe_activation_margin,
    probe_dist_equiv,
    probe_scale_preservation,
    probe_sign_flip,
)
from relurand.rng import RngStream


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {number:02d} {name}: {detail}")
    assert ok, f"acceptance {number:02d} {name}: {detail}"


def test_01_gradient_difference_decomposition_exact():
    worst = 0.0
    for k in range(100):
        rng = RngStream(1001, k)
        ell = int(float(rng.uniform()) * 3) + 1
        widths = tuple(int(32 + float(rng.uniform()) * 480) for _ in range(ell))
        d = int(32 + float(rng.uniform()) * 480)
        net = build_network(Architecture(d, widths), InitMode.STANDARD, rng)
        x = rng.normal(d)
        y = x + 0.3 * rng.normal(d)
        tx = forward(net, x)
        ty = forward(net, y)
        dec = grad_difference_decomposition(net, tx, ty)
        err = np.linalg.norm(sum(dec.terms) - (dec.grad_x - dec.grad_y))
        scale = np.linalg.norm(dec.grad_x) + np.linalg.norm(dec.grad_y)
        worst = max(worst, err / scale)
    _report(1, "grad-difference decomposition", worst <= 1e-10,
            f"worst relative error {worst:.3e} over 100 triples (tol 1e-10)")


def test_02_euler_identity_and_homogeneity():
    worst_euler = worst_homog = 0.0
    for k in range(100):
        rng = RngStream(1002, k)
        d = int(16 + float(rng.uniform()) * 100)
        widths = (d, d)
        net = build_network(Architecture(d, widths), InitMode.STANDARD, rng)
        x = rng.normal(d)
        t = forward(net, x)
        g = gradient(net, t)
        fa = abs(t.output) + 1e-300
        worst_euler = max(worst_euler, abs(t.output - float(g @ x)) / fa)
        t2 = forward(net, 3.7 * x)
        worst_homog = max(worst_homog, abs(t2.output - 3.7 * t.output) / (3.7 * fa))
    ok = worst_euler <= 1e-10 and worst_homog <= 1e-10
    _report(2, "euler identity and homogeneity", ok,
            f"euler {worst_euler:.3e}, homogeneity {worst_homog:.3e} (tol 1e-10)")


def test_03_gradient_vs_finite_differences():
    rng = RngStream(1003)
    d = 100
    net = build_network(Architecture(d, (100, 100)), InitMode.STANDARD, rng)
    x = rng.sphere_point(d, norm=np.sqrt(d))
    t = forward(net, x)
    g = gradient(net, t)
    h = 1e-5 * np.linalg.norm(x)
    kept = agreed = 0
    for k in range(500):
        u = rng.sphere_point(d)
        tp = forward(net, x + h * u)
        tm = forward(net, x - h * u)
        same = all(np.array_equal(a, b) and np.array_equal(a, c)
                   for a, b, c in zip(t.masks, tp.masks, tm.masks))
        if not same:
            continue
        kept += 1
        fd = (tp.output - tm.output) / (2 * h)
        ref = float(g @ u)
        if abs(fd - ref) <= 1e-5 * (abs(ref) + 1e-12):
            agreed += 1
    frac = agreed / kept if kept else 0.0
    _report(3, "gradient vs finite differences", frac >= 0.95,
            f"{agreed}/{kept} accepted directions agree to rel 1e-5 "
            f"({500 - kept} guard-rejected)")


def test_04_flip_rate_and_dimension_scaling():
    arch = Architecture(500, (500, 500))
    good = 0
    for k in range(200):
        rng = RngStream(101, k)
        net = build_network(arch, InitMode.STANDARD, rng)
        x = rng.sphere_point(500, norm=np.sqrt(500))
        res = flip_search(net, x)
        if res.flipped and res.ratio <= 0.5:
            good += 1
    # empty widths: each d runs at widths (d, d)
    sweep = ExperimentConfig.from_dict(
        {"kind": "sweep", "dims": [125, 250, 500, 1000, 2000], "trials": 200,
         "master_seed": 20240824})
    slope = run_experiment(sweep)["summary"]["slope"]
    ok = good >= 190 and -0.60 <= slope <= -0.40
    _report(4, "flip rate and dimension scaling", ok,
            f"flip ratio<=0.5 in {good}/200 trials at d=500; "
            f"log-log slope {slope:.4f} (target [-0.60,-0.40])")


def test_05_gradient_norm_lower_bound():
    summary = run_experiment(ExperimentConfig(
        kind="probe:value_gradient", d=256, widths=(256, 256), trials=1000, delta=0.1,
        master_seed=1005))["summary"]
    freq = summary["grad_bound_freq"]
    _report(5, "gradient norm lower bound", freq >= 0.99,
            f"freq(||grad|| >= 2^-3) = {freq:.4f} over 1000 nets")


def test_06_scale_preservation_no_violations():
    violations = 0
    for k in range(100):
        rng = RngStream(1006, k)
        net = build_network(Architecture(512, (512, 512)), InitMode.STANDARD, rng)
        x = rng.sphere_point(512, norm=np.sqrt(512))
        rep = probe_scale_preservation(net, x, 0.0, 1, rng)
        violations += rep["norm_violations"]
    _report(6, "layer norm lower bounds", violations == 0,
            f"{violations} violations of sqrt(d_i)/2^i over 100 nets")


def test_07_activation_margin_bound():
    viol = pairs = 0
    for k in range(200):
        rng = RngStream(1007, k)
        net = build_network(Architecture(512, (512, 512, 512)), InitMode.STANDARD, rng)
        x = rng.sphere_point(512, norm=np.sqrt(512))
        rep = probe_activation_margin(net, x, 0.1)
        viol += rep["violations"]
        pairs += rep["layers"]
    frac = viol / pairs
    _report(7, "activation margin bound at alpha=0.1", frac <= 0.01,
            f"{viol}/{pairs} (net, layer) violations = {frac:.4f}")


def test_08_hyperplane_flip_probability():
    d = 200
    worst_z = 0.0
    bound_ok = True
    for j, rr in enumerate((0.01, 0.05, 0.1)):
        for k in range(20):
            rng = RngStream(1008, j * 20 + k)
            x = rng.sphere_point(d, norm=np.sqrt(d))
            y = x + rng.sphere_point(d, norm=rr * np.sqrt(d))
            out = probe_sign_flip(x, y, 100_000, rng)
            bound_ok &= out["empirical"] <= out["bound"]
            worst_z = max(worst_z, abs(out["empirical"] - out["oracle"])
                          / out["std_error"])
    ok = bound_ok and worst_z <= 3.0
    _report(8, "hyperplane flip probability", ok,
            f"all 60 pairs under the bound: {bound_ok}; worst |z| vs oracle "
            f"{worst_z:.2f} (limit 3)")


def test_09_mask_distribution_equivalence():
    arch = Architecture(128, (128, 128))
    fair = run_experiment(ExperimentConfig(kind="probe:dist_equiv", d=128, widths=(128, 128),
                                           trials=2000, master_seed=5))["summary"]
    # the same streams as fair's trials, at mask probability 0.9
    x = sphere_input(128, RngStream(5, 0))
    biased = dist_equiv_stats([probe_dist_equiv(arch, x, RngStream(5, 2 * k + 1),
                                                RngStream(5, 2 * k + 2), p=0.9)
                               for k in range(2000)], p=0.9)
    ok = fair["pass"] and not biased["pass"]
    _report(9, "mask distribution equivalence", ok,
            f"KS {fair['ks_statistic']:.4f} <= {fair['threshold']:.4f}; "
            f"Bernoulli(0.9) control KS {biased['ks_statistic']:.4f} rejected")


def test_10_gaussian_spectral_bound():
    out = run_experiment(ExperimentConfig(kind="probe:gaussian_spectral", dims=(200, 300),
                                          delta=0.01, trials=100, master_seed=10))["summary"]
    _report(10, "gaussian spectral norm bound", out["violations"] <= 1,
            f"{out['violations']}/100 violations of bound {out['bound']:.1f}")


def test_11_kernel_monte_carlo():
    worst_z = 0.0
    for j, theta in enumerate((np.pi / 6, np.pi / 2, 2 * np.pi / 3)):
        out = kernel_mc_estimate(theta, 1_000_000, RngStream(1011, j))
        worst_z = max(worst_z, abs(out["estimate"] - kernel_map(theta)) / out["std_error"])
    _report(11, "arc-cosine kernel monte carlo", worst_z <= 3.0,
            f"worst |z| {worst_z:.2f} over 3 angles at 1e6 draws (limit 3)")


def test_12_sin_cos_margin():
    out = sin_cos_gap(10_000)
    _report(12, "sin/cos gap inequality", out["min_margin"] >= 0.0,
            f"min margin {out['min_margin']:.3e} on 1e4-point grid")


def test_13_depth_collapse():
    rep = collapse_simulate(10, 2000, 200, 50, master_seed=3)
    mad = float(np.mean(np.abs(rep.layer_cosines[:, :50] - rep.kernel_track[:, :50])))
    j5 = rep.checkpoint_depths.index(5)
    j200 = rep.checkpoint_depths.index(200)
    c5 = float(np.median(rep.constancy_ratios[:, j5]))
    c200 = float(np.median(rep.constancy_ratios[:, j200]))
    ratios_ok = bool(np.all((rep.norm_ratios >= 0.8) & (rep.norm_ratios <= 1.2)))
    ok = mad <= 0.05 and c200 < c5 and ratios_ok
    _report(13, "depth collapse at feasible scale", ok,
            f"kernel-tracking MAD {mad:.4f} (<=0.05); constancy median "
            f"{c200:.3f}@200 < {c5:.3f}@5; norm ratios in [0.8,1.2]: {ratios_ok}")


def test_14_deterministic_outputs(tmp_path, capsys):
    args = ["attack", "--d", "64", "--widths", "64", "64", "--trials", "10",
            "--seed", "14"]
    blobs = []
    for run, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / run
        rc = cli_main(args + ["--workers", workers, "--out-dir", str(out)])
        assert rc == 0
        blobs.append((out / "attack.csv").read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(14, "byte-identical outputs", ok,
            "repeated and 4-worker runs produced identical CSV bytes")


def _flipped_linearity(d: int, widths, trials: int, seed: int) -> np.ndarray:
    """`linearity` of the flipped rows of a lazy `attack` run."""
    rows = run_experiment(ExperimentConfig.from_dict(
        {"kind": "attack", "d": d, "widths": list(widths), "trials": trials,
         "master_seed": seed}))["rows"]
    return np.array([r.values["linearity"] for r in rows if r.status == "ok"])


def test_15_depth_lowers_flip_rate_and_raises_linearity():
    # Suitably deep nets are nearly constant: at fixed d and width, fewer
    # trials flip within the default reach as L grows, and those that flip
    # are less linear along the ray.  In 20000 bootstrap resamples of 40
    # trials per depth from 300 at another seed, the gated comparisons
    # failed in at most 0.43% (the medians); L = 4 against L = 2, which
    # failed in 0.86% (flips) and 13% (medians), is not gated.
    lam = {L: _flipped_linearity(100, (100,) * L, 40, 6131) for L in (2, 4, 8)}
    flips = {L: len(v) for L, v in lam.items()}
    med = {L: float(np.median(v)) for L, v in lam.items()}
    ok = flips[2] > flips[8] and flips[4] > flips[8] and med[8] > med[2]
    _report(15, "depth lowers flip rate and raises linearity", ok,
            f"flips {flips[2]}/{flips[4]}/{flips[8]} of 40 at L=2/4/8 (2 and 4 above 8); "
            f"linearity median {med[2]:.3f}@2 < {med[8]:.3f}@8")


def test_16_bottleneck_width_tames_linearity_tail():
    # The minimal width up to a layer sets the scales there: at d = 500,
    # widths (500, k), the 0.9-quantile of linearity over flipped trials
    # falls toward 1 as the bottleneck k grows.  The gate reads linearity,
    # not the flip ratio, whose cosine factor has a law that no width moves.
    # At 200 trials per k neither comparison failed in 4000 bootstrap
    # resamples of 600 trials per k at another seed.
    q90 = {k: float(np.quantile(_flipped_linearity(500, (500, k), 200, 6132), 0.9))
           for k in (8, 32, 128)}
    ok = q90[8] > q90[32] > q90[128]
    _report(16, "bottleneck width tames the linearity tail", ok,
            f"linearity q90 {q90[8]:.3f}@8 > {q90[32]:.3f}@32 > {q90[128]:.3f}@128")


def test_17_flipped_output_regains_its_magnitude():
    # Theorem 1's second half: past the flip, |f| comes back to |f(x)|.  On
    # lazy trial nets at d = 500, widths (500, 500), every flipped trial
    # regains it within the default reach, at a step t_restore near 2 t*
    # (exactly 2 when f is linear along the ray).  In 20000 bootstrap
    # resamples of 100 trials from 400 at another seed, the median of
    # t_restore/t* stayed within [2.048, 2.160].
    arch = Architecture(500, (500, 500))
    steps, lost = [], 0
    for i in range(100):
        rng = RngStream(9202, i)
        check = verify_theorem1(*_trial_net(arch, rng))
        if check.flipped and not check.magnitude_ok:
            lost += 1
        elif check.flipped:
            steps.append(check.ratio / check.flip_ratio)
    median = float(np.median(steps))
    ok = lost == 0 and len(steps) >= 90 and 2.0 <= median <= 2.2
    _report(17, "flipped output regains its magnitude", ok,
            f"{len(steps)} of 100 flipped and restored, {lost} not restored; "
            f"median t_restore/t* {median:.3f} in [2.0, 2.2]")
