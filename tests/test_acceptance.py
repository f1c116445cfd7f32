"""End-to-end acceptance checks, one test (one pass/fail line) per criterion."""
import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy.stats import chi2, norm

from crossrate import (
    GaussianDensity,
    HostRectangle,
    MotionModel,
    SalientOffset,
    StateVector,
    adaptive_sample,
    chord_crossings,
    condition,
    deterministic_ttc_seeds,
    integrate_intensity,
    intensity_curve,
    intensity_evaluator,
    marginalize,
    measurement_function,
    measurement_jacobian,
    preset_config,
    process_noise_cov,
    run_campaign,
    salient_transform_state,
    segment_intensity,
    segments,
    steady_state_covariance,
    transition_matrix,
    ttc_monte_carlo,
)
from crossrate.cli import main as cli_main
from crossrate.dynamics import salient_jacobian

PRESETS = ("front", "front-right")
DENSE_DT = 0.05


@pytest.fixture(scope="module")
def campaigns():
    """Large Monte-Carlo campaigns for the bound-saturation checks."""
    return {
        name: run_campaign(preset_config(name, n_traj=300_000), threads=4)
        for name in PRESETS
    }


@pytest.fixture(scope="module")
def dense_curves():
    """Dense dt=0.05 intensity curves for both presets and all methods."""
    ts = np.arange(0.0, 8.0 + 1e-9, DENSE_DT)
    out = {}
    for name in PRESETS:
        cfg = preset_config(name)
        out[name] = {
            method: intensity_curve(cfg, ts, method)
            for method in ("quadrature", "taylor0", "taylor1_inv")
        }
    return out


def test_criterion_1_entry_count_statistics():
    """Front configuration, elevated jerk noise, 1e5 trajectories.

    The integrated quadrature intensity B = int_0^horizon mu+ dt equals the
    expected entry count E[N+], which bounds P(N+>=1).  The MC campaign
    must obey that bound and its mean entry count must match B, both
    within 3 standard errors; doubles must be rare but observable.
    """
    cfg = preset_config("front", n_traj=100_000)
    cfg = dataclasses.replace(
        cfg, model=dataclasses.replace(cfg.model, qx=1.0125, qy=1.0125)
    )
    # The former target P(N+>=1) = 0.45 +- 0.05 is dropped: it exceeds
    # E[N+] = B ~ 0.118 for this scenario, and P(N+>=1) cannot exceed E[N+].
    ts = np.arange(0.0, cfg.horizon + 1e-9, DENSE_DT)
    curve = intensity_curve(cfg, ts, "quadrature")
    bound = integrate_intensity(curve, 0.0, cfg.horizon).p_upper
    t0 = time.perf_counter()
    res = run_campaign(cfg, threads=1)
    elapsed = time.perf_counter() - t0
    n = cfg.n_traj
    p_one = res.entry_stats["p_at_least_one"]
    mult = res.entry_stats["multiplicity_counts"]
    se_p = math.sqrt(p_one * (1.0 - p_one) / n)
    mean_n = sum(k * m for k, m in mult.items()) / n
    var_n = sum(k * k * m for k, m in mult.items()) / n - mean_n**2
    se_n = math.sqrt(var_n / n)
    p_two = mult.get(2, 0) / n
    ratio = p_two / p_one if p_one > 0 else math.inf
    print(
        f"criterion 1: B={bound:.5f}; "
        f"P(N+>=1)={p_one:.5f}±{se_p:.5f} (target <= B + 3 SE), "
        f"E[N+]_MC={mean_n:.5f}±{se_n:.5f} (target |E[N+]_MC - B| <= 3 SE), "
        f"P(N+=2)/P(N+>=1)={ratio:.5f} (target [0.0006, 0.006]), "
        f"runtime {elapsed:.1f}s (target <60s)"
    )
    assert elapsed < 60.0
    assert p_one <= bound + 3.0 * se_p
    assert abs(mean_n - bound) <= 3.0 * se_n
    assert 0.0006 <= ratio <= 0.006


def test_criterion_2_bound_saturation(campaigns, dense_curves):
    """MC first-entry rate vs quadrature intensity, 3e5 trajectories."""
    for name in PRESETS:
        res = campaigns[name]
        hist = res.histogram
        curve = dense_curves[name]["quadrature"]
        counts = hist.first_entry_counts["total"]
        n = hist.n_traj
        bw = hist.bin_width
        rate = hist.first_entry_rate("total")
        mu = np.interp(hist.bin_mid, curve.times(), curve.values())
        p = counts / n
        se = np.sqrt(p * (1.0 - p) / n) / bw
        mask = counts >= 50
        upper_ok = bool(np.all(rate[mask] <= mu[mask] + 3.0 * se[mask]))
        peak = curve.values().max()
        close_frac = float(
            np.mean(np.abs(rate[mask] - mu[mask]) < 0.05 * peak)
        )
        print(
            f"criterion 2 [{name}]: bound holds in all qualifying bins: "
            f"{upper_ok}; fraction within 5% of peak: {close_frac:.3f} "
            f"(target >= 0.90)"
        )
        assert upper_ok
        assert close_frac >= 0.90


def test_criterion_3_integrated_probability(campaigns, dense_curves):
    """Front collision probability within the first 6 s."""
    bound = integrate_intensity(dense_curves["front"]["quadrature"], 0.0, 6.0)
    hist = campaigns["front"].histogram
    idx = int(round(6.0 / hist.bin_width)) - 1
    mc = hist.integrated_probability()[idx]
    print(
        f"criterion 3: analytic bound P(0,6)={bound.p_upper:.4f} "
        f"(target [0.55, 0.75]); MC={mc:.4f} (same bracket, <= bound)"
    )
    assert 0.55 <= bound.p_upper <= 0.75
    assert 0.55 <= mc <= 0.75
    assert mc <= bound.p_upper


ORACLE_ALPHA = 1e-3  # family-wise level of each preset's per-bin z family and chi^2


def test_criterion_2_all_entry_rate_equals_intensity(campaigns):
    """Two-sided MC oracle: the expected entry count in a bin is the integral
    of mu+ over it (Rice; Belyaev), so the all-entry histogram is unbiased
    for mu+ in every bin, not only bounded by it.

    Against mu+ bin-averaged on a 0.01 s grid, over the bins with >= 50
    entries: every per-bin z (Poisson SE) within the Bonferroni bound and
    the chi^2 of those z below its quantile, both at ORACLE_ALPHA; and the
    mean entry count within 4 SE of the integral of mu+, its SE from the
    per-trajectory multiplicities.
    """
    for name in PRESETS:
        res = campaigns[name]
        hist = res.histogram
        n = hist.n_traj
        cfg = preset_config(name)
        fine = intensity_curve(cfg, np.arange(0.0, cfg.horizon + 1e-9, 0.01))
        t, mu = fine.times(), fine.values()
        integral = np.concatenate(([0.0], np.cumsum(np.diff(t) * 0.5 * (mu[1:] + mu[:-1]))))
        expected = n * np.diff(np.interp(hist.bin_edges, t, integral))
        counts = hist.all_entry_counts["total"]
        mask = counts >= 50
        z = (counts[mask] - expected[mask]) / np.sqrt(expected[mask])
        z_limit = norm.isf(ORACLE_ALPHA / (2 * z.size))
        chi2_limit = chi2.isf(ORACLE_ALPHA, z.size)

        mult = res.entry_stats["multiplicity_counts"]
        entries = sum(k * m for k, m in mult.items())
        assert counts.sum() == entries  # the SE below is of the counted entries
        mean_n = entries / n
        se_n = math.sqrt((sum(k * k * m for k, m in mult.items()) / n - mean_n**2) / n)
        print(
            f"criterion 2 [{name}] two-sided: {z.size} bins, mean z {z.mean():.3f}, "
            f"max|z| {np.abs(z).max():.2f} (target <= {z_limit:.2f}), "
            f"chi2 {np.sum(z**2):.1f} (target <= {chi2_limit:.1f}); "
            f"E[N+]_MC={mean_n:.5f}±{se_n:.5f} vs int mu+ = {integral[-1]:.5f} "
            f"(target within 4 SE)"
        )
        assert z.size >= 40
        assert np.abs(z).max() <= z_limit
        assert np.sum(z**2) <= chi2_limit
        assert abs(mean_n - integral[-1]) <= 4.0 * se_n


def test_criterion_4_approximation_ordering(dense_curves):
    """First-order expansion at least as accurate; exact when diagonal."""
    for name in PRESETS:
        quad = dense_curves[name]["quadrature"].values()
        err0 = np.abs(dense_curves[name]["taylor0"].values() - quad).max()
        err1 = np.abs(dense_curves[name]["taylor1_inv"].values() - quad).max()
        print(
            f"criterion 4 [{name}]: max|taylor1_inv - quad|={err1:.2e} <= "
            f"max|taylor0 - quad|={err0:.2e}"
        )
        assert err1 <= err0

    front = segments(HostRectangle(0.0, -5.0, -1.0, 1.0))[0]
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        mean = [
            rng.uniform(-1, 1),
            rng.uniform(-0.5, 0.5),
            rng.uniform(-4, -0.5),
            rng.uniform(-1, 1),
        ]
        cov = np.diag(rng.uniform(0.3, 2.0, 4) ** 2)
        g = GaussianDensity(np.array(mean), cov)
        ref = segment_intensity(g, front, method="quadrature")
        for method in ("taylor0", "taylor1_inv"):
            val = segment_intensity(g, front, method=method)
            rel = abs(val - ref) / max(abs(ref), 1e-14)
            worst = max(worst, rel)
            assert val == pytest.approx(ref, rel=1e-6, abs=1e-14)
    print(
        f"criterion 4 [diagonal]: 100 random diagonal cases, worst relative "
        f"deviation {worst:.2e} (target <= 1e-6)"
    )


def test_criterion_5_adaptive_sampler(dense_curves):
    """Evaluation budget and integral accuracy of the adaptive sampler."""
    budgets = {"front": 15, "front-right": 14}
    for name in PRESETS:
        cfg = preset_config(name)
        ev = intensity_evaluator(cfg, "quadrature")
        seeds = deterministic_ttc_seeds(cfg.initial_mean, cfg.rect)
        curve = adaptive_sample(ev, seeds, (0.0, cfg.horizon))
        lo, hi = curve.samples[0].t, curve.samples[-1].t
        adaptive = integrate_intensity(curve, lo, hi).p_upper
        dense = integrate_intensity(
            dense_curves[name]["quadrature"], 0.0, 8.0
        ).p_upper
        rel = abs(adaptive - dense) / dense
        print(
            f"criterion 5 [{name}]: {curve.evaluations} evaluations "
            f"(budget {budgets[name]}); integral deviation {100 * rel:.1f}% "
            f"(target < 5%)"
        )
        assert curve.evaluations <= budgets[name]
        assert rel < 0.05


def test_criterion_6_ttc_identity():
    """Zero-noise TTC draws match the intensity; noise shifts the peak left."""
    base = preset_config("front-right", n_traj=100_000, bin_width=0.2)
    p0 = base.resolve_initial_cov()
    quiet = dataclasses.replace(
        base,
        model=dataclasses.replace(base.model, qx=0.0, qy=0.0, b1=0.0, b2=0.0),
        initial_cov=p0,
    )
    ttc = ttc_monte_carlo(quiet)
    mc_rate = ttc["front_rate"] + ttc["right_rate"]
    edges = ttc["bin_edges"]
    mids = 0.5 * (edges[:-1] + edges[1:])

    ev = intensity_evaluator(quiet, "quadrature")
    cache = {}

    def mu(t):
        key = round(float(t), 9)
        if key not in cache:
            cache[key] = ev(t).mu_plus
        return cache[key]

    # Simpson average of the intensity over each histogram bin
    mu_avg = np.array(
        [
            (mu(lo) + 4.0 * mu(0.5 * (lo + hi)) + mu(hi)) / 6.0
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
    )
    peak = mu_avg.max()
    dev = np.abs(mc_rate - mu_avg).max() / peak
    print(
        f"criterion 6 [identity]: max |TTC MC - intensity| = "
        f"{100 * dev:.1f}% of peak (target < 5%)"
    )
    assert dev < 0.05

    noisy = dataclasses.replace(
        quiet, model=dataclasses.replace(quiet.model, qx=1.0125, qy=1.0125)
    )
    ts = np.arange(0.0, 8.0 + 1e-9, 0.05)
    noisy_vals = intensity_curve(noisy, ts, "quadrature").values()
    intensity_peak_t = float(ts[int(np.argmax(noisy_vals))])
    ttc_peak_t = float(mids[int(np.argmax(mc_rate))])
    print(
        f"criterion 6 [peak shift]: noisy intensity peak at "
        f"{intensity_peak_t:.2f}s, TTC histogram peak at {ttc_peak_t:.2f}s "
        f"(must be strictly earlier)"
    )
    assert intensity_peak_t < ttc_peak_t


class TestCriterion7NumericsProperties:
    def test_process_noise_psd_sweep(self):
        model = MotionModel(qx=1.0125, qy=0.0405)
        worst = 0.0
        for dt in (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
            q = process_noise_cov(dt, model)
            eig = np.linalg.eigvalsh(q)
            worst = min(worst, eig.min() / max(eig.max(), 1e-300))
            assert eig.min() >= -1e-12 * eig.max()
        print(
            f"criterion 7 [Q PSD]: dt sweep 0.01..8, worst relative "
            f"eigenvalue {worst:.1e} (target >= -1e-12)"
        )

    def test_measurement_jacobian_finite_difference_1000(self):
        rng = np.random.default_rng(71)
        step = 1e-6
        worst = 0.0
        checked = 0
        while checked < 1000:
            s = StateVector(*rng.uniform(-20, 20, 6))
            if math.hypot(s.x, s.y) < 1.0:
                continue
            checked += 1
            h = measurement_jacobian(s)
            base = s.as_array()
            fd = np.empty((3, 6))
            for j in range(6):
                hi, lo = base.copy(), base.copy()
                hi[j] += step
                lo[j] -= step
                fd[:, j] = (
                    np.array(measurement_function(StateVector(*hi)))
                    - np.array(measurement_function(StateVector(*lo)))
                ) / (2 * step)
            rel = np.max(np.abs(h - fd) / np.maximum(np.abs(h), 1.0))
            worst = max(worst, rel)
            assert rel < 1e-5
        print(
            f"criterion 7 [measurement Jacobian]: 1000 states, worst relative "
            f"FD deviation {worst:.1e} (target < 1e-5)"
        )

    def test_salient_jacobian_finite_difference_1000(self):
        rng = np.random.default_rng(72)
        model = MotionModel(qx=0.0405, qy=0.0405, b1=-0.4, b2=-0.5, omega=0.5)
        step = 1e-6
        worst = 0.0
        checked = 0
        while checked < 1000:
            s = StateVector(*rng.uniform(-10, 10, 6))
            if math.hypot(s.xdot, s.ydot) < 0.5:
                continue
            checked += 1
            off = SalientOffset(*rng.uniform(-3, 3, 2))
            t = float(rng.uniform(0, 8))
            jac = salient_jacobian(s, off, model, t=t)
            base = s.as_array()
            fd = np.empty((6, 6))
            for j in range(6):
                hi, lo = base.copy(), base.copy()
                hi[j] += step
                lo[j] -= step
                fd[:, j] = (
                    salient_transform_state(StateVector(*hi), off, model, t=t).as_array()
                    - salient_transform_state(
                        StateVector(*lo), off, model, t=t
                    ).as_array()
                ) / (2 * step)
            rel = np.max(np.abs(jac - fd) / np.maximum(np.abs(jac), 1.0))
            worst = max(worst, rel)
            assert rel < 1e-5
        print(
            f"criterion 7 [salient Jacobian]: 1000 states, worst relative "
            f"FD deviation {worst:.1e} (target < 1e-5)"
        )

    def test_riccati_fixed_point_residual(self):
        worst = 0.0
        for name in PRESETS:
            cfg = preset_config(name)
            p = steady_state_covariance(cfg.initial_mean, cfg.model, cfg.radar)
            dt = cfg.radar.cycle_time
            phi = transition_matrix(dt)
            q = process_noise_cov(dt, cfg.model)
            h = measurement_jacobian(cfg.initial_mean)
            r = cfg.radar.cov()
            p_pred = phi @ p @ phi.T + q
            s = h @ p_pred @ h.T + r
            k = p_pred @ h.T @ np.linalg.inv(s)
            ikh = np.eye(6) - k @ h
            p_next = ikh @ p_pred @ ikh.T + k @ r @ k.T
            worst = max(worst, float(np.max(np.abs(p_next - p))))
        print(
            f"criterion 7 [Riccati]: worst fixed-point residual {worst:.1e} "
            f"(target < 1e-8)"
        )
        assert worst < 1e-8

    def test_crossing_parity_10000_polylines(self):
        rect = HostRectangle(0.0, -5.0, -1.0, 1.0)
        rng = np.random.default_rng(73)
        polylines = []
        for _ in range(10_000):
            n_pts = int(rng.integers(3, 9))
            polylines.append(rng.uniform([-8, -4], [4, 4], size=(n_pts, 2)))
        # every chord of every polyline in one call, chords numbered in order
        p0 = np.concatenate([pts[:-1] for pts in polylines])
        p1 = np.concatenate([pts[1:] for pts in polylines])
        found = chord_crossings(p0, p1, rect)
        # the steps of each chord, +1 per entry and -1 per exit, in order along it
        starts = np.searchsorted(found.chord, np.arange(1, len(p0)))
        per_chord = iter(np.split(np.where(found.entry, 1, -1), starts))
        for pts in polylines:
            inside = 1 if rect.contains(pts[0]) else 0
            for end in pts[1:]:
                for step in next(per_chord).tolist():
                    inside += step
                    assert inside in (0, 1)
                assert inside == (1 if rect.contains(end) else 0)
        print(
            "criterion 7 [crossing parity]: 10000 random polylines consistent "
            "with point-in-rectangle membership"
        )

    @staticmethod
    def _random_density(rng, dim):
        # eigenvalues kept in [0.5, 2] so one integration box fits all axes
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        cov = q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T
        return GaussianDensity(rng.uniform(-2, 2, dim), 0.5 * (cov + cov.T))

    def test_gaussian_operations_vs_numeric_oracle_100(self):
        rng = np.random.default_rng(74)
        worst_marg = 0.0
        worst_cond = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            g = self._random_density(rng, dim)
            keep = int(rng.integers(dim))

            # marginal moments via tensor-grid integration of the joint pdf
            m = marginalize(g, (keep,))
            n_pts = {2: 161, 3: 81, 4: 41}[dim]
            axes = [
                np.linspace(g.mean[j] - 9.0, g.mean[j] + 9.0, n_pts)
                for j in range(dim)
            ]
            grids = np.meshgrid(*axes, indexing="ij")
            x = np.stack([gr.ravel() for gr in grids], axis=-1)
            d = x - g.mean
            inv = np.linalg.inv(g.cov)
            pdf = np.exp(-0.5 * np.einsum("ni,ij,nj->n", d, inv, d))
            w = math.prod(float(a[1] - a[0]) for a in axes)
            total = pdf.sum() * w
            mu = (pdf * x[:, keep]).sum() * w / total
            var = (pdf * (x[:, keep] - mu) ** 2).sum() * w / total
            worst_marg = max(
                worst_marg,
                abs(mu - m.mean[0]),
                abs(var - m.cov[0, 0]) / m.cov[0, 0],
            )
            assert mu == pytest.approx(m.mean[0], abs=1e-7)
            assert var == pytest.approx(m.cov[0, 0], rel=1e-6)

            # conditional moments via 1D numeric slice integration
            given = tuple(j for j in range(dim) if j != keep)
            values = g.mean[list(given)] + 0.5 * rng.standard_normal(dim - 1)
            c = condition(g, given, values)

            def slice_pdf(x_r):
                pt = np.empty(dim)
                pt[list(given)] = values
                pt[keep] = x_r
                dd = pt - g.mean
                return math.exp(-0.5 * dd @ inv @ dd)

            sd = math.sqrt(c.cov[0, 0])
            lo, hi = c.mean[0] - 10 * sd, c.mean[0] + 10 * sd
            norm, _ = scipy_integrate.quad(slice_pdf, lo, hi)
            m1, _ = scipy_integrate.quad(lambda v: v * slice_pdf(v), lo, hi)
            mu_c = m1 / norm
            m2, _ = scipy_integrate.quad(
                lambda v: (v - mu_c) ** 2 * slice_pdf(v), lo, hi
            )
            worst_cond = max(
                worst_cond,
                abs(mu_c - c.mean[0]),
                abs(m2 / norm - c.cov[0, 0]) / c.cov[0, 0],
            )
            assert mu_c == pytest.approx(c.mean[0], abs=1e-8)
            assert m2 / norm == pytest.approx(c.cov[0, 0], rel=1e-6)
        print(
            f"criterion 7 [Gaussian ops]: 100 random 2-4 dim cases, worst "
            f"marginal deviation {worst_marg:.1e}, worst conditional "
            f"deviation {worst_cond:.1e}"
        )


def test_criterion_8_determinism_across_threads(tmp_path):
    """Identical seed + any --threads gives byte-identical outputs."""
    outputs = {}
    for threads in (1, 3, 8):
        out = tmp_path / f"t{threads}"
        code = cli_main(
            [
                "simulate",
                "--preset",
                "front-right",
                "--n-traj",
                "20000",
                "--threads",
                str(threads),
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        outputs[threads] = (
            (out / "histogram.csv").read_bytes(),
            (out / "statistics.json").read_bytes(),
        )
    identical = all(outputs[t] == outputs[1] for t in (3, 8))
    print(
        "criterion 8: simulate with --threads 1/3/8, identical seed: "
        f"byte-identical CSV and JSON = {identical}"
    )
    assert identical
    stats = json.loads(outputs[1][1])
    assert stats["n_traj"] == 20000
