"""Head-on approach: entry-intensity curve, probability bound, and MC check.

Computes the analytic entry-intensity curve for the built-in "front"
scenario, integrates it into an upper bound on the collision probability,
and validates both against a Monte-Carlo campaign.
"""
import numpy as np

from crossrate import (
    integrate_intensity,
    intensity_curve,
    preset_config,
    run_campaign,
)


def main():
    cfg = preset_config("front", n_traj=20_000)

    ts = np.arange(0.0, cfg.horizon + 1e-9, 0.1)
    curve = intensity_curve(cfg, ts)
    bound = integrate_intensity(curve, 0.0, 6.0)
    print(f"peak intensity        : {curve.values().max():.4f} 1/s "
          f"at t = {ts[np.argmax(curve.values())]:.1f} s")
    print(f"bound on P(collision) in [0, 6 s]: {bound.p_capped:.4f}")

    res = run_campaign(cfg, threads=4)
    hist = res.histogram
    idx = int(round(6.0 / hist.bin_width)) - 1
    print(f"MC first-entry probability [0, 6 s]: "
          f"{hist.integrated_probability()[idx]:.4f} "
          f"({hist.n_traj} trajectories)")
    print(f"MC P(at least one entry) over [0, 8 s]: "
          f"{res.entry_stats['p_at_least_one']:.4f}")
    print("first-entry boundary split:",
          {k: round(v, 3)
           for k, v in res.entry_stats['first_entry_boundary_fractions'].items()
           if v > 0})


if __name__ == "__main__":
    main()
