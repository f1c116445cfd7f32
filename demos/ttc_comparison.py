"""TTC distribution vs entry intensity: identity without process noise.

With the jerk noise and deterministic input switched off, each trajectory
crosses the boundary at a time fixed by its initial state, so the
time-to-collision histogram must reproduce the entry-intensity curve.
Adding process noise spreads the predicted density and pulls the
intensity peak to an earlier time than the TTC peak.
"""
import dataclasses

import numpy as np

from crossrate import intensity_curve, preset_config, ttc_config, ttc_monte_carlo


def main():
    quiet = ttc_config(preset_config("front-right", n_traj=50_000, bin_width=0.2))

    ttc = ttc_monte_carlo(quiet)
    rate = ttc["front_rate"] + ttc["right_rate"]
    edges = ttc["bin_edges"]
    mids = 0.5 * (edges[:-1] + edges[1:])

    mu_quiet = intensity_curve(quiet, mids).values()
    dev = np.abs(rate - mu_quiet).max() / mu_quiet.max()
    print(f"zero-noise: max |TTC histogram - intensity| = "
          f"{100 * dev:.1f}% of peak")
    print(f"  TTC peak      : {mids[np.argmax(rate)]:.2f} s")
    print(f"  intensity peak: {mids[np.argmax(mu_quiet)]:.2f} s")

    noisy = dataclasses.replace(
        quiet, model=dataclasses.replace(quiet.model, qx=1.0125, qy=1.0125)
    )
    mu_noisy = intensity_curve(noisy, mids).values()
    print(f"with jerk PSD 1.0125 m^2 s^-5 the intensity peak moves to "
          f"{mids[np.argmax(mu_noisy)]:.2f} s — earlier than the TTC peak")


if __name__ == "__main__":
    main()
