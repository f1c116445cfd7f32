"""Extended-target corners: intensity at salient points of the target.

Transforms the reference-point density to body-frame corner offsets with
the Jacobian of the salient map, its complex-step derivative, and
compares the closed-form intensity approximations against quadrature at
each corner.
"""
import numpy as np

from crossrate import (
    SalientOffset,
    preset_config,
    salient_transform_density,
    total_intensity,
)

CORNERS = {
    "front-left": SalientOffset(2.0, -1.0),
    "front-right": SalientOffset(2.0, 1.0),
    "rear-left": SalientOffset(-2.0, -1.0),
    "rear-right": SalientOffset(-2.0, 1.0),
}


def main():
    cfg = preset_config("front")
    ts = np.arange(2.0, 6.0 + 1e-9, 0.5)

    for label, off in CORNERS.items():
        rows = []
        for t in ts:
            gc = salient_transform_density(
                cfg.predicted_density(t), off, cfg.model, float(t)
            )
            row = {
                m: total_intensity(gc, cfg.rect, float(t), m).mu_plus
                for m in ("quadrature", "taylor0", "taylor1_inv", "taylor1_cov")
            }
            rows.append(row)
        peak = max(r["quadrature"] for r in rows)
        errs = {
            m: max(abs(r[m] - r["quadrature"]) for r in rows)
            for m in ("taylor0", "taylor1_inv", "taylor1_cov")
        }
        print(f"[{label}] peak intensity {peak:.4f} 1/s; max errors vs "
              "quadrature: "
              + ", ".join(f"{m}={e:.2e}" for m, e in errs.items()))


if __name__ == "__main__":
    main()
