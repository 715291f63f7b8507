"""What the glancing weight looks like, numerically.

The weight glues a pure power sigma^s (away from glancing) to the frozen
value h^{s rho} (at and past glancing) across the transition region
sigma in [h^rho, 2 h^rho], where a partition of unity built from glued
exponentials rolls one branch off and the other on.  Outside the
transition the weight is exactly one branch or the other; everything is
smooth and the weight stays between the two branches.
"""

import numpy as np

from glancelab.weights import WeightSpec, glancing_weight

H = 1e-3
SPEC = WeightSpec(s=0.3, rho=2.0 / 3.0)


def main():
    scale = H ** SPEC.rho
    frozen = H ** (SPEC.s * SPEC.rho)
    print("h = %g, transition scale h^rho = %.4e, frozen value h^(s rho) = %.4f"
          % (H, scale, frozen))
    print()
    print("%14s %14s %14s" % ("sigma/h^rho", "weight", "pure power"))
    for t in (-1.0, 0.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 4.0, 10.0, 100.0):
        sigma = t * scale
        weight = float(glancing_weight(sigma, H, SPEC))
        power = sigma ** SPEC.s if sigma > 0 else float("nan")
        print("%14.2f %14.6f %14.6f" % (t, weight, power))
    print()
    print("below the transition the weight is exactly the frozen value;")
    print("two scales above it, exactly the power law — the experiments")
    print("only ever see the cutoff through this narrow seam")

    # smoothness spot check: no kink at the seam edges
    ts = np.linspace(0.9, 2.1, 1201)
    vals = np.array([float(glancing_weight(t * scale, H, SPEC)) for t in ts])
    jumps = np.abs(np.diff(vals, 2)).max()
    print("max second difference through the seam: %.2e" % jumps)


if __name__ == "__main__":
    main()
