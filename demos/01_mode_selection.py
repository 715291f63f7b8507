"""Select disk modes whose trace sits at a prescribed glancing scale.

For each angular order n we look for a Dirichlet eigenvalue lambda with
J_n(lambda) = 0 inside the window lambda in 2n + [M, M+1] n^{1-alpha}
(M = 4 here).  On the circle of radius 1/2 the trace of such a mode has
glancing distance sigma = 1 - (n / (lambda/2))^2 of size ~ n^{-alpha}:
larger n means closer to glancing, at a controlled rate.

Within one window there are many eigenvalues; "optimize=restriction" picks
the one whose restricted amplitude is largest (the edge of the Bessel
oscillation), which is what the growth experiments measure.
"""

import numpy as np

from glancelab import modes, specfun

TARGET = modes.ScaleTarget(alpha=0.5)
ORDERS = np.array([100, 300, 1000, 3000, 10000, 30000])


def main():
    print("alpha = %.2f, window offset M = %.0f, radius = 1/2" %
          (TARGET.alpha, TARGET.offset))
    print()
    print("%8s %16s %12s %12s %12s" %
          ("n", "lambda", "sigma", "n^-alpha", "|amplitude|"))
    # one selector call picks a mode for every order; its columns give the
    # glancing distance and the trace amplitude c J_n(lambda / 2)
    picked = modes.select_disk_modes(ORDERS, TARGET, optimize="restriction")
    for error in picked.error:
        if error is not None:
            raise error
    n, lam = picked.n, picked.lam
    sigma = 1.0 - (n / (lam * 0.5)) ** 2
    amplitude = np.abs(picked.normalization * specfun.bessel_j(n, lam * 0.5))
    for row in zip(n.tolist(), lam.tolist(), sigma.tolist(),
                   (n ** -TARGET.alpha).tolist(), amplitude.tolist()):
        print("%8d %16.6f %12.3e %12.3e %12.4f" % row)
    print()
    print("sigma tracks n^-alpha (same decade), and the amplitude grows")
    print("slowly: that growth rate is measured in 02_amplitude_growth.py")


if __name__ == "__main__":
    main()
