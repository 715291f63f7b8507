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

from glancelab import modes

TARGET = modes.ScaleTarget(alpha=0.5)


def main():
    print("alpha = %.2f, window offset M = %.0f, radius = 1/2" %
          (TARGET.alpha, TARGET.offset))
    print()
    print("%8s %16s %12s %12s %12s" %
          ("n", "lambda", "sigma", "n^-alpha", "|amplitude|"))
    for n in (100, 300, 1000, 3000, 10000, 30000):
        mode = modes.select_disk_mode_at_scale(n, TARGET,
                                               optimize="restriction")
        print("%8d %16.6f %12.3e %12.3e %12.4f" %
              (n, mode.lam, mode.sigma(0.5), float(n) ** -TARGET.alpha,
               abs(modes.restrict_disk(mode, 0.5))))
    print()
    print("sigma tracks n^-alpha (same decade), and the amplitude grows")
    print("slowly: that growth rate is measured in 02_amplitude_growth.py")


if __name__ == "__main__":
    main()
