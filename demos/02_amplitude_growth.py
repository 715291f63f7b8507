"""Measure the glancing amplitude-growth exponent on the disk and sphere.

Modes selected at glancing scale sigma ~ n^{-alpha} have restricted norms
growing like n^{alpha/4}: the closer the trace circle sits to tangency,
the larger the restriction, with the rate set only by alpha.  This script
runs both sweeps, fits the exponents, and writes the disk table and a
log-log figure next to this file (disk_growth.csv / disk_growth.svg).
"""

import os.path

from glancelab import experiments, io, svgplot

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    print("%8s %8s %12s %12s %8s" %
          ("surface", "alpha", "slope", "target", "r^2"))
    disk_result = None
    for kind, alpha in (("disk", 0.3), ("disk", 0.5),
                        ("sphere", 0.5), ("sphere", 0.8)):
        cfg = experiments.SweepConfig(kind=kind, alpha=alpha, n_lo=1000,
                                      n_hi=100000, points=24)
        res = experiments.amplitude_sweep(cfg)
        fit = experiments.fit_exponent(res.column("n"),
                                       res.column("amplitude"))
        print("%8s %8.2f %12.4f %12.4f %8.3f" %
              (kind, alpha, fit.slope, alpha / 4.0, fit.r_squared))
        if kind == "disk" and alpha == 0.5:
            disk_result = res

    csv_path = os.path.join(HERE, "disk_growth.csv")
    io.write_sweep_csv(csv_path, disk_result)
    svg = svgplot.render_log_log(disk_result.column("n"),
                                 [("amplitude", disk_result.column("amplitude"))],
                                 xlabel="angular order n",
                                 ylabel="|trace amplitude|",
                                 title="disk, alpha = 0.5")
    io.write_text(os.path.join(HERE, "disk_growth.svg"), svg)
    print()
    print("wrote %s and disk_growth.svg" % csv_path)


if __name__ == "__main__":
    main()
