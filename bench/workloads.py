"""What each workload runs and what its outputs must satisfy.

Plain data shared by the orchestrator (`run.py`), the in-process pass
(`worker.py`) and the reference freezer (`freeze.py`).  The tolerances are
those of the acceptance gate in ``tests/test_acceptance.py``.
"""

import random

# the acceptance grid of criteria 1, 3, 5 and 6: n = 1e3 ... 1e5, 24 orders
GRID = dict(n_lo=1000, n_hi=100000, points=24)
FIT_TOL = 0.05          # |fitted slope - theory target|
SPREAD_MAX = 3.0        # max/min of the quasimode ensemble norms
WEYL_SLACK = 0.2        # |window dimension - two-term Weyl| / Weyl
REL_TOL = 1e-8          # specfun accuracy target, for the frozen reference


def _sweeps():
    out = []
    for alpha in (0.3, 0.5):     # criterion 1: slope alpha/4 in n
        out.append(dict(label=f"amplitude-a{alpha}", fn="amplitude_sweep",
                        alpha=alpha, kwargs={}, x="n", y="amplitude",
                        target=alpha / 4.0))
    for s in (0.0, 0.1, 0.25, 0.4):   # criterion 3: alpha (s - 1/4) in h
        out.append(dict(label=f"band-s{s}", fn="sharpness_sweep", alpha=0.5,
                        kwargs=dict(s=s, band=(0.3, 0.6)), x="h",
                        y="weighted_norm", target=0.5 * (s - 0.25),
                        negative=s < 0.25))
    for alpha in (0.3, 0.5):     # criterion 5: bounded in xi_d
        out.append(dict(label=f"normal-a{alpha}", fn="normal_band_check",
                        alpha=alpha, kwargs={}, x="xi_d", y="weighted_norm",
                        target=0.0))
    for s in (0.25, 0.4):        # criterion 6: alpha (1/4 - s) in h
        out.append(dict(label=f"derivative-s{s}",
                        fn="normal_derivative_sweep", alpha=0.5,
                        kwargs=dict(s=s), x="h", y="weighted_norm",
                        target=0.5 * (0.25 - s)))
    return out


# disk-sweep: the ten full-scale sweeps; the seed only sets their order
SWEEPS = _sweeps()

# quasimode: criterion 4's ensemble; the seed is the RNG seed
QUASIMODE = dict(lam_lo=200.0, lam_hi=2000.0, windows=8, trials=20)
# columns of a quasimode CSV that do not depend on the RNG seed
QUASIMODE_STABLE = ("lambda", "dim", "weyl_estimate", "s", "rho", "trials")
# a quasimode run whose every column is frozen: criterion 4's seed, and the
# same windows as the cli `quasimode` command (Lambda = 200 and 2000)
PINNED_SEED = 2025
QUASIMODE_PINNED = dict(windows=2, seed=PINNED_SEED)

# cli: six commands, each a fresh process; the seed sets the order of the
# four independent groups of commands
CLI_FIT_TARGET = 0.5 / 4.0     # amplitude slope of the alpha = 0.5 sweep
CLI_OUTPUTS = ("sph.csv", "disk.csv", "qm.csv", "plot.svg")


def cli_commands(out: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) of the cli workload, writing under directory `out`."""
    disk = f"{out}/disk.csv"
    groups = [
        [("sweep-sphere", ["sweep-sphere", "--alpha", "0.8",
                           "--out", f"{out}/sph"])],
        [("sweep-disk", ["sweep-disk", "--alpha", "0.5", "--n-min", "200",
                         "--n-max", "2000", "--points", "12",
                         "--out", f"{out}/disk"]),
         ("fit", ["fit", "--in", disk, "--x", "n", "--y", "amplitude"]),
         ("plot", ["plot", "--in", disk, "--x", "n", "--y", "amplitude",
                   "--out", f"{out}/plot"])],
        [("quasimode", ["quasimode", "--windows", "2",
                        "--seed", str(PINNED_SEED), "--out", f"{out}/qm"])],
        [("selftest", ["selftest"])],
    ]
    random.Random(seed).shuffle(groups)
    return [cmd for group in groups for cmd in group]


def parse_csv(text: str) -> dict[str, list[float]]:
    """Columns of a CSV written by glancelab.io, as floats."""
    lines = text.splitlines()
    names = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return {nm: [r[j] for r in rows] for j, nm in enumerate(names)}
