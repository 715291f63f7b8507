"""Command-line front end.

Subcommands
-----------
sweep-disk     disk amplitude sweep; with --rho1/--rho2 a band-filtered
               sigma^s-weighted sweep; with --derivative an h-scaled
               normal-derivative sweep weighted by sigma^{-s}.  --s needs
               a band or --derivative; --rho needs --derivative
sweep-sphere   equator amplitude sweep over spherical-harmonic degrees
quasimode      random quasimodes on unit frequency windows, weighted norms
normal-band    sqrt(xi_d)-weighted trace norms (bounded by theory)
fit            power-law exponent of one CSV column against another (JSON)
plot           log-log SVG scatter of CSV columns with fitted lines
selftest       run the full oracle suite, report as JSON

Table-producing commands write ``<out>.csv`` plus ``<out>.manifest.json``
holding the fully resolved configuration (enough to reproduce the CSV
byte-for-byte; the timestamp lives only in the manifest).

Every flag can instead be given in an INI config file (``--config``): keys
match flag names without the leading dashes, in a section named after the
subcommand, with ``[common]`` applying everywhere.  Explicit flags override
the file.  Exit status: 0 success, 1 configuration error, 2 numerical
failure, 3 oracle failure.

Each command imports only the modules it runs.  `fit` and `plot` read their
table as a dict of columns, each a tuple of floats, and run on the standard
library alone; the other commands import numpy.  Exit status 2 is every
``glancelab.NumericalFailure``, whichever module raised it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import NumericalFailure, io

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_NUMERICAL = 2
_EXIT_ORACLE = 3


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit status for bad usage."""

    def error(self, message):
        raise _ConfigError(message)


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _columns(text: str) -> list[str] | None:
    """A config file's comma list of column names; None when it names none,
    which leaves the default."""
    return [s.strip() for s in text.split(",") if s.strip()] or None


# the default of a flag that has none: it must be given, on the command line
# or in the config file
_NO_DEFAULT = object()

# Option tables: (dest, flag, type, default, help).  Defaults are applied
# after the config file so that flags > file > default, and so the manifest
# can record the fully resolved values.  A _bool flag takes no value, and a
# _columns flag is appended to on each use.
_COMMON_SWEEP = [
    ("n_min", "--n-min", int, 1000, "smallest angular order / degree"),
    ("n_max", "--n-max", int, 100000, "largest angular order / degree"),
    ("points", "--points", int, 24, "geometric grid size"),
    ("offset_const", "--offset-const", float, 4.0,
     "window offset constant of the scale target"),
]

_OPTIONS = {
    "sweep-disk": _COMMON_SWEEP + [
        ("alpha", "--alpha", float, _NO_DEFAULT, "scale exponent (required)"),
        ("radius", "--radius", float, 0.5, "restriction circle radius"),
        ("s", "--s", float, 0.0,
         "weight power (with --rho1/--rho2 or --derivative)"),
        ("rho1", "--rho1", float, None, "band outer scale (with --rho2)"),
        ("rho2", "--rho2", float, None, "band inner scale (with --rho1)"),
        ("derivative", "--derivative", _bool, False,
         "sweep the h-scaled normal derivative weighted by sigma^{-s}"),
        ("rho", "--rho", float, 2.0 / 3.0,
         "glancing-weight scale for --derivative"),
        ("out", "--out", str, _NO_DEFAULT, "output prefix (required)"),
    ],
    "sweep-sphere": _COMMON_SWEEP + [
        ("alpha", "--alpha", float, _NO_DEFAULT, "scale exponent (required)"),
        ("out", "--out", str, _NO_DEFAULT, "output prefix (required)"),
    ],
    "normal-band": _COMMON_SWEEP + [
        ("alpha", "--alpha", float, _NO_DEFAULT, "scale exponent (required)"),
        ("radius", "--radius", float, 0.5, "restriction circle radius"),
        ("out", "--out", str, _NO_DEFAULT, "output prefix (required)"),
    ],
    "quasimode": [
        ("lam_min", "--lam-min", float, 200.0, "first window edge"),
        ("lam_max", "--lam-max", float, 2000.0, "last window edge"),
        ("windows", "--windows", int, 8, "number of frequency windows"),
        ("trials", "--trials", int, 20, "random draws per window"),
        ("seed", "--seed", int, 2025, "root RNG seed"),
        ("s", "--s", float, 0.3, "weight power"),
        ("rho", "--rho", float, 2.0 / 3.0, "glancing-weight scale"),
        ("radius", "--radius", float, 0.5, "restriction circle radius"),
        ("out", "--out", str, _NO_DEFAULT, "output prefix (required)"),
    ],
    "fit": [
        ("infile", "--in", str, _NO_DEFAULT, "input CSV (required)"),
        ("x", "--x", str, _NO_DEFAULT, "abscissa column (required)"),
        ("y", "--y", str, _NO_DEFAULT, "ordinate column (required)"),
        ("drop_low", "--drop-low", float, 0.25,
         "leading fraction of rows to drop"),
    ],
    "plot": [
        ("infile", "--in", str, _NO_DEFAULT, "input CSV (required)"),
        ("x", "--x", str, _NO_DEFAULT, "abscissa column (required)"),
        ("y", "--y", _columns, ["weighted_norm"],
         "ordinate column (repeat for more series)"),
        ("drop_low", "--drop-low", float, 0.25,
         "leading fraction of rows dropped by the fits"),
        ("title", "--title", str, "", "plot title"),
        ("out", "--out", str, _NO_DEFAULT, "output prefix (required)"),
    ],
    "selftest": [],
}

# every key some subcommand reads from a config file
_CONFIG_KEYS = {flag.lstrip("-") for options in _OPTIONS.values()
                for _dest, flag, *_ in options}


def _build_parser() -> _Parser:
    parser = _Parser(prog="glancelab",
                     description="scaling experiments for restricted "
                                 "eigenfunctions near glancing")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, options in _OPTIONS.items():
        p = sub.add_parser(name, prog=f"glancelab {name}")
        p.add_argument("--config", default=None,
                       help="INI file of defaults for this subcommand")
        for dest, flag, typ, _default, help_text in options:
            how = (dict(action="store_const", const=True) if typ is _bool
                   else dict(action="append") if typ is _columns
                   else dict(type=typ))
            p.add_argument(flag, dest=dest, default=None, help=help_text,
                           **how)
    return parser


def _resolve(args, name: str) -> dict:
    """Merge flag values, config-file values, and defaults; validate."""
    section, own = {}, {}
    if args.config is not None:
        raw = io.load_config(args.config)
        section = io.config_for(raw, name)
        own = dict(raw.get(name, {}))
    known = {}
    given = set()   # flags set on the command line or in the own section
    for dest, flag, typ, default, _help in _OPTIONS[name]:
        key = flag.lstrip("-")
        value = getattr(args, dest)
        if value is not None or key in own:
            given.add(flag)
        if value is None and key in section:
            try:
                value = typ(section[key])
            except ValueError as exc:
                raise _ConfigError(f"config key {key!r}: {exc}") from exc
        if value is None:
            value = default
        if value is _NO_DEFAULT:
            raise _ConfigError(f"{name}: {flag} is required"
                               + (" (flag or config)" if args.config else ""))
        known[dest] = value
        section.pop(key, None)
    # a [common] key another subcommand uses is fine; a stray key in this
    # subcommand's own section, or one no subcommand takes, is a config error
    unknown = sorted(key for key in section
                     if key in own or key not in _CONFIG_KEYS)
    if unknown:
        raise _ConfigError(f"unknown config keys for {name}: "
                           + ", ".join(unknown))
    if name == "sweep-disk":
        _check_sweep_disk(known, given)
    return known


def _check_sweep_disk(vals: dict, given: set) -> None:
    """Reject sweep-disk flags that pick no sweep or that the picked sweep
    would ignore.  Only `given` flags are checked: a [common] key may be
    meant for another subcommand."""
    band_flags = (vals["rho1"] is not None, vals["rho2"] is not None)
    if any(band_flags) and not all(band_flags):
        raise _ConfigError("--rho1 and --rho2 must be given together")
    if all(band_flags) and vals["derivative"]:
        raise _ConfigError("--derivative cannot carry a band filter")
    if "--s" in given and not (all(band_flags) or vals["derivative"]):
        raise _ConfigError("sweep-disk: --s applies only with a band "
                           "(--rho1/--rho2) or --derivative")
    if "--rho" in given and not vals["derivative"]:
        raise _ConfigError("sweep-disk: --rho applies only with --derivative")


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------

def _write_outputs(path: str, write, content, rows: int, name: str,
                   vals: dict, **record) -> None:
    """Write `content` to `path` by `write`, then the manifest next to it:
    command `name`, the resolved `vals` but the output prefix, `rows`, and
    the further fields `record` of ``io.write_manifest``."""
    write(path, content)
    io.write_manifest(io.manifest_path(path), name,
                      {k: v for k, v in vals.items() if k != "out"},
                      rows=rows, **record)


def _run_sweep(name: str, vals: dict) -> int:
    from . import experiments
    # a sphere sweep has no radius, and keeps the default
    config = experiments.SweepConfig(
        kind="sphere" if name == "sweep-sphere" else "disk",
        alpha=vals["alpha"], n_lo=vals["n_min"], n_hi=vals["n_max"],
        points=vals["points"], offset=vals["offset_const"],
        radius=vals.get("radius", experiments.SweepConfig.radius))
    if name == "normal-band":
        result = experiments.normal_band_check(config)
    elif vals.get("derivative"):
        result = experiments.normal_derivative_sweep(
            config, s=vals["s"], rho=vals["rho"])
    elif vals.get("rho1") is not None:      # a band: rho2 is set too
        from .weights import BandSpec
        result = experiments.sharpness_sweep(
            config, s=vals["s"], band=BandSpec(vals["rho1"], vals["rho2"]))
    else:
        result = experiments.amplitude_sweep(config)
    path = vals["out"] + ".csv"
    _write_outputs(path, io.write_sweep_csv, result, len(result.rows), name,
                   vals, skipped=result.skipped)
    print(f"wrote {path} ({len(result.rows)} rows, "
          f"{len(result.skipped)} skipped)")
    return _EXIT_OK


def _run_quasimode(name: str, vals: dict) -> int:
    from . import experiments
    result = experiments.quasimode_boundedness(
        lam_lo=vals["lam_min"], lam_hi=vals["lam_max"],
        windows=vals["windows"], trials=vals["trials"], seed=vals["seed"],
        s=vals["s"], rho=vals["rho"], radius=vals["radius"])
    path = vals["out"] + ".csv"
    _write_outputs(path, io.write_quasimode_csv, result, len(result.rows),
                   name, vals, seed=vals["seed"])
    print(f"wrote {path} ({len(result.rows)} windows, "
          f"max/min {result.spread:.3f})")
    return _EXIT_OK


def _read_columns(path: str, names) -> dict:
    """The table at `path`, which must have every column in `names`."""
    table = io.read_table(path)
    for col in names:
        if col not in table:
            raise _ConfigError(f"no column {col!r} in {path} "
                               f"(has: {', '.join(table)})")
    return table


def _run_fit(name: str, vals: dict) -> int:
    from .fit import fit_exponent
    table = _read_columns(vals["infile"], (vals["x"], vals["y"]))
    fit = fit_exponent(table[vals["x"]], table[vals["y"]],
                       drop_low=vals["drop_low"])
    print(json.dumps(fit._asdict(), sort_keys=True))
    return _EXIT_OK


def _run_plot(name: str, vals: dict) -> int:
    from . import svgplot
    svg_path = vals["out"] + ".svg"
    if os.path.realpath(io.manifest_path(svg_path)) == os.path.realpath(
            io.manifest_path(vals["infile"])):
        raise _ConfigError(f"plot: --out {vals['out']} would overwrite the "
                           f"manifest of --in {vals['infile']}")
    ys = vals["y"]
    table = _read_columns(vals["infile"], [vals["x"]] + ys)
    text = svgplot.render_log_log(
        table[vals["x"]], [(col, table[col]) for col in ys],
        xlabel=vals["x"], ylabel=", ".join(ys), title=vals["title"],
        drop_low=vals["drop_low"])
    _write_outputs(svg_path, io.write_text, text, len(table[vals["x"]]),
                   name, vals, input_hash=io.hash_file(vals["infile"]))
    print(f"wrote {svg_path}")
    return _EXIT_OK


def _run_selftest(name: str, vals: dict) -> int:
    from . import oracle     # no other command needs it
    try:
        report = oracle.run_all()
    except oracle.OracleError as exc:
        print(f"glancelab: oracle failure: {exc}", file=sys.stderr)
        return _EXIT_ORACLE
    doc = {
        "all_passed": report.all_passed,
        "elapsed_seconds": round(report.elapsed, 3),
        # a non-finite figure has failed its check; JSON has no NaN
        "checks": [{"name": c.name, "passed": c.passed,
                    "worst": c.worst if math.isfinite(c.worst) else None,
                    "detail": c.detail}
                   for c in report.checks],
    }
    print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))
    return _EXIT_OK if report.all_passed else _EXIT_ORACLE


# each runner takes the subcommand's name and its resolved values
_RUNNERS = {
    "sweep-disk": _run_sweep,
    "sweep-sphere": _run_sweep,
    "normal-band": _run_sweep,
    "quasimode": _run_quasimode,
    "fit": _run_fit,
    "plot": _run_plot,
    "selftest": _run_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_help()
            return _EXIT_CONFIG
        vals = _resolve(args, args.subcommand)
        return _RUNNERS[args.subcommand](args.subcommand, vals)
    except NumericalFailure as exc:
        print(f"glancelab: numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except (_ConfigError, ValueError, OSError) as exc:
        print(f"glancelab: error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
