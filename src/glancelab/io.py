"""Deterministic file I/O: CSV tables, run manifests, config files.

This is the one module that writes files: tables, manifests and, through
`write_text`, the SVG text that ``glancelab.svgplot`` renders.

Every table is written with ``%.17g`` floats (round-trip exact for doubles),
LF line endings, and no timestamps, so identical runs produce byte-identical
files; the only timestamp lives in the run manifest written next to a table.
A table is read back as a dict of named columns, each a tuple of floats.  The
module runs on the standard library alone: the writers take the results of
``glancelab.experiments`` but never import it, so ``glancelab fit`` and
``glancelab plot`` read their tables without numpy.

Importing the module loads only what every caller needs.  ``hashlib``
(which loads OpenSSL), ``datetime`` and ``configparser`` are imported by
the functions that use them: `write_manifest`, `hash_file` and
`load_config`.  A run that writes CSV text alone, such as a sweep through
the Python API, ``fit`` or ``selftest``, loads neither hashlib nor
configparser.
"""

from __future__ import annotations

import json
import numbers
import os

# one row per selected mode; "b" is the glancing distance sigma of the trace
SWEEP_COLUMNS = ("n", "lambda", "h", "b", "xi_d", "amplitude",
                 "weighted_norm", "s", "alpha", "rho1", "rho2")

# one row per frequency window of a quasimode ensemble
QUASIMODE_COLUMNS = ("lambda", "dim", "weyl_estimate", "max_norm",
                     "mean_norm", "s", "rho", "trials", "seed")


def format_value(v) -> str:
    """Render one CSV cell: integers verbatim, floats round-trip exact."""
    if isinstance(v, numbers.Integral):     # numpy's integers included
        return str(int(v))
    return "%.17g" % float(v)


def write_text(path: str, text: str) -> None:
    """Write `text` to `path` with LF line endings on every platform."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def sweep_to_csv_text(result) -> str:
    """The CSV text of an ``experiments.SweepResult``, rows in field order."""
    lines = [",".join(SWEEP_COLUMNS)]
    for r in result.rows:
        lines.append(",".join(format_value(v) for v in r))
    return "\n".join(lines) + "\n"


def quasimode_to_csv_text(result) -> str:
    """The CSV text of an ``experiments.QuasimodeResult``."""
    lines = [",".join(QUASIMODE_COLUMNS)]
    for r in result.rows:
        lines.append(",".join(format_value(v) for v in (
            r.lam, r.dim, r.weyl_estimate, r.max_norm, r.mean_norm,
            result.spec.s, result.spec.rho, result.trials, result.seed)))
    return "\n".join(lines) + "\n"


def write_sweep_csv(path: str, result) -> None:
    write_text(path, sweep_to_csv_text(result))


def write_quasimode_csv(path: str, result) -> None:
    write_text(path, quasimode_to_csv_text(result))


def read_table(path: str) -> dict[str, tuple[float, ...]]:
    """Read a headed CSV of numeric columns, as written by this package:
    {name: column} in file order, each column a tuple of floats; a column
    named twice is a ValueError."""
    with open(path, newline="") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty table")
    names = tuple(s.strip() for s in lines[0].split(","))
    repeated = sorted({nm for nm in names if names.count(nm) > 1})
    if repeated:
        raise ValueError(f"{path}: repeated column {', '.join(repeated)}")
    rows = []
    for k, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(names):
            raise ValueError(f"{path}:{k}: expected {len(names)} cells, "
                             f"got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ValueError(f"{path}:{k}: non-numeric cell") from exc
    return {nm: tuple(row[j] for row in rows) for j, nm in enumerate(names)}


def write_manifest(path: str, command: str, config: dict, rows: int,
                   skipped=(), seed=None,
                   input_hash: str | None = None) -> None:
    """Run metadata written next to a table, as JSON.

    The resolved configuration recorded here is complete: replaying
    `command` with exactly these values reproduces the table byte-for-byte
    (the timestamp lives only in this file, never in the table).
    `input_hash` ties the record to its content: for table-consuming
    commands it hashes the input CSV, for sweeps the resolved config.
    `skipped` holds the (order, reason) pairs of a sweep's skipped rows;
    the record keeps their count as "skipped" and the pairs as
    "skipped_orders".
    """
    import datetime
    import hashlib

    from . import __version__
    config = {k: config[k] for k in sorted(config)}
    if input_hash is None:
        blob = json.dumps(config, sort_keys=True).encode()
        input_hash = "sha256:" + hashlib.sha256(blob).hexdigest()
    doc = {
        "command": command,
        "version": __version__,
        "config": config,
        "seed": seed,
        "rows": rows,
        "skipped": len(skipped),
        "skipped_orders": [[n, reason] for n, reason in skipped],
        "input_hash": input_hash,
        "written": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def hash_file(path: str) -> str:
    import hashlib
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def read_manifest(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def manifest_path(table_path: str) -> str:
    base, _ = os.path.splitext(table_path)
    return base + ".manifest.json"


def load_config(path: str) -> dict:
    """Read an INI config: {section: {key: value}} with string values.

    A [common] section applies to every subcommand; a section named after a
    subcommand overrides it.  Unknown keys are left for the CLI to reject.
    Values are taken literally: a ``%`` is a percent sign, not
    interpolation syntax.
    """
    import configparser
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return {sect: dict(parser.items(sect)) for sect in parser.sections()}


def config_for(config: dict, subcommand: str) -> dict:
    merged = dict(config.get("common", {}))
    merged.update(config.get(subcommand, {}))
    return merged
