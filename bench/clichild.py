"""Run one glancelab CLI command with the tracer installed.

The traced cli workload runs each command through this script in a fresh
interpreter: it installs the wrappers, calls ``glancelab.cli.main(argv)``,
writes the spans, and exits with the command's status.

    PYTHONPATH=src python3 bench/clichild.py --spans fit.tsv --request fit \
        -- fit --in run.csv --x n --y amplitude
"""

from __future__ import annotations

import argparse
import sys

import glancelab.cli

import tracer as tracing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True)
    ap.add_argument("--request", required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tr = tracing.Tracer()
    tr.install()
    tr.request = args.request
    try:
        code = glancelab.cli.main(argv)
    finally:
        tr.uninstall()
        tracing.write_spans(args.spans, tr.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
