"""Regenerate reference.json: the seed-independent outputs of every
workload, and every column of the pinned-seed quasimode runs, which each
benchmark pass must reproduce to 1e-8 relative.

    python3 bench/freeze.py

Run it only in a change whose purpose is to move these outputs, and say so
in that change; a performance change must leave them alone.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import workloads as wl


def main() -> int:
    env, _threads = run.child_env()
    ledger = run.Ledger()
    until = time.monotonic() + run.HARD_LIMIT_S
    work = run.RUN_DIR / "freeze"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    disk = run.worker_pass("disk-sweep", 0, False, env, ledger, work, until)
    qm = run.worker_pass("quasimode", 0, False, env, ledger, work, until,
                         pinned=True)
    cli = run.cli_pass(0, False, env, ledger, work / "cli", until)
    if ledger.failed:
        print("\n".join(ledger.problems), file=sys.stderr)
        return 1

    def stable(text: str) -> dict:
        cols = wl.parse_csv(text)
        return {c: cols[c] for c in wl.QUASIMODE_STABLE}

    ref = {
        "disk-sweep": {label: wl.parse_csv(text)
                       for label, text in sorted(disk["csv"].items())},
        "quasimode": stable(qm["csv"]["quasimode"]),
        "quasimode-pinned": wl.parse_csv(qm["pinned"]),
        "cli": {name: wl.parse_csv(cli["outputs"][name])
                for name in ("sph.csv", "disk.csv", "qm.csv")},
    }
    (run.BENCH / "reference.json").write_text(json.dumps(ref) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
