"""One timed pass of the disk-sweep or quasimode workload.

Each pass runs in a fresh interpreter, so nothing the program caches
outlives it, as for a user who runs one experiment.  The pass prints one
JSON object on stdout: the monotonic clock reading when set-up finished
(the orchestrator subtracts its spawn time to get the set-up time), the
timings, the CSV text of every result, the fitted slopes, and with
``--trace 1`` the per-layer metrics of `tracer.layer_metrics`.  With
``--pinned``, a quasimode pass then runs `workloads.QUASIMODE_PINNED`,
untimed and untraced, whose every column is checked against the frozen
reference.

    PYTHONPATH=src python3 bench/worker.py --workload quasimode --seed 1 \
        --trace 0 --spans spans.tsv --pinned
"""

from __future__ import annotations

import argparse
import json
import random
import time
import traceback

import glancelab
from glancelab import experiments, io
from glancelab.weights import BandSpec

import tracer as tracing
import workloads as wl


def _disk_sweep(seed: int, tr) -> dict:
    order = list(wl.SWEEPS)
    random.Random(seed).shuffle(order)
    configs = [experiments.SweepConfig(kind="disk", alpha=sw["alpha"],
                                       **wl.GRID) for sw in order]
    out = dict(ready=time.monotonic(), cmd_s={}, csv={}, slopes={},
               errors={}, rows=0, rows_skipped=0)
    t_pass = time.perf_counter()
    for sw, config in zip(order, configs):
        kwargs = dict(sw["kwargs"])
        if "band" in kwargs:
            kwargs["band"] = BandSpec(*kwargs["band"])
        if tr is not None:
            tr.request = sw["label"]
        t = time.perf_counter()
        try:
            res = getattr(experiments, sw["fn"])(config, **kwargs)
            fit = experiments.fit_exponent(res.column(sw["x"]),
                                           res.column(sw["y"]))
        except Exception:   # reported and counted as a failed operation
            out["errors"][sw["label"]] = traceback.format_exc(limit=3)
            continue
        out["cmd_s"][sw["label"]] = time.perf_counter() - t
        out["slopes"][sw["label"]] = fit.slope
        out["csv"][sw["label"]] = res
        out["rows"] += len(res.rows)
        out["rows_skipped"] += len(res.skipped)
    out["wall_s"] = time.perf_counter() - t_pass
    out["modes"] = out["rows"]
    return out


def _quasimode(seed: int, tr) -> dict:
    out = dict(ready=time.monotonic(), cmd_s={}, csv={}, errors={}, rows=0,
               rows_skipped=0, modes=0)
    if tr is not None:
        tr.request = "quasimode"
    t_pass = time.perf_counter()
    try:
        res = experiments.quasimode_boundedness(seed=seed, **wl.QUASIMODE)
    except Exception:       # reported and counted as a failed operation
        out["errors"]["quasimode"] = traceback.format_exc(limit=3)
    else:
        out["cmd_s"]["quasimode"] = time.perf_counter() - t_pass
        out["spread"] = res.spread
        out["csv"]["quasimode"] = res
        out["rows"] = len(res.rows)
        # coefficient slots: a mode of angular order n >= 1 counts twice
        out["modes"] = sum(r.dim for r in res.rows)
    out["wall_s"] = time.perf_counter() - t_pass
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("disk-sweep", "quasimode"),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", required=True,
                    help="where a traced pass writes its spans")
    ap.add_argument("--pinned", action="store_true",
                    help="quasimode: also run the pinned-seed check")
    args = ap.parse_args()

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
    run = _disk_sweep if args.workload == "disk-sweep" else _quasimode
    out = run(args.seed, tr)
    if tr is not None:
        tr.uninstall()
        out["layers"] = tracing.layer_metrics(tr.spans)
        tracing.write_spans(args.spans, tr.spans)
    to_text = (io.sweep_to_csv_text if args.workload == "disk-sweep"
               else io.quasimode_to_csv_text)
    out["csv"] = {k: to_text(v) for k, v in out["csv"].items()}
    if args.pinned:
        try:
            res = experiments.quasimode_boundedness(**wl.QUASIMODE_PINNED)
        except Exception:   # reported and counted as a failed operation
            out["errors"]["pinned"] = traceback.format_exc(limit=3)
        else:
            out["pinned"] = io.quasimode_to_csv_text(res)
    out["glancelab_file"] = glancelab.__file__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
