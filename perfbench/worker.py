"""Workload process of the benchmark: set up once, then run seeded passes.

Started by ``run.py``, one process per run, one instance at a time (closed
loop, a single client, no threads).  It prints ``READY`` as soon as set-up
is done (imports, bundled data, the seeded instance lists); ``run.py``
times set-up from spawning the process to that line.  Unless
``--setup-only`` is given it then runs passes and prints one line
``RESULT <json>``.

A new pass starts only while the elapsed time plus the median pass time
still fits in ``--seconds``; the first pass always runs, so a run takes at
least one whole pass.  With ``--trace 1`` every pass runs twice, untraced
and then traced, so that the tracing overhead is measured in the run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import scipy.optimize  # noqa: E402,F401  (set-up cost every LP user pays)

import nsrand  # noqa: E402,F401
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, generate, load, run_instance  # noqa: E402

# More passes than any run of at most 60 s reaches.
MAX_PASSES = 64


def run_pass(ctx, items, pass_no: int, tracer: Tracer | None = None
             ) -> tuple[float, list[dict]]:
    """Run one instance list; every instance is timed to a checked answer."""
    records = []
    start = perf_counter()
    for i, inst in enumerate(items):
        if tracer is not None:
            tracer.instance = f"{pass_no}:{i}"
        t0 = perf_counter()
        try:
            error = run_instance(ctx, inst)
        except Exception as exc:  # a failed instance is counted; the run goes on
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        records.append({"pass": pass_no, "instance": inst.label(),
                        "kind": inst.kind, "s": perf_counter() - t0,
                        "error": error})
        if error is not None:
            print(f"FAILED {inst.label()}: {error}", file=sys.stderr)
    return perf_counter() - start, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file the traced spans are written to")
    args = ap.parse_args(argv)

    ctx = load(args.workload)
    lists = generate(args.workload, args.seed, MAX_PASSES, args.tiny)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    walls, traced_walls, records, costs = [], [], [], []
    start = perf_counter()
    for p, items in enumerate(lists):
        wall, recs = run_pass(ctx, items, p)
        walls.append(wall)
        records += recs
        cost = wall
        if tracer is not None:
            with tracer.installed():
                traced, recs = run_pass(ctx, items, p, tracer)
            traced_walls.append(traced)
            records += [dict(r, traced=True) for r in recs]
            cost += traced
        costs.append(cost)
        elapsed = perf_counter() - start
        if args.tiny or elapsed + statistics.median(costs) > args.seconds:
            break

    result = {"walls": walls, "records": records,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracer.metrics(len(traced_walls), sum(traced_walls),
                                          sum(walls))
        result["missing"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
