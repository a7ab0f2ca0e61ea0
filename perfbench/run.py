"""nsrand benchmark: one seeded, answer-checked workload per run.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload exact-small --seed 1 --seconds 45 --trace 0

Workloads: ``exact-small`` (small exact answers with certificates) and
``tons-n3`` (three-round float guessing LPs); ``perfbench/README.md`` says
why each was chosen.  The library is imported from ``src/`` of the
checkout, so nothing has to be installed.

With ``--trace 0`` the run reports the end-to-end metrics of
``END_TO_END``; with ``--trace 1`` the per-layer metrics of
``tracing.PER_LAYER``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A full record
of the run (machine, versions, commit, seed, every instance) and the spans
of a traced run are written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-small", "tons-n3")

END_TO_END = {
    "setup_s": "s",         # median set-up time, spawn to ready
    "wall_s": "s",          # median time of one pass over the seeded list
    "instance_s.p50": "s",  # median time of an instance to a checked answer
    "peak_rss_mb": "MB",    # ru_maxrss of the workload process
}

# Fresh processes timed for set-up on top of the workload process itself;
# half are started before it and half after, so that one slow stretch of
# the machine does not hold every sample.
SETUP_ONLY_SAMPLES = 8
# A run must end within 180 s; the workload process is stopped before.
# The longest run is a traced tons-n3 run: one untraced and one traced
# pass, 82-105 s on a 2-vCPU Xeon VM (seeds 101 and 401).
DEADLINE_S = 175.0
# The tail percentile needs ten instances beyond it and must sit above
# the median.
TAIL_BEYOND = 10
TAIL_MIN_INSTANCES = 21


class BenchError(RuntimeError):
    """The run could not produce a result."""


def run_worker(argv: list[str], deadline: float) -> tuple[float, bytes]:
    """Run one workload process; return its set-up time and its output.

    Set-up is timed from spawning the process to its ``READY`` line.  The
    process is killed if it outlives the deadline, and always waited for.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, cwd=ROOT, bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(deadline - perf_counter(), 0))
        # Unbuffered, so readline takes nothing beyond the first line.
        line = proc.stdout.readline() if ready else b""
        setup = perf_counter() - start
        if line.strip() != b"READY":
            raise BenchError("workload process did not get ready")
        try:
            out, _ = proc.communicate(
                timeout=max(deadline - perf_counter(), 0))
        except subprocess.TimeoutExpired:
            raise BenchError("workload process ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return setup, out


def run_workload(args) -> tuple[dict, list[float]]:
    deadline = perf_counter() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []

    def time_setups(count: int) -> None:
        for _ in range(count):
            setups.append(run_worker(base + ["--setup-only"], deadline)[0])

    before = SETUP_ONLY_SAMPLES // 2
    if not args.trace:
        time_setups(before)
    argv = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        argv.append("--tiny")
    if args.trace:
        argv += ["--spans", str(args.out / f"spans-{args.tag}.jsonl")]
    setup, out = run_worker(argv, deadline)
    setups.append(setup)
    if not args.trace:
        time_setups(SETUP_ONLY_SAMPLES - before)
    for line in out.decode().splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):]), setups
    raise BenchError("workload process printed no result")


def tail(times: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with TAIL_BEYOND instances beyond it, if any."""
    n = len(times)
    if n < TAIL_MIN_INSTANCES:
        return None
    return (sorted(times)[n - TAIL_BEYOND - 1],
            100.0 * (n - TAIL_BEYOND) / n, n)


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE")
                        * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 2),
        "commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="one small pass, to check the plumbing")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nsrand" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'nsrand'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Turn a termination request into an exit that stops the worker first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args.out = ROOT / ".perfbench_out"
    args.out.mkdir(exist_ok=True)
    args.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        result, setups = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    untraced = [r for r in records if not r.get("traced")]
    failed = sum(r["error"] is not None for r in records)
    times = [r["s"] for r in untraced]
    env = environment(args.seed)
    extra = {"failed_frac": failed / len(records),
             "passes": len(result["walls"]),
             "instances": len(untraced)}
    tail_value = tail(times)
    if tail_value:
        extra["instance_s.tail"] = {"value": tail_value[0], "unit": "s",
                                    "percentile": tail_value[1],
                                    "instances": tail_value[2]}
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(result["walls"]),
                  "instance_s.p50": statistics.median(times),
                  "peak_rss_mb": result["maxrss_kb"] / 1024}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        shown = "MISSING (function not found)" if m["value"] is None \
            else f"{m['value']:.6g} {m['unit']}"
        print(f"{name:44s} {shown}")
    if tail_value:
        print(f"{'instance_s.tail':44s} {tail_value[0]:.6g} s "
              f"(p{tail_value[1]:.1f} of {tail_value[2]} instances)")
    print(f"{'failed_frac':44s} {extra['failed_frac']:.6g} "
          f"({failed} of {len(records)})")
    print(f"{'passes':44s} {extra['passes']} "
          f"({len(untraced)} instances untraced)")

    line = {"correct": failed == 0, "attempted": len(records),
            "failed": failed, "metrics": metrics}
    with open(args.out / f"result-{args.tag}.json", "w") as fh:
        json.dump({"environment": env, "args": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny},
            "setup_samples_s": setups, "pass_walls_s": result["walls"],
            "extra": extra, "result": line, "instances": records}, fh, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
