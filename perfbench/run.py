"""Benchmark of loghls: certificates on the sphere and the plane, and the
critical-mass Keller-Segel flow.

    python3 perfbench/run.py --workload {sphere-certify,plane-certify,ks-flow}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; loghls is imported from its
``src`` directory.  Each workload is a closed loop: one worker process
runs one item at a time, in whole rounds, until S seconds have passed.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics (setup_s, items_per_s, item_s_p50, peak_rss_mb); with
``--trace 1`` it holds the per-layer metrics of a traced worker.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sphere-certify", "plane-certify", "ks-flow")
SETUP_SAMPLES = 3         # fresh processes timed to READY; setup_s is their median
WORKER_TIMEOUT_S = 150.0  # a worker that has not ended by then is killed
BLAS_THREADS = "1"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")       # only the checkout's loghls
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from spawn to READY, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode} before finishing")
    lines = rest.strip().splitlines()
    return setup_s, (None if setup_only else json.loads(lines[-1]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "loghls" / "__init__.py").is_file():
        print(f"error: no loghls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        setup_s, report = _worker(args, False, deadline)
        setups = [setup_s]
        if not args.trace:
            setups += [_worker(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("setup samples (s): " + " ".join(f"{t:.3f}" for t in setups), file=sys.stderr)
    times = report["times"]
    failures = report["failures"]
    for f in failures:
        print(f"failed item ({'named fault' if f['fault'] else 'UNEXPECTED'}): "
              f"{f['item']}: {', '.join(f['failed'])}", file=sys.stderr)
    if args.trace:
        for name in report["absent"]:
            print(f"absent layer (no longer in loghls): {name}", file=sys.stderr)
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in sorted(report["layers"].items())}
        metrics["proc.import_s"] = {"value": report["import_s"], "unit": "s"}
        metrics["bench.items_per_s"] = {"value": len(times) / sum(times), "unit": "1/s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "item_s_p50": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": all(f["fault"] for f in failures),
              "attempted": len(times), "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
