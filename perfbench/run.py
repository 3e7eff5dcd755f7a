"""wcdscan benchmark: scan, crawl and report workloads against the cache lab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload matrix-scan --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing in place;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer split instead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Its timings are
scaled to a reference host speed (see ``workloads.calibration_s``); the
lines before it give the run's metadata, the workload's own rates by name
and unit, and the unscaled timings. The run exits 1 when a correctness gate
fails and 2 when the source tree is missing. ``--smoke`` shrinks every
workload to its smallest inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

E2E_UNITS = {"setup_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MB"}

WORKLOAD_NAMES = ("matrix-scan", "large-page-scan", "sitemap-crawl", "report-roundtrip")


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.startswith("lab.event.") or name in (
        "detector.vulnerable", "crawler.pages_seen", "crawler.groups", "lab.requests"
    ):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms_per_request"):
        return "ms"
    if name == "http_engine.bytes_received":
        return "bytes"
    return "ratio"


def _metadata(args) -> dict:
    import requests

    from workloads import RATE, WORKERS

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "requests": requests.__version__,
        "workers": WORKERS,
        "rate": RATE,
        "environ": len(os.environ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit so that cleanup stops the lab child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "wcdscan" / "__init__.py").is_file():
        print(f"error: no wcdscan source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    spec = workloads.RunSpec(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        sizes=(workloads.SMOKE_SIZES if args.smoke else workloads.SIZES)[args.workload],
        work_dir=WORK_DIR,
        src_dir=SRC,
    )
    print("meta " + json.dumps(_metadata(args)))
    outcome = workloads.WORKLOADS[args.workload](spec)
    print("rounds " + " ".join(f"{rate:.6g}" for rate in outcome.round_rates))
    for name, value in outcome.named.items():
        print(f"metric {name} {value:.6g} {workloads.NAMED_UNITS[name]}")
    for name, value in outcome.raw.items():
        print(f"raw {name} {value:.6g}")
    # Which layers hold the traced time: each span's self time over the sum.
    self_times = {
        k[: -len(".self_s")]: v for k, v in outcome.layers.items() if k.endswith(".self_s")
    }
    traced_total = sum(self_times.values())
    for name, value in sorted(self_times.items(), key=lambda kv: -kv[1])[:4]:
        print(f"self-share {name} {value / traced_total:.3f}")
    for problem in outcome.problems[:50]:
        print(f"FAIL {problem}")

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in outcome.layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in outcome.e2e.items()}
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
