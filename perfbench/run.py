"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_warm_paper --seed 1 \\
        --seconds 40 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``cold_warm_paper`` - ``repro experiment table3`` in fresh processes,
  cold from an empty cache directory, then warm on the one it filled.
* ``service_mix`` - a ``repro serve --jobs 2`` daemon answering a job mix
  drawn from ``--seed``, one job at a time on one connection.

Guarded times are normalised by a host reference task run around each
measured operation (``perfbench/hostspeed.py``).

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, and the
spans are written as Chrome trace-event JSON under ``.perfbench_out/``.
Human-readable lines (every metric by name and unit, the per-layer
self-time table, the configuration) come before it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import OUT_DIR, ROOT, SRC, WORK_DIR, config_record, fresh_dir  # noqa: E402

WORKLOADS = ("cold_warm_paper", "service_mix")

CACHE_STATE = {
    "cold_warm_paper": "cold runs: an empty cache directory each; warm runs: "
                       "the directory the preceding cold run filled",
    "service_mix": "empty cache directory and result store, filled by the "
                   "warm-up (one run and one wcet job per workload)",
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _finite(value: float) -> float:
    """JSON has no NaN: an unmeasured value (already counted failed) is 0."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def _stop_on_sigterm(signum: int, frame: object) -> None:
    # Raise, so the workloads' ``finally`` blocks stop their children.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _stop_on_sigterm)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    # A stray REPRO_* setting must not reach this process's own library
    # calls (verification) any more than it reaches the children.
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    spec = _spec()
    work = fresh_dir(WORK_DIR / f"{args.workload}-{os.getpid()}")
    # In-process verification compiles and simulates too; keep its codegen
    # cache with the run's other scratch state.
    os.environ["REPRO_CACHE_DIR"] = str(work / "verify-cache")
    out_dir = fresh_dir(
        OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    config = config_record(args.workload, args.seed, args.seconds,
                           CACHE_STATE[args.workload], scrubbed)
    print("# config " + json.dumps(config, sort_keys=True))
    if args.workload == "cold_warm_paper":
        import paper as workload
    else:
        import service_mix as workload
    try:
        result = workload.run(args.seed, args.seconds, bool(args.trace),
                              work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in result["metrics"].items():
        if not math.isfinite(value):  # e.g. no admit job completed
            result["errors"].append(f"{name}: no value measured")
            result["failed"] += 1
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in result.get("also", {}).items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {result['attempted']}  failed = {result['failed']}  "
          f"failed_frac = {result['failed'] / result['attempted']:.4f}")
    for error in result["errors"]:
        print(f"FAILED: {error}")
    for note in result["notes"]:
        print(f"note: {note}")

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = result["per_layer"]
        metrics = {
            name: {"value": _finite(layers.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        }
    else:
        metrics = {
            m["name"]: {"value": _finite(result["metrics"][m["name"]][0]),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps(
        {"config": config, "result": line, "summary": result["summary"],
         "errors": result["errors"],
         "per_layer_all": result.get("per_layer", {})},
        indent=1, sort_keys=True, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
