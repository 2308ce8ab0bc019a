"""Run ``repro.cli.main`` with spans around each layer's entry points.

Usage (from the repository root, ``PYTHONPATH=src``)::

    python perfbench/traced_child.py OUT.json SPAWN_TIME experiment table3

``SPAWN_TIME`` is the parent's monotonic clock when it started this
process, so the interpreter's own start-up shows as a ``python.start``
span.  The spans and the exit code are written to ``OUT.json`` once
``main`` returns; nothing is written while the command runs.  The last
stderr line gives the time the write ended, from which the parent times
interpreter teardown (``python.exit``).
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Recorder, clock  # noqa: E402

#: Marker of the stderr line that carries the time the spans were written.
DUMPED = "perfbench-spans-written"

#: Modules the command loads lazily; imported up front so their entry
#: points can be wrapped before ``main`` runs.
LIBRARY_MODULES = (
    "repro.experiments.common",
    "repro.experiments.table3",
    "repro.experiments.figure2",
    "repro.isa.blockjit",
    "repro.pipelines.inorder",
    "repro.pipelines.ooo.core",
    "repro.power.report",
    "repro.snapshot.runcache",
    "repro.snapshot.warmup",
    "repro.visa.runtime",
    "repro.visa.spec",
    "repro.wcet.analyzer",
    "repro.wcet.dcache_pad",
)


def _inst_probe(core: Any, *args: Any, **kwargs: Any) -> Callable[[Any], dict]:
    start = core.state.instret
    return lambda result: {"inst": core.state.instret - start}


def _runs_probe(*args: Any, **kwargs: Any) -> Callable[[Any], dict]:
    return lambda runs: {"instances": len(runs)}


def _load_probe(*args: Any, **kwargs: Any) -> Callable[[Any], dict]:
    return lambda runs: {"hit": runs is not None}


def _codegen_probe(*args: Any, **kwargs: Any) -> Callable[[Any], dict]:
    from repro.snapshot.runcache import STATS

    hits, misses = STATS["blockjit_hits"], STATS["blockjit_misses"]

    def finish(table: Any) -> dict:
        disk_hits = STATS["blockjit_hits"] - hits
        disk_misses = STATS["blockjit_misses"] - misses
        return {
            "built": bool(disk_hits or disk_misses),
            "disk_hit": bool(disk_hits),
        }

    return finish


#: (span name, module, attribute path, probe) for every wrapped entry point.
TARGETS: tuple[tuple[str, str, str, Any], ...] = (
    ("minicc.compile", "repro.minicc.driver", "compile_source", None),
    ("isa.assemble", "repro.isa.assembler", "assemble", None),
    ("isa.codegen", "repro.isa.blockjit", "block_table", _codegen_probe),
    ("wcet.analyzer", "repro.visa.spec", "VISASpec.analyzer", None),
    ("wcet.analyze", "repro.wcet.analyzer", "WCETAnalyzer.analyze", None),
    ("wcet.calibrate", "repro.wcet.dcache_pad", "calibrate_dcache_bounds",
     None),
    ("pipelines.inorder", "repro.pipelines.inorder", "InOrderCore.run",
     _inst_probe),
    ("pipelines.ooo", "repro.pipelines.ooo.core", "ComplexCore.run",
     _inst_probe),
    ("visa.runtime", "repro.visa.runtime", "VISARuntime.run", _runs_probe),
    ("visa.runtime", "repro.visa.runtime", "VISARuntime.run_span",
     _runs_probe),
    ("visa.runtime", "repro.visa.runtime", "SimpleFixedRuntime.run",
     _runs_probe),
    ("visa.runtime", "repro.visa.runtime", "SimpleFixedRuntime.run_span",
     _runs_probe),
    ("experiments.setup", "repro.experiments.common", "setup", None),
    ("experiments.run_pair", "repro.experiments.common", "run_pair", None),
    ("snapshot.load_runs", "repro.snapshot.runcache", "load_runs",
     _load_probe),
    ("snapshot.store_runs", "repro.snapshot.runcache", "store_runs", None),
    ("snapshot.warm_runtime", "repro.snapshot.warmup", "warm_runtime", None),
    ("power.energy", "repro.power.report", "energy_of_runs", None),
)


def install(recorder: Recorder) -> None:
    """Wrap every target, in its own module and wherever it was imported."""
    for name, module_name, path, probe in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original, probe)
        setattr(owner, attr, wrapped)
        if outer:  # a method: the class attribute is the only reference
            continue
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)


def main(argv: list[str]) -> int:
    out_path, spawned, *command = argv
    recorder = Recorder()
    with recorder.span("python.start", start=float(spawned)):
        pass
    with recorder.span("cli.import"):
        import repro.cli
    with recorder.span("lib.import"):
        for module_name in LIBRARY_MODULES:
            importlib.import_module(module_name)
    install(recorder)
    # No span around main itself: what no layer covers is "unaccounted".
    code = repro.cli.main(command)
    dump_start = clock()
    Path(out_path).write_text(
        json.dumps(
            {"spans": recorder.spans, "code": code, "dump_start": dump_start}
        )
    )
    # The parent times interpreter teardown from this line on.
    print(f"{DUMPED} {clock()!r}", file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
