"""Interpreter throughput benchmark: simulated instructions/second.

Measures the specialized fast loops (``run``) and the reference loops
(``run_reference``) on both cores, block-JIT codegen cost per table,
one tiny figure2 experiment cell, and
the run-level result cache + warm-up prefix forking (cold vs. cached cell
wall-clock; cold vs. forked simulated-instance counts), and writes
``BENCH_speed.json`` at the repository root.  The JSON records the
pre-specialization baseline throughput (measured on this host before the
fast path landed) so the speedup the PR claims stays checkable, plus the
effective worker count (``REPRO_JOBS``) and per-phase wall times.

Usage::

    PYTHONPATH=src python benchmarks/bench_speed.py          # full run
    PYTHONPATH=src python benchmarks/bench_speed.py --smoke  # CI-sized

This is a plain script, not a pytest-benchmark module (the ``bench_*``
pytest modules regenerate paper tables; this one times the simulator
itself).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Throughput of the interpreter before this PR's fast path (same host
#: class, ``cnt`` @ tiny, measured at the pre-PR commit).  The acceptance
#: bar is >= 3x on the in-order core relative to this.
BASELINE = {
    "inorder": {"inst_per_s": 148_059, "cyc_per_s": 312_960},
    "ooo": {"inst_per_s": 231_726, "cyc_per_s": 296_750},
}

#: ``measured.<core>.fast`` throughput before the block JIT landed (same
#: host class, ``cnt`` @ tiny, measured at the pre-blockjit commit).  The
#: acceptance bar is >= 2x on the in-order core relative to this.
BASELINE_PRE_JIT = {
    "inorder": {"inst_per_s": 1_078_901},
    "ooo": {"inst_per_s": 616_141},
}

#: ``measured.blockjit.<core>.jit`` throughput before the trace tier
#: landed (same host class, ``cnt`` @ tiny, recorded at the PR 5
#: commit).  The trace tier's gain is reported relative to this *and*
#: to the block tier re-measured on the current host, since host speed
#: drifts between recordings.
BASELINE_BLOCK_TIER = {
    "inorder": {"inst_per_s": 2_716_703},
    "ooo": {"inst_per_s": 1_243_234},
}

#: Complex-core block-tier throughput under the original ``scan``
#: scheduler (``cnt`` @ tiny, recorded on the measurement host at the
#: event-engine PR's commit).  The event scheduler must never regress
#: below this recorded scan baseline; its target is >= 2x.
BASELINE_OOO_SCAN = {"block": {"inst_per_s": 853_793}}


def _host_section(jit: bool | None = None) -> dict:
    """Per-section host facts: CPUs, effective workers, and the JIT flag.

    Recorded in *every* measured section (not just once at top level) so
    a section copied out of the JSON stays self-describing.
    """
    from repro.experiments.parallel import default_jobs
    from repro.isa import blockjit

    return {
        "cpus": os.cpu_count(),
        "effective_workers": default_jobs(),
        "jit": blockjit.jit_enabled() if jit is None else jit,
    }


def _measure_core(
    core_kind: str,
    method: str,
    min_seconds: float,
    jit: bool | None = None,
    tier: str | None = None,
    warmup_runs: int = 0,
) -> dict:
    """Simulated inst/s and cyc/s for repeated warm task instances.

    ``warmup_runs`` instances run before the clock starts; the trace
    tier compiles its superblocks during the first few dozen instances
    (hot-count profiling plus stitch/peephole/``compile()``), and the
    steady state — what a long experiment actually sees — is only
    reached once that one-time codegen has quiesced.
    """
    from repro.isa import blockjit
    from repro.pipelines.inorder import InOrderCore
    from repro.pipelines.ooo.core import ComplexCore
    from repro.visa.spec import VISASpec
    from repro.workloads import get_workload

    workload = get_workload("cnt", "tiny")
    program = workload.program
    machine = VISASpec().machine(program)
    core_cls = InOrderCore if core_kind == "inorder" else ComplexCore
    core = core_cls(machine, freq_hz=1e9)
    run = getattr(core, method)

    def one_instance(seed: int) -> tuple[int, int]:
        inputs = workload.generate_inputs(seed)
        workload.apply_inputs(machine, inputs)
        core.state.pc = program.entry
        core.state.halted = False
        if hasattr(core, "drain"):
            core.drain()
        c0, i0 = core.state.now, core.state.instret
        result = run()
        assert result.reason == "halt"
        return core.state.instret - i0, result.end_cycle - c0

    def trace_count() -> int:
        return sum(
            len(t.traces_meta) for t in program._blockjit_tables.values()
        )

    instructions = cycles = 0
    seed = 0
    override = (
        blockjit.tier_override(tier)
        if tier is not None
        else blockjit.jit_override(jit)
    )
    with override:
        for _ in range(warmup_runs):
            one_instance(seed)
            seed += 1
        if warmup_runs:
            # Run on until trace formation quiesces: a compile landing
            # inside the timed window would charge one-time codegen to
            # steady-state throughput.
            stable, prev = 0, trace_count()
            while stable < 20 and seed < warmup_runs + 400:
                one_instance(seed)
                seed += 1
                current = trace_count()
                stable = stable + 1 if current == prev else 0
                prev = current
        measured = 0
        start = time.perf_counter()
        while True:
            di, dc = one_instance(seed)
            instructions += di
            cycles += dc
            seed += 1
            measured += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
    return {
        "inst_per_s": round(instructions / elapsed),
        "cyc_per_s": round(cycles / elapsed),
        "instances": measured,
        "warmup_runs": warmup_runs,
        "wall_seconds": round(elapsed, 3),
    }


def _measure_blockjit(min_seconds: float) -> dict:
    """Block-JIT throughput (on vs off, both cores) and codegen-cache
    cold-vs-warm build times, in a throwaway ``REPRO_CACHE_DIR``."""
    import shutil
    import tempfile

    from repro.isa import blockjit
    from repro.pipelines.ooo.core import OOOParams
    from repro.visa.spec import VISASpec
    from repro.workloads import get_workload

    saved = os.environ.get("REPRO_CACHE_DIR")
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-blockjit-")
    os.environ["REPRO_CACHE_DIR"] = tmpdir
    try:
        workload = get_workload("cnt", "tiny")
        machine = VISASpec().machine(workload.program)
        section: dict = {"host": _host_section(True)}

        # Codegen cache: cold (compile + store) vs warm (load from disk).
        # The per-program memo is cleared between timings so the warm pass
        # actually exercises the disk path.
        codegen = {}
        for engine, params in (("inorder", None), ("ooo", OOOParams())):
            workload.program._blockjit_tables.clear()
            start = time.perf_counter()
            blockjit.block_table(machine, engine, params)
            cold_s = time.perf_counter() - start
            workload.program._blockjit_tables.clear()
            start = time.perf_counter()
            blockjit.block_table(machine, engine, params)
            warm_s = time.perf_counter() - start
            codegen[engine] = {
                "cold_seconds": round(cold_s, 4),
                "warm_seconds": round(warm_s, 4),
                "warm_speedup": round(cold_s / warm_s, 1),
            }
        section["codegen_cache"] = codegen

        for core_kind in ("inorder", "ooo"):
            jit_on = _measure_core(
                core_kind, "run", min_seconds, tier="block", warmup_runs=5
            )
            jit_off = _measure_core(core_kind, "run", min_seconds, jit=False)
            base = BASELINE_PRE_JIT[core_kind]["inst_per_s"]
            section[core_kind] = {
                "jit": jit_on,
                "nojit": jit_off,
                "speedup_vs_nojit": round(
                    jit_on["inst_per_s"] / jit_off["inst_per_s"], 2
                ),
                "speedup_vs_pre_jit_baseline": round(
                    jit_on["inst_per_s"] / base, 2
                ),
            }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    return section


def _measure_codegen() -> dict:
    """Block-JIT codegen cost per (workload, engine) table: the twelve
    tables a cold Table 3 builds, in a throwaway ``REPRO_CACHE_DIR``.

    Per table: compile units, generated source bytes, emit and
    ``compile()`` seconds of the cold build, the bytes of its cache blob,
    and the warm load (in-process memo dropped, blob read back) with the
    number of units that load had to compile (always 0).
    """
    import shutil
    import tempfile

    from repro.isa import blockjit
    from repro.pipelines.ooo.core import OOOParams
    from repro.visa.spec import VISASpec
    from repro.workloads import WORKLOAD_NAMES, get_workload

    saved = os.environ.get("REPRO_CACHE_DIR")
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-codegen-")
    os.environ["REPRO_CACHE_DIR"] = tmpdir
    real_emit = blockjit._emit_block
    real_compile = blockjit._compile_unit
    tally = {"source_bytes": 0, "emit_s": 0.0, "compile_s": 0.0, "units": 0}

    def emit(*args, **kwargs):
        start = time.perf_counter()
        source = real_emit(*args, **kwargs)
        tally["emit_s"] += time.perf_counter() - start
        tally["source_bytes"] += len(source)
        return source

    def compile_unit(*args, **kwargs):
        start = time.perf_counter()
        code = real_compile(*args, **kwargs)
        tally["compile_s"] += time.perf_counter() - start
        tally["units"] += 1
        return code

    blockjit._emit_block = emit
    blockjit._compile_unit = compile_unit
    tables: dict = {}
    try:
        for name in WORKLOAD_NAMES:
            program = get_workload(name, "tiny").program
            machine = VISASpec().machine(program)
            for engine, params in (("inorder", None), ("ooo", OOOParams())):
                for key in tally:
                    tally[key] = 0
                program._blockjit_tables.clear()
                table = blockjit.block_table(machine, engine, params)
                cold = dict(tally)
                path = blockjit._disk_path(engine, table.disk_key)
                tally["units"] = 0
                program._blockjit_tables.clear()
                start = time.perf_counter()
                blockjit.block_table(machine, engine, params)
                warm_s = time.perf_counter() - start
                tables[f"{name}/{engine}"] = {
                    "units": cold["units"],
                    "source_bytes": cold["source_bytes"],
                    "emit_seconds": round(cold["emit_s"], 4),
                    "compile_seconds": round(cold["compile_s"], 4),
                    "cache_bytes": path.stat().st_size,
                    "warm_load_seconds": round(warm_s, 4),
                    "warm_compiles": tally["units"],
                }
    finally:
        blockjit._emit_block = real_emit
        blockjit._compile_unit = real_compile
        shutil.rmtree(tmpdir, ignore_errors=True)
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    totals = {
        field: sum(t[field] for t in tables.values())
        for field in (
            "units", "source_bytes", "emit_seconds", "compile_seconds",
            "cache_bytes", "warm_load_seconds", "warm_compiles",
        )
    }
    for field in ("emit_seconds", "compile_seconds", "warm_load_seconds"):
        totals[field] = round(totals[field], 4)
    return {"host": _host_section(True), "tables": tables, "total": totals}


def _measure_tracejit(min_seconds: float) -> dict:
    """Trace-tier throughput vs the block tier, trace-formation stats,
    and cold/warm trace-codegen wall time, in a throwaway cache dir.

    "Cold" times one full run against an empty cache (profile, stitch,
    peephole, compile, persist); "warm" re-runs after dropping only the
    in-process memo, so the traces reload from disk the way a fresh
    worker process would see them.
    """
    import shutil
    import tempfile

    from repro.isa import blockjit
    from repro.pipelines.inorder import InOrderCore
    from repro.pipelines.ooo.core import ComplexCore
    from repro.visa.spec import VISASpec
    from repro.workloads import get_workload

    saved = os.environ.get("REPRO_CACHE_DIR")
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-tracejit-")
    os.environ["REPRO_CACHE_DIR"] = tmpdir
    try:
        workload = get_workload("cnt", "tiny")
        program = workload.program
        section: dict = {"host": _host_section(True)}

        codegen = {}
        for core_kind, core_cls in (
            ("inorder", InOrderCore), ("ooo", ComplexCore),
        ):
            times = []
            for _pass in ("cold", "warm"):
                program._blockjit_tables.clear()
                machine = VISASpec().machine(program)
                core = core_cls(machine, freq_hz=1e9)
                with blockjit.tier_override("trace"):
                    start = time.perf_counter()
                    core.run()
                    times.append(time.perf_counter() - start)
            codegen[core_kind] = {
                "cold_seconds": round(times[0], 4),
                "warm_seconds": round(times[1], 4),
                "warm_speedup": round(times[0] / times[1], 1),
            }
        section["codegen_cache"] = codegen

        for core_kind in ("inorder", "ooo"):
            program._blockjit_tables.clear()
            block = _measure_core(
                core_kind, "run", min_seconds, tier="block", warmup_runs=5
            )
            program._blockjit_tables.clear()
            trace = _measure_core(
                core_kind, "run", min_seconds, tier="trace", warmup_runs=60
            )
            summary = {
                "traces": 0, "mean_blocks": 0.0, "mean_insts": 0.0,
                "calls": 0, "side_exits": 0, "side_exit_rate": 0.0,
                "trace_completions": 0, "side_exit_pc": {},
            }
            for table in program._blockjit_tables.values():
                if table.tier == "trace" and table.engine == core_kind:
                    summary = table.trace_summary()
            base = BASELINE_BLOCK_TIER[core_kind]["inst_per_s"]
            section[core_kind] = {
                "trace": trace,
                "block": block,
                "trace_stats": summary,
                "speedup_vs_block_tier": round(
                    trace["inst_per_s"] / block["inst_per_s"], 2
                ),
                "speedup_vs_recorded_block_tier": round(
                    trace["inst_per_s"] / base, 2
                ),
            }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    return section


def _measure_ooo_event(min_seconds: float) -> dict:
    """Scan-vs-event complex-core throughput and event metadata-cache
    cold/warm build times, in a throwaway ``REPRO_CACHE_DIR``.

    The event scheduler is measured on both execution paths: the block
    tier (event codegen — rings, commit frontier, inlined predictors)
    and the pure interpreter (``event.py``).  The scan numbers are
    re-measured on the same host in the same run, so the event-vs-scan
    ratio is host-drift-free; the recorded ``BASELINE_OOO_SCAN`` pins
    the absolute floor the event engine must clear.
    """
    import shutil
    import tempfile

    from repro.isa import blockjit
    from repro.pipelines.ooo.core import OOOParams
    from repro.pipelines.ooo.sched import sched_override
    from repro.visa.spec import VISASpec
    from repro.workloads import get_workload

    saved = os.environ.get("REPRO_CACHE_DIR")
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-oooevent-")
    os.environ["REPRO_CACHE_DIR"] = tmpdir
    try:
        workload = get_workload("cnt", "tiny")
        program = workload.program
        machine = VISASpec().machine(program)
        section: dict = {"host": _host_section(True)}

        # Event metadata + codegen cache: the event scheduler's
        # per-instruction dependency/resource metadata is baked into the
        # generated code and persisted alongside it (same program
        # digest, ``sched: event`` key), so cold = analyze + compile +
        # store and warm = one disk load.
        codegen = {}
        for sched in ("scan", "event"):
            with sched_override(sched):
                program._blockjit_tables.clear()
                start = time.perf_counter()
                blockjit.block_table(machine, "ooo", OOOParams())
                cold_s = time.perf_counter() - start
                program._blockjit_tables.clear()
                start = time.perf_counter()
                blockjit.block_table(machine, "ooo", OOOParams())
                warm_s = time.perf_counter() - start
            codegen[sched] = {
                "cold_seconds": round(cold_s, 4),
                "warm_seconds": round(warm_s, 4),
                "warm_speedup": round(cold_s / warm_s, 1),
            }
        section["codegen_cache"] = codegen

        for path, kwargs in (
            ("block", {"tier": "block", "warmup_runs": 5}),
            ("interp", {"jit": False}),
        ):
            measured = {}
            for sched in ("scan", "event"):
                program._blockjit_tables.clear()
                with sched_override(sched):
                    measured[sched] = _measure_core(
                        "ooo", "run", min_seconds, **kwargs
                    )
            measured["event_vs_scan"] = round(
                measured["event"]["inst_per_s"]
                / measured["scan"]["inst_per_s"], 2
            )
            section[path] = measured
        base = BASELINE_OOO_SCAN["block"]["inst_per_s"]
        section["block"]["event_vs_recorded_scan"] = round(
            section["block"]["event"]["inst_per_s"] / base, 2
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if saved is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = saved
    return section


def _measure_figure2_cell(instances: int) -> dict:
    """Wall-clock for one tiny figure2 cell through the experiment path."""
    from repro.experiments.figure2 import _cell

    start = time.perf_counter()
    row = _cell(("cnt", "T", "tiny", instances))
    elapsed = time.perf_counter() - start
    return {
        "bench": row.name,
        "instances": instances,
        "wall_seconds": round(elapsed, 3),
        "savings": round(row.savings, 4),
    }


def _measure_run_cache(instances: int) -> dict:
    """Cold vs. cached cell wall-clock and cold vs. forked instance counts.

    Runs in a throwaway ``REPRO_CACHE_DIR`` so the measurement never reads
    (or pollutes) a developer's real cache.  The forked sweep disables the
    disk caches entirely (``REPRO_NO_CACHE=1``): it measures the work
    restructuring, which must stand on its own, not ride on a cache hit.
    """
    import shutil
    import tempfile

    from repro.experiments import common
    from repro.experiments.common import (
        flush_set, flush_window_start, run_pair, setup,
    )
    from repro.snapshot import warmup
    from repro.visa import runtime as rtmod

    saved = {
        k: os.environ.get(k) for k in ("REPRO_CACHE_DIR", "REPRO_NO_CACHE")
    }
    tmpdir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    os.environ["REPRO_CACHE_DIR"] = tmpdir
    os.environ.pop("REPRO_NO_CACHE", None)
    try:
        common.setup.cache_clear()
        prep = setup("cnt", "tiny")

        # -- whole-run memoization: identical cell, cold then cached ------
        start = time.perf_counter()
        cold = run_pair(prep, prep.deadline_tight, instances)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        cached = run_pair(prep, prep.deadline_tight, instances)
        cached_s = time.perf_counter() - start
        assert cached.visa_runs == cold.visa_runs
        assert cached.simple_runs == cold.simple_runs
        assert cached.visa_rt is None  # served from the run cache

        # -- warm-up prefix forking: figure4-style flush-rate sweep -------
        os.environ["REPRO_NO_CACHE"] = "1"
        rates = (0.0, 0.1, 0.2, 0.3)
        warm = flush_window_start(instances)

        def sweep(warm_start):
            rtmod.SIM_COUNTS.clear()
            warmup.clear_memory_cache()
            rows = [
                run_pair(
                    prep, prep.deadline_tight, instances,
                    flush_instances=flush_set(instances, rate),
                    warm_start=warm_start,
                )
                for rate in rates
            ]
            savings = [round(pair.savings(standby=False), 12) for pair in rows]
            return dict(rtmod.SIM_COUNTS), savings

        cold_counts, cold_savings = sweep(None)
        forked_counts, forked_savings = sweep(warm)
        assert forked_savings == cold_savings  # identical results either way
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        common.setup.cache_clear()

    reduction = 1 - forked_counts["visa"] / cold_counts["visa"]
    return {
        "instances": instances,
        "cold_wall_seconds": round(cold_s, 4),
        "cached_wall_seconds": round(cached_s, 4),
        "cached_speedup": round(cold_s / cached_s, 1),
        "fork_sweep_rates": list(rates),
        "cold_visa_instances": cold_counts["visa"],
        "forked_visa_instances": forked_counts["visa"],
        "forked_instance_reduction": round(reduction, 4),
        "savings_identical": forked_savings == cold_savings,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI-sized run (same measurements, lower precision)",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_speed.json"),
        help="output JSON path (default: BENCH_speed.json at repo root)",
    )
    args = parser.parse_args(argv)

    min_seconds = 0.5 if args.smoke else 4.0
    cell_instances = 4 if args.smoke else 12

    from repro.experiments.parallel import default_jobs

    phase_seconds: dict[str, float] = {}
    report = {
        "host": {
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "jobs": {
            "repro_jobs_env": os.environ.get("REPRO_JOBS"),
            "effective_workers": default_jobs(),
        },
        "phase_wall_seconds": phase_seconds,
        "smoke": args.smoke,
        "baseline_pre_pr": BASELINE,
        "baseline_pre_jit": BASELINE_PRE_JIT,
        "baseline_block_tier": BASELINE_BLOCK_TIER,
        "baseline_ooo_scan": BASELINE_OOO_SCAN,
        "measured": {},
        "note": (
            "Process-parallel fan-out (REPRO_JOBS) is bit-identical to the "
            "serial path (tests/test_parallel.py); wall-clock speedup from "
            "it requires a multi-core host, which this measurement host "
            "(see host.cpus) may not provide."
        ),
    }
    for core_kind in ("inorder", "ooo"):
        phase_start = time.perf_counter()
        fast = _measure_core(core_kind, "run", min_seconds, warmup_runs=60)
        ref = _measure_core(core_kind, "run_reference", min_seconds)
        phase_seconds[core_kind] = round(time.perf_counter() - phase_start, 3)
        base = BASELINE[core_kind]["inst_per_s"]
        report["measured"][core_kind] = {
            "host": _host_section(),
            "fast": fast,
            "reference": ref,
            "speedup_vs_reference": round(
                fast["inst_per_s"] / ref["inst_per_s"], 2
            ),
            "speedup_vs_pre_pr_baseline": round(
                fast["inst_per_s"] / base, 2
            ),
        }
        print(
            f"{core_kind:7s}  fast {fast['inst_per_s']:>9,} inst/s  "
            f"reference {ref['inst_per_s']:>9,} inst/s  "
            f"({report['measured'][core_kind]['speedup_vs_pre_pr_baseline']}x "
            "vs pre-PR)"
        )

    phase_start = time.perf_counter()
    jit_section = _measure_blockjit(min_seconds)
    phase_seconds["blockjit"] = round(time.perf_counter() - phase_start, 3)
    report["measured"]["blockjit"] = jit_section
    for core_kind in ("inorder", "ooo"):
        sec = jit_section[core_kind]
        print(
            f"blockjit {core_kind:7s}  jit {sec['jit']['inst_per_s']:>9,} "
            f"inst/s  nojit {sec['nojit']['inst_per_s']:>9,} inst/s  "
            f"({sec['speedup_vs_nojit']}x; "
            f"{sec['speedup_vs_pre_jit_baseline']}x vs pre-JIT fast)"
        )
    for engine, times in jit_section["codegen_cache"].items():
        print(
            f"blockjit codegen {engine:7s}  cold {times['cold_seconds']:.3f}s  "
            f"warm {times['warm_seconds']:.3f}s ({times['warm_speedup']}x)"
        )

    phase_start = time.perf_counter()
    codegen_section = _measure_codegen()
    phase_seconds["codegen"] = round(time.perf_counter() - phase_start, 3)
    report["measured"]["codegen"] = codegen_section
    total = codegen_section["total"]
    print(
        f"codegen 12 tables  {total['units']} units  "
        f"{total['source_bytes'] / 1e6:.2f} MB source  "
        f"emit {total['emit_seconds']:.3f}s  "
        f"compile {total['compile_seconds']:.3f}s  "
        f"cache {total['cache_bytes'] / 1e6:.2f} MB  "
        f"warm load {total['warm_load_seconds']:.3f}s"
    )

    phase_start = time.perf_counter()
    trace_section = _measure_tracejit(min_seconds)
    phase_seconds["tracejit"] = round(time.perf_counter() - phase_start, 3)
    report["measured"]["tracejit"] = trace_section
    for core_kind in ("inorder", "ooo"):
        sec = trace_section[core_kind]
        stats = sec["trace_stats"]
        print(
            f"tracejit {core_kind:7s}  trace {sec['trace']['inst_per_s']:>9,} "
            f"inst/s  block {sec['block']['inst_per_s']:>9,} inst/s  "
            f"({sec['speedup_vs_block_tier']}x; {stats['traces']} traces, "
            f"mean {stats['mean_blocks']:.1f} blocks, "
            f"side-exit rate {stats['side_exit_rate']:.3f})"
        )
    for engine, times in trace_section["codegen_cache"].items():
        print(
            f"tracejit codegen {engine:7s}  cold {times['cold_seconds']:.3f}s  "
            f"warm {times['warm_seconds']:.3f}s ({times['warm_speedup']}x)"
        )

    phase_start = time.perf_counter()
    event_section = _measure_ooo_event(min_seconds)
    phase_seconds["ooo_event"] = round(time.perf_counter() - phase_start, 3)
    report["measured"]["ooo_event"] = event_section
    for path in ("block", "interp"):
        sec = event_section[path]
        print(
            f"ooo_event {path:6s}  event {sec['event']['inst_per_s']:>9,} "
            f"inst/s  scan {sec['scan']['inst_per_s']:>9,} inst/s  "
            f"({sec['event_vs_scan']}x)"
        )
    for sched, times in event_section["codegen_cache"].items():
        print(
            f"ooo_event codegen {sched:5s}  cold {times['cold_seconds']:.3f}s  "
            f"warm {times['warm_seconds']:.3f}s ({times['warm_speedup']}x)"
        )

    phase_start = time.perf_counter()
    cell = _measure_figure2_cell(cell_instances)
    cell["host"] = _host_section()
    report["measured"]["figure2_cell"] = cell
    phase_seconds["figure2_cell"] = round(time.perf_counter() - phase_start, 3)
    print(
        "figure2 cell (cnt/T, %d instances): %.2fs"
        % (cell_instances, report["measured"]["figure2_cell"]["wall_seconds"])
    )

    phase_start = time.perf_counter()
    run_cache = _measure_run_cache(cell_instances)
    run_cache["host"] = _host_section()
    phase_seconds["run_cache"] = round(time.perf_counter() - phase_start, 3)
    report["measured"]["run_cache"] = run_cache
    print(
        "run cache (cnt/T, %d instances): cold %.3fs, cached %.3fs (%.0fx); "
        "fork sweep %d -> %d VISA instances (-%.1f%%)"
        % (
            cell_instances,
            run_cache["cold_wall_seconds"],
            run_cache["cached_wall_seconds"],
            run_cache["cached_speedup"],
            run_cache["cold_visa_instances"],
            run_cache["forked_visa_instances"],
            100 * run_cache["forked_instance_reduction"],
        )
    )

    out = pathlib.Path(args.out)
    # Merge over the existing report: sections owned by other benches
    # (service, cluster, wcet, ...) must survive a bench_speed run.
    merged = json.loads(out.read_text()) if out.exists() else {}
    merged.update(report)
    out.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"wrote {out}")

    failures = []
    speedup = report["measured"]["inorder"]["speedup_vs_pre_pr_baseline"]
    if not args.smoke and speedup < 3.0:
        failures.append(f"in-order speedup {speedup}x < 3x acceptance bar")
    jit_speedup = jit_section["inorder"]["speedup_vs_pre_jit_baseline"]
    if not args.smoke and jit_speedup < 2.0:
        failures.append(
            f"blockjit in-order {jit_speedup}x < 2x pre-JIT acceptance bar"
        )
    if jit_section["ooo"]["speedup_vs_nojit"] < 1.0:
        failures.append("blockjit slows the OOO core down")
    trace_speedup = trace_section["inorder"]["speedup_vs_block_tier"]
    if not args.smoke and trace_speedup < 1.1:
        failures.append(
            f"trace tier in-order {trace_speedup}x < 1.1x block-tier bar"
        )
    if not args.smoke and trace_section["ooo"]["speedup_vs_block_tier"] < 0.95:
        failures.append("trace tier slows the OOO core down")
    if not args.smoke and trace_section["inorder"]["trace_stats"]["traces"] < 1:
        failures.append("trace tier formed no traces on the in-order core")
    event_inst = event_section["block"]["event"]["inst_per_s"]
    scan_floor = BASELINE_OOO_SCAN["block"]["inst_per_s"]
    if not args.smoke and event_inst < scan_floor:
        failures.append(
            f"event-mode OOO {event_inst:,} inst/s regresses below the "
            f"recorded scan baseline {scan_floor:,} inst/s"
        )
    if not args.smoke and event_section["block"]["event_vs_scan"] < 1.0:
        failures.append("event scheduler slower than scan on the block tier")
    if not args.smoke and run_cache["cached_speedup"] < 10.0:
        failures.append(
            f"cached cell only {run_cache['cached_speedup']}x faster "
            "than cold (< 10x acceptance bar)"
        )
    for label, table in codegen_section["tables"].items():
        if not (table["units"] and table["source_bytes"]
                and table["cache_bytes"]):
            failures.append(f"codegen {label}: empty table or cache entry")
        if table["warm_compiles"]:
            failures.append(
                f"codegen {label}: warm load compiled "
                f"{table['warm_compiles']} units"
            )
    if run_cache["forked_instance_reduction"] < 0.30:
        failures.append(
            "forked sweep reduction "
            f"{100 * run_cache['forked_instance_reduction']:.1f}% < 30% bar"
        )
    if not run_cache["savings_identical"]:
        failures.append("forked sweep savings differ from cold sweep")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
