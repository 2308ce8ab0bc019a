"""Differential tests for the basic-block compiler (:mod:`repro.isa.blockjit`).

The block JIT fuses straight-line runs of the ``FastInst`` plan into one
generated Python function per basic block; ``run()`` dispatches per block
instead of per instruction.  These tests pin the compiled path to the
reference interpreter:

* fuzz-level: on 200 randomized MiniC programs, ``run()`` (block-compiled)
  must match ``run_reference()`` bit for bit — end state *and* cycle
  counts — on both cores;
* edge-level: block exits at MMIO accesses, faults, flush-window
  breakpoints, checkpoint (sub-task) boundaries, and watchdog expiry must
  leave identical architectural state at identical cycles;
* flag-level: ``REPRO_JIT=0`` / :func:`blockjit.jit_override` select the
  per-instruction interpreter, which must agree with the JIT exactly;
* cache-level: the on-disk codegen cache round-trips (hit/miss/store
  counters observable through :data:`runcache.STATS`).
"""

import builtins
import importlib.util
import marshal

import pytest

from repro.errors import SimulationError
from repro.isa import blockjit, layout, tracejit
from repro.isa.assembler import assemble
from repro.memory.machine import Machine
from repro.minicc import compile_source
from repro.pipelines.inorder import InOrderCore
from repro.pipelines.ooo.core import ComplexCore
from repro.snapshot import runcache
from repro.workloads import get_workload

from tests.test_cross_core_random import _program
from tests.test_fastexec import _snapshot

N_PROGRAMS = 200
CHUNK = 25

BOTH_CORES = pytest.mark.parametrize(
    "core_cls", [InOrderCore, ComplexCore], ids=["inorder", "ooo"]
)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep codegen-cache writes out of the developer's real cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_JIT", raising=False)
    monkeypatch.delenv("REPRO_JIT_TIER", raising=False)


def _outcome(core, machine, result):
    return (
        result.reason,
        result.start_cycle,
        result.end_cycle,
        result.instructions,
        result.exception_cycle,
        _snapshot(core, machine),
    )


def _run_jit_vs_reference(program, core_cls, **kwargs):
    out = []
    for method in ("run", "run_reference"):
        machine = Machine(program)
        core = core_cls(machine)
        result = getattr(core, method)(**kwargs)
        out.append(_outcome(core, machine, result))
    return out


# -- 200-program differential fuzz -------------------------------------------


@pytest.mark.parametrize("chunk", range(N_PROGRAMS // CHUNK))
def test_blockjit_matches_reference_on_random_programs(chunk):
    """End states *and* cycle counts agree on randomized programs."""
    for seed in range(chunk * CHUNK, (chunk + 1) * CHUNK):
        program = compile_source(_program(seed))
        with blockjit.jit_override(True):
            for core_cls in (InOrderCore, ComplexCore):
                jit, ref = _run_jit_vs_reference(program, core_cls)
                assert jit == ref, (seed, core_cls.__name__)
        # The JIT path must actually have been exercised.
        assert program._blockjit_tables


# -- block exits at MMIO, fault, flush, checkpoint, watchdog boundaries -------


@BOTH_CORES
def test_mmio_mid_block_exits(core_cls):
    """MMIO loads/stores mid-block: values *and* device-visible cycles."""
    source = """
    main:
        li t0, 0xFFFF0000
        addi t1, zero, 5
        addi t2, zero, 7
        add t3, t1, t2
        sw t3, 16(t0)      # CONSOLE_OUT mid straight-line run
        lw t4, 8(t0)       # CYCLE_COUNT: timing-visible load
        sw t4, 16(t0)
        addi t5, t4, 1
        sw t5, 16(t0)
        halt
    """
    program = assemble(source)
    jit, ref = _run_jit_vs_reference(program, core_cls)
    assert jit == ref
    # Console entries compare with their cycle stamps too.
    machines = []
    for method in ("run", "run_reference"):
        machine = Machine(program)
        getattr(core_cls(machine), method)()
        machines.append(list(machine.mmio.console))
    assert machines[0] == machines[1]


@BOTH_CORES
def test_fault_mid_block_state(core_cls):
    """A faulting DIV mid-block raises identically with identical state."""
    source = """
    main:
        addi t0, zero, 9
        addi t1, zero, 3
        add t2, t0, t1
        div t3, t2, zero   # faults mid straight-line run
        addi t4, zero, 1
        halt
    """
    program = assemble(source)
    outcomes = []
    for method in ("run", "run_reference"):
        machine = Machine(program)
        core = core_cls(machine)
        with pytest.raises(SimulationError) as exc_info:
            getattr(core, method)()
        outcomes.append((str(exc_info.value), _snapshot(core, machine)))
    assert outcomes[0] == outcomes[1]


def test_flush_window_breakpoint_parity():
    """``break_addrs`` at sub-task marks (the flush/checkpoint windows)."""
    program = get_workload("srt", "tiny").program
    marks = sorted(program.subtask_marks)
    breaks = frozenset(marks[1:])
    for runner in ("jit", "nojit", "reference"):
        machine = Machine(program)
        core = InOrderCore(machine)
        segments = []
        for _ in range(200):
            if runner == "jit":
                with blockjit.jit_override(True):
                    result = core.run(break_addrs=breaks)
            elif runner == "nojit":
                with blockjit.jit_override(False):
                    result = core.run(break_addrs=breaks)
            else:
                result = core.run_reference(break_addrs=breaks)
            segments.append(
                (result.reason, result.start_cycle, result.end_cycle,
                 result.instructions, core.state.pc)
            )
            if result.reason != "breakpoint":
                break
        segments.append(_snapshot(core, machine))
        if runner == "jit":
            expected = segments
        else:
            assert segments == expected, runner
    assert expected[0][0] == "breakpoint"
    assert expected[-2][0] == "halt"


def test_unsafe_breakpoints_still_match():
    """Arbitrary break addresses (not block leaders) stay exact."""
    program = compile_source(_program(3))
    target = program.entry + 8
    jit, ref = _run_jit_vs_reference(
        program, InOrderCore, break_addrs=frozenset({target})
    )
    assert jit[0] == "breakpoint"
    assert jit == ref


@BOTH_CORES
def test_watchdog_expiry_mid_block(core_cls):
    """Watchdog fires at the same cycle with the same state."""
    source = """
    main:
        li t0, 0xFFFF0000
        li t1, 150
        sw t1, 0(t0)       # WATCHDOG_COUNT = 150 cycles
        li t2, 1
        sw t2, 4(t0)       # WATCHDOG_CTRL: enable
    loop:
        addi t3, t3, 1
        b loop
    """
    program = assemble(source)
    outcomes = []
    for method in ("run", "run_reference"):
        machine = Machine(program)
        machine.mmio.exceptions_masked = False
        core = core_cls(machine)
        result = getattr(core, method)()
        outcomes.append(_outcome(core, machine, result))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "watchdog"


# -- trace tier: mid-trace side exits -----------------------------------------
#
# Each program below runs one loop hot enough (>= tracejit.HOT_THRESHOLD
# dispatches) to stitch a superblock before the edge event fires, so the
# event lands with an installed trace on the loop and must take a side
# exit with state bit-identical to the interpreter and the block tier.

HOT = tracejit.HOT_THRESHOLD


def _tier_outcome(program, core_cls, tier, **kwargs):
    machine = Machine(program)
    core = core_cls(machine)
    with blockjit.tier_override(tier):
        result = core.run(**kwargs)
    return _outcome(core, machine, result), machine


def _traces_formed(program):
    return any(
        table.traces_meta for table in program._blockjit_tables.values()
    )


@BOTH_CORES
def test_mmio_mid_trace_side_exit(core_cls):
    """A once-taken branch to MMIO mid-trace: console and cycles exact."""
    source = f"""
    main:
        li t0, 0xFFFF0000
        li t1, {HOT * 3}
        li t4, {HOT + 9}
    loop:
        addi t2, t2, 1
        add t3, t3, t2
        beq t2, t4, emit   # taken once, after the loop trace is hot
    back:
        bne t2, t1, loop
        halt
    emit:
        sw t3, 12(t0)      # CONSOLE_OUT off the hot path
        lw t5, 8(t0)       # CYCLE_COUNT: timing-visible load
        sw t5, 12(t0)
        b back
    """
    program = assemble(source)
    outs = {}
    consoles = {}
    for tier in blockjit.TIERS:
        outs[tier], machine = _tier_outcome(program, core_cls, tier)
        consoles[tier] = list(machine.mmio.console)
    assert outs["trace"] == outs["block"] == outs["off"]
    assert consoles["trace"] == consoles["block"] == consoles["off"]
    assert _traces_formed(program)


@BOTH_CORES
def test_fault_mid_trace_side_exit(core_cls):
    """A DIV whose divisor hits zero mid-trace faults identically."""
    source = f"""
    main:
        li t1, {HOT * 3}
        li t4, {HOT + 9}
    loop:
        addi t2, t2, 1
        sub t5, t4, t2
        div t3, t1, t5     # divisor reaches zero inside the trace
        bne t2, t1, loop
        halt
    """
    program = assemble(source)
    outcomes = []
    for tier in blockjit.TIERS:
        machine = Machine(program)
        core = core_cls(machine)
        with blockjit.tier_override(tier):
            with pytest.raises(SimulationError) as exc_info:
                core.run()
        outcomes.append((str(exc_info.value), _snapshot(core, machine)))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert _traces_formed(program)


def test_flush_window_breakpoint_tier_matrix():
    """Sub-task-mark breakpoints stay exact when traces cover the loop.

    Traces never stitch across ``safe_breaks`` (the flush/checkpoint
    windows), so every mark-aligned breakpoint lands on a trace
    boundary; segment timings must match the interpreter exactly.
    """
    program = get_workload("srt", "tiny").program
    program._blockjit_tables.clear()
    marks = sorted(program.subtask_marks)
    breaks = frozenset(marks[1:])
    expected = None
    for tier in ("trace", "block", "off"):
        machine = Machine(program)
        core = InOrderCore(machine)
        segments = []
        for _ in range(200):
            with blockjit.tier_override(tier):
                result = core.run(break_addrs=breaks)
            segments.append(
                (result.reason, result.start_cycle, result.end_cycle,
                 result.instructions, core.state.pc)
            )
            if result.reason != "breakpoint":
                break
        segments.append(_snapshot(core, machine))
        if expected is None:
            expected = segments
        else:
            assert segments == expected, tier
    assert expected[0][0] == "breakpoint"
    assert expected[-2][0] == "halt"


@BOTH_CORES
def test_watchdog_armed_mid_trace(core_cls):
    """Arming the watchdog from a store *inside* the trace side-exits.

    Traces are specialized for a disabled watchdog; the MMIO control
    store that flips it on must leave the trace so the block tier's
    per-instruction expiry checks take over at the exact same cycle.
    """
    source = f"""
    main:
        li t0, 0xFFFF0000
        li t3, 200
        sw t3, 0(t0)       # preset WATCHDOG_COUNT; CTRL still 0
        li t1, 999
        li t4, {HOT + 9}
    loop:
        addi t2, t2, 1
        slt t5, t4, t2     # 0 while the loop warms up, then 1
        sw t5, 4(t0)       # WATCHDOG_CTRL write every iteration, in-trace
        bne t2, t1, loop
        halt
    """
    program = assemble(source)
    outcomes = []
    for tier in blockjit.TIERS:
        machine = Machine(program)
        machine.mmio.exceptions_masked = False
        core = core_cls(machine)
        with blockjit.tier_override(tier):
            result = core.run()
        outcomes.append(_outcome(core, machine, result))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][0] == "watchdog"
    assert _traces_formed(program)


@BOTH_CORES
def test_store_to_text_mid_trace(core_cls):
    """A text-range store reached by a mid-trace side exit faults exactly.

    The write would invalidate the code under the trace; the simulator
    treats text-range data stores as faults, and all three tiers must
    raise with identical state at the identical point.
    """
    source = f"""
    main:
        li t1, {HOT * 3}
        li t4, {HOT + 9}
        lui t0, 0x0040     # text segment base (0x400000)
    loop:
        addi t2, t2, 1
        beq t2, t4, poke   # taken once the trace is warm
    back:
        bne t2, t1, loop
        halt
    poke:
        sw t2, 0(t0)       # store into the text range: faults
        b back
    """
    program = assemble(source)
    outcomes = []
    for tier in blockjit.TIERS:
        machine = Machine(program)
        core = core_cls(machine)
        with blockjit.tier_override(tier):
            with pytest.raises(SimulationError) as exc_info:
                core.run()
        outcomes.append((str(exc_info.value), _snapshot(core, machine)))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert _traces_formed(program)


@pytest.mark.parametrize("chunk", range(4))
def test_trace_tier_matches_reference_on_random_programs(chunk):
    """Trace-tier fuzz: a slice of the differential corpus, all tiers."""
    for seed in range(chunk * 10, chunk * 10 + 10):
        program = compile_source(_program(seed))
        for core_cls in (InOrderCore, ComplexCore):
            outs = [
                _tier_outcome(program, core_cls, tier)[0]
                for tier in blockjit.TIERS
            ]
            assert outs[0] == outs[1] == outs[2], (seed, core_cls.__name__)


# -- opt-out flag -------------------------------------------------------------


@BOTH_CORES
def test_no_jit_parity(core_cls):
    """``jit_override(False)`` runs the interpreter with identical results."""
    program = get_workload("cnt", "tiny").program
    outcomes = []
    for jit in (True, False):
        machine = Machine(program)
        core = core_cls(machine)
        with blockjit.jit_override(jit):
            result = core.run()
        outcomes.append(_outcome(core, machine, result))
    assert outcomes[0] == outcomes[1]


def test_repro_jit_env_flag(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "0")
    assert not blockjit.jit_enabled()
    with blockjit.jit_override(True):
        assert blockjit.jit_enabled()  # explicit override beats the env
    monkeypatch.setenv("REPRO_JIT", "1")
    assert blockjit.jit_enabled()
    with blockjit.jit_override(False):
        assert not blockjit.jit_enabled()


def test_repro_jit_tier_env_flag(monkeypatch):
    """``REPRO_JIT_TIER`` supersedes ``REPRO_JIT``; overrides beat both."""
    monkeypatch.setenv("REPRO_JIT_TIER", "off")
    assert blockjit.jit_tier() == "off"
    assert not blockjit.jit_enabled()
    monkeypatch.setenv("REPRO_JIT_TIER", "block")
    assert blockjit.jit_tier() == "block"
    monkeypatch.setenv("REPRO_JIT_TIER", "trace")
    monkeypatch.setenv("REPRO_JIT", "0")
    assert blockjit.jit_tier() == "trace"  # tier wins over the boolean
    monkeypatch.delenv("REPRO_JIT_TIER")
    assert blockjit.jit_tier() == "off"  # legacy flag still honored
    monkeypatch.delenv("REPRO_JIT")
    assert blockjit.jit_tier() == blockjit.DEFAULT_TIER
    with blockjit.tier_override("block"):
        assert blockjit.jit_tier() == "block"
    with blockjit.jit_override(False):
        assert blockjit.jit_tier() == "off"
    with blockjit.tier_override(None):
        assert blockjit.jit_tier() == blockjit.DEFAULT_TIER
    with pytest.raises(ValueError):
        with blockjit.tier_override("bogus"):
            pass


def test_no_jit_run_uses_interpreter():
    """With the JIT off, no block table is ever compiled."""
    program = compile_source(_program(11))
    machine = Machine(program)
    with blockjit.jit_override(False):
        InOrderCore(machine).run()
    assert not program._blockjit_tables


# -- on-disk codegen cache ----------------------------------------------------


def test_disk_cache_roundtrip():
    program = get_workload("cnt", "tiny").program
    runcache.STATS.pop("blockjit_hits", None)
    runcache.STATS.pop("blockjit_misses", None)
    runcache.STATS.pop("blockjit_stores", None)

    machine = Machine(program)
    program._blockjit_tables.clear()
    with blockjit.jit_override(True):
        core = InOrderCore(machine)
        cold = core.run()
    assert runcache.STATS["blockjit_misses"] >= 1
    assert runcache.STATS["blockjit_stores"] >= 1
    stats = blockjit.disk_cache_stats()
    assert stats["entries"] >= 1 and stats["bytes"] > 0

    # Drop the in-process memo: the rebuild must come from disk.
    program._blockjit_tables.clear()
    machine2 = Machine(program)
    with blockjit.jit_override(True):
        warm = InOrderCore(machine2).run()
    assert runcache.STATS["blockjit_hits"] >= 1
    assert (warm.reason, warm.end_cycle) == (cold.reason, cold.end_cycle)
    assert machine2.memory.snapshot() == machine.memory.snapshot()

    removed, freed = blockjit.clear_disk_cache()
    assert removed >= 1 and freed > 0
    assert blockjit.disk_cache_stats()["entries"] == 0


def test_cache_stats_and_clear_include_blockjit():
    program = get_workload("cnt", "tiny").program
    program._blockjit_tables.clear()
    with blockjit.jit_override(True):
        InOrderCore(Machine(program)).run()
    stats = runcache.cache_stats()
    assert stats["blockjit"]["entries"] >= 1
    removed, _ = runcache.clear_cache()
    assert removed >= 1
    assert runcache.cache_stats()["blockjit"]["entries"] == 0


def test_trace_disk_cache_roundtrip():
    """Stitched traces persist and reload; per-tier stats stay observable."""
    program = get_workload("cnt", "tiny").program
    for key in ("tracejit_hits", "tracejit_misses", "tracejit_stores"):
        runcache.STATS.pop(key, None)

    program._blockjit_tables.clear()
    with blockjit.tier_override("trace"):
        machine = Machine(program)
        cold = InOrderCore(machine).run()
    assert _traces_formed(program)
    assert runcache.STATS["tracejit_stores"] >= 1
    stats = blockjit.disk_cache_stats()
    assert stats["tiers"]["trace"]["entries"] >= 1
    assert stats["tiers"]["trace"]["bytes"] > 0
    assert stats["tiers"]["block"]["entries"] >= 1

    # Drop the in-process memo: the traces must reload from disk,
    # pre-installed over their head blocks before the first dispatch.
    program._blockjit_tables.clear()
    machine2 = Machine(program)
    with blockjit.tier_override("trace"):
        warm = InOrderCore(machine2).run()
    assert runcache.STATS["tracejit_hits"] >= 1
    assert _traces_formed(program)
    assert (warm.reason, warm.end_cycle) == (cold.reason, cold.end_cycle)
    assert machine2.memory.snapshot() == machine.memory.snapshot()

    removed, freed = blockjit.clear_disk_cache()
    assert removed >= 2 and freed > 0
    assert blockjit.disk_cache_stats()["tiers"]["trace"]["entries"] == 0


@BOTH_CORES
def test_restored_trace_at_dynamic_head_delegates(core_cls):
    """Warm-loaded traces at dynamic dispatch targets keep their guard.

    Blocks compiled on demand for dynamic targets (return sites that are
    not static leaders) are never persisted, but traces formed at those
    heads are.  After a fresh reload the entry guard's delegation target
    must exist in the namespace — regression: a `NameError` when the
    watchdog was armed, because the trace was installed over the head's
    table slot so nothing ever compiled the block function it names.
    """
    engine = "inorder" if core_cls is InOrderCore else "ooo"
    program = get_workload("cnt", "tiny").program
    program._blockjit_tables.clear()
    with blockjit.tier_override("trace"):
        core_cls(Machine(program)).run()
    assert _traces_formed(program)

    # Fresh namespace: tables rebuilt from disk, traces pre-installed.
    program._blockjit_tables.clear()
    outcomes = []
    for tier in ("trace", "off"):
        machine = Machine(program)
        # Arm the watchdog with a count that never expires: every trace
        # call must take the entry guard's block-function delegation.
        machine.mmio.write(layout.WATCHDOG_COUNT, 1 << 30, 0)
        machine.mmio.write(layout.WATCHDOG_CTRL, 1, 0)
        core = core_cls(machine)
        with blockjit.tier_override(tier):
            result = core.run()
        outcomes.append(_outcome(core, machine, result))
    assert outcomes[0] == outcomes[1]
    for table in program._blockjit_tables.values():
        if table.tier != "trace" or table.engine != engine:
            continue
        assert table.traces_meta
        for head in table.traces_meta:
            assert blockjit._fname(table.engine, head) in table._ns


def test_trace_summary_reports_side_exits():
    """``BlockTable.trace_summary`` counts calls and side exits."""
    program = get_workload("cnt", "tiny").program
    program._blockjit_tables.clear()
    with blockjit.tier_override("trace"):
        InOrderCore(Machine(program)).run()
    summaries = [
        table.trace_summary()
        for table in program._blockjit_tables.values()
        if table.tier == "trace"
    ]
    assert summaries
    top = max(summaries, key=lambda s: s["traces"])
    assert top["traces"] >= 1
    assert top["mean_blocks"] >= 1.0
    assert top["mean_insts"] >= 1.0
    assert top["calls"] >= 1
    assert 0.0 <= top["side_exit_rate"] <= 1.0


# -- codegen-cache failure paths ----------------------------------------------


def _corrupt_magic(data):
    return bytes([data[0] ^ 0xFF]) + data[1:]


def _truncate(data):
    return data[: len(data) // 2]


def _stale_codegen(data):
    from repro.snapshot.state import FORMAT_VERSION

    header = (FORMAT_VERSION, blockjit.CODEGEN_VERSION, "inorder")
    (body,) = blockjit.read_blob(data, header)
    stale = (FORMAT_VERSION, blockjit.CODEGEN_VERSION - 1, "inorder")
    return importlib.util.MAGIC_NUMBER + marshal.dumps((stale, body))


def _malformed_record(data):
    from repro.snapshot.state import FORMAT_VERSION

    header = (FORMAT_VERSION, blockjit.CODEGEN_VERSION, "inorder")
    return importlib.util.MAGIC_NUMBER + marshal.dumps((header, [1, 2]))


@pytest.mark.parametrize(
    "damage", [_corrupt_magic, _truncate, _stale_codegen, _malformed_record],
    ids=["foreign-magic", "truncated", "stale-codegen-version", "malformed"],
)
def test_bad_cache_entry_is_a_miss_and_restored(damage, tmp_path):
    """An entry another Python wrote, a torn write, or an entry from an
    older code generator is regenerated, re-stored, and runs exactly."""
    program = compile_source(_program(5))
    program._blockjit_tables.clear()
    with blockjit.tier_override("block"):
        InOrderCore(Machine(program)).run()
    (path,) = (tmp_path / "blockjit").glob("inorder-*.bin")
    good = path.read_bytes()
    path.write_bytes(damage(good))

    program._blockjit_tables.clear()
    runcache.reset_stats()
    with blockjit.tier_override("block"):
        jit, ref = _run_jit_vs_reference(program, InOrderCore)
    assert jit == ref
    assert runcache.STATS["blockjit_misses"] == 1
    assert runcache.STATS["blockjit_hits"] == 0
    assert runcache.STATS["blockjit_stores"] == 1
    assert blockjit.read_blob(
        path.read_bytes(), blockjit._table_header("inorder")
    ) is not None
    runcache.reset_stats()


@BOTH_CORES
def test_warm_rebuild_from_disk_compiles_nothing(core_cls, monkeypatch):
    """A table restored from its blob runs without a single compile()."""
    program = get_workload("cnt", "tiny").program
    program._blockjit_tables.clear()
    cold = _tier_outcome(program, core_cls, "block")[0]

    calls = []
    real_compile = builtins.compile

    def counting_compile(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("filename"))
        return real_compile(*args, **kwargs)

    program._blockjit_tables.clear()
    runcache.reset_stats()
    monkeypatch.setattr(builtins, "compile", counting_compile)
    warm = _tier_outcome(program, core_cls, "block")[0]
    monkeypatch.undo()
    assert warm == cold
    assert calls == []
    assert runcache.STATS["blockjit_hits"] == 1
    assert runcache.STATS["blockjit_stores"] == 0
    runcache.reset_stats()


def test_watchdog_variants_compile_on_first_need():
    """Masked runs compile only unchecked blocks; the checked variant of
    a block appears the first time it is entered with the watchdog live,
    and both variants persist in the table's blob."""
    program = get_workload("cnt", "tiny").program
    program._blockjit_tables.clear()
    with blockjit.tier_override("block"):
        InOrderCore(Machine(program)).run()
    (table,) = program._blockjit_tables.values()
    assert table.blocks and not table.checked

    machine = Machine(program)
    machine.mmio.exceptions_masked = False
    machine.mmio.write(layout.WATCHDOG_COUNT, 1 << 30, 0)
    machine.mmio.write(layout.WATCHDOG_CTRL, 1, 0)
    with blockjit.tier_override("block"):
        InOrderCore(machine).run()
    assert table.checked
    assert set(table.checked) <= set(table.blocks)
    assert not table.unsaved
    # The new units were appended to the blob as a second record.
    blob = blockjit._disk_path("inorder", table.disk_key).read_bytes()
    records = blockjit.read_blob(blob, blockjit._table_header("inorder"))
    assert len(records) == 2
    assert set(records[1]) == {(True, pc) for pc in table.checked}

    program._blockjit_tables.clear()
    with blockjit.tier_override("block"):
        InOrderCore(Machine(program)).run()
    (restored,) = program._blockjit_tables.values()
    assert set(restored.checked) == set(table.checked)


def test_cache_stats_and_clear_count_blobs_and_old_json(tmp_path, capsys):
    """``repro cache stats`` counts blobs per tier; ``clear`` also removes
    entries in the old JSON format."""
    from repro.cli import main

    program = get_workload("cnt", "tiny").program
    program._blockjit_tables.clear()
    with blockjit.tier_override("trace"):
        InOrderCore(Machine(program)).run()
    directory = tmp_path / "blockjit"
    old = [directory / "inorder-0123.json", directory / "ooo-0123.traces.json"]
    for path in old:
        path.write_text("{}")

    tiers = blockjit.disk_cache_stats()["tiers"]
    assert tiers["block"]["entries"] == 1
    assert tiers["trace"]["entries"] == 1
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "codegen block entries" in out and "codegen trace entries" in out

    assert main(["cache", "clear"]) == 0
    assert not any(path.exists() for path in old)
    assert not directory.exists()
