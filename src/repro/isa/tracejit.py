"""Superblock/trace tier above the basic-block JIT (:mod:`blockjit`).

The block JIT (PR 5) still re-enters the dispatch loop at every basic
block: short loop bodies pay the call/unpack/sync overhead dozens of
times per iteration.  This module adds the next tier.  The dispatchers
in :mod:`blockjit` profile per-block dispatch counts; once a block
crosses :data:`HOT_THRESHOLD`, the chain starting there is stitched
into one *superblock* function:

* chain formation follows the static BTFN prediction (``ptaken``) at
  conditional branches and the target at direct jumps, stops at
  indirect jumps, halts, and safe-break addresses (sub-task marks +
  entry — the breakpoint guarantee of the block dispatcher must keep
  holding, so those are trace barriers, never trace-interior), and
  *unrolls* loops by revisiting blocks until the instruction budget;
* chain-interior conditional branches become **side exits**: the
  branch executes in full (timing, counters, predictor training,
  watchdog check), then a mismatch with the chain's assumed direction
  syncs state and returns the off-chain pc to the block dispatcher;
* within the stitched function registers stay live in locals across
  the block boundaries (the :class:`blockjit._Regs` tracker simply
  keeps running), the per-boundary block-exit sync disappears by
  construction, and icache guaranteed-hit batching extends across the
  whole chain;
* a conservative, order-preserving textual **peephole pass**
  (:func:`_peephole`, in the spirit of the ``mini32_compiler.py``
  exemplar: if in doubt, leave the code unchanged) then removes
  redundant register writebacks across stitch points, folds trivial
  literal arithmetic, and deletes dead pure SSA stores.

Trace functions share the block functions' signature and return
protocol, so they install directly *over* the hot block's entry in
``BlockTable.blocks`` — both dispatchers consume them with no extra
lookup.  Like the blocks in that map they are specialized for a dead
watchdog (the dispatchers enter them only then).  The bit-identical
contract of :mod:`blockjit` carries over unchanged.  Compiled traces
persist next to the block blobs under ``.repro_cache/blockjit/`` as
``{engine}-{key}.traces.bin``, one marshal blob in the same format.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import TYPE_CHECKING, Any

from repro.isa import blockjit
from repro.isa.fastexec import K_BRANCH, K_HALT, K_INDIRECT, K_JUMP

if TYPE_CHECKING:
    from pathlib import Path

#: Bump when the emitted trace code changes shape; stale entries miss.
TRACE_CODEGEN_VERSION = 3

#: Dispatch count at which a block is promoted to a trace head.
HOT_THRESHOLD = 16

#: Instruction budget per trace (bounds codegen size and compile time).
MAX_TRACE_INSTS = 384

#: Stitched-segment budget per trace (also bounds loop unrolling).
MAX_TRACE_BLOCKS = 64

#: Trace-count budget per table (bounds total codegen work per program).
MAX_TRACES = 48

#: (start pc, [(pc, fastinst), ...], stitched successor pc or None).
Segment = tuple[int, list[tuple[int, Any]], int | None]


def _trace_fname(engine: str, pc: int) -> str:
    return f"_t{pc:x}" if engine == "inorder" else f"_u{pc:x}"


# --- chain formation ----------------------------------------------------------


def _successor(last_pc: int, fi: Any) -> int | None:
    """Statically-assumed next pc after the block ending in ``fi``.

    Conditional branches follow BTFN (the plan's ``ptaken``), direct
    jumps their target, cap-split blocks the fall-through; indirect
    jumps and halts end the chain.
    """
    kind, npc, starget, ptaken = fi[0], fi[8], fi[9], fi[10]
    if kind == K_BRANCH:
        if starget == npc:
            return npc
        return int(starget) if ptaken else int(npc)
    if kind == K_JUMP:
        return int(starget)
    if kind == K_INDIRECT or kind == K_HALT:
        return None
    return last_pc + 4


def form_chain(table: Any, head: int) -> list[Segment] | None:
    """The stitchable chain starting at ``head``, or None if unprofitable.

    Safe-break addresses are barriers: they may head a trace but never
    appear at an interior position, so the dispatcher's between-dispatch
    breakpoint check stays exact.  A successor revisiting a block
    already in the chain (including ``head`` itself) ends the chain:
    back edges return to the dispatcher, which re-enters the trace at
    its head.  Statically unrolling the loop instead looks attractive
    but loses badly in practice — the BTFN assumption holds only until
    the dynamic trip count runs out, so the loop-exit branch side-exits
    somewhere inside the unrolled body on *every* call and the trace
    never completes (the recorded ``side_exit_rate: 1.0`` pathology).
    """
    program = table.program
    barriers = table.safe_breaks
    segments: list[Segment] = []
    seen: set[int] = set()
    back_edge = False
    n_insts = 0
    pc = head
    while True:
        insts = blockjit._collect_block(program, pc, barriers)
        last_pc, last_fi = insts[-1]
        seen.add(pc)
        n_insts += len(insts)
        nxt = _successor(last_pc, last_fi)
        if (
            nxt is None
            or nxt in seen
            or nxt in barriers
            or not program.contains(nxt)
            or n_insts >= MAX_TRACE_INSTS
            or len(segments) + 1 >= MAX_TRACE_BLOCKS
        ):
            back_edge = nxt is not None and nxt in seen
            segments.append((pc, insts, None))
            break
        segments.append((pc, insts, nxt))
        pc = nxt
    if len(segments) < 2 and not back_edge:
        # A straight-line single block gains nothing over its block
        # function; a self-looping one does (watchdog-elided body, one
        # completion per iteration), so back edges keep the chain.
        return None
    return segments


# --- stitched emission --------------------------------------------------------


def _emit_segments(em: Any, segments: list[Segment]) -> None:
    """Drive an emitter's ``_inst`` across every segment, inserting side
    exits at chain-interior terminators."""
    idx = 0
    last = len(segments) - 1
    for s, (_bpc, insts, nxt) in enumerate(segments):
        n = len(insts)
        for j, (ipc, fi) in enumerate(insts):
            em._inst(idx, ipc, fi, is_last=(s == last and j == n - 1))
            idx += 1
        if s != last:
            _stitch(em, idx - 1, insts[-1][1], nxt)


def _stitch(em: Any, i: int, fi: Any, nxt: int | None) -> None:
    """Side exit (if needed) after the chain-interior terminator ``fi``.

    The terminator already executed in full (timing, counters,
    predictor training, the per-instruction watchdog check); here we
    only leave the trace when the runtime outcome disagrees with the
    chain's assumed direction.  Direct jumps and fall-throughs continue
    unconditionally.
    """
    kind, npc, starget = fi[0], fi[8], fi[9]
    if kind != K_BRANCH:
        return
    if isinstance(em, blockjit._OOOEmitter):
        # The branch may have moved the redirect: the next fetch-group
        # formation must use the fully dynamic block-entry form.
        em._dyn_group = True
    if starget == npc:
        return
    if nxt == starget:
        cond, off = f"if not k{i}:", int(npc)
    else:
        cond, off = f"if k{i}:", int(starget)
    em.emit("    ", cond)
    em.emit("        ", "_tr[1] += 1")
    em.emit("        ", f"_sx[{off}] = _sx_get({off}, 0) + 1")
    em._exit("        ", str(off), str(off))


class _InOrderTraceEmitter(blockjit._InOrderEmitter):
    """Stitched in-order superblock emitter (signature ``_t{pc:x}``)."""

    def emit_trace(self, head: int, segments: list[Segment]) -> str:
        g = self.g
        # Traces are specialized for a disabled watchdog (the common
        # case; the dispatcher runs the checked block variants while it
        # is live), and any MMIO store that may flip wd gets a guarded
        # side exit.
        self._wd_elide = True
        lines = [
            f"def {_trace_fname('inorder', head)}(ir, fr, ready, st, env):",
            "    _tr[0] += 1",
            f"    ({blockjit._INORDER_ENV}) = env",
            f"    ({blockjit._INORDER_ST}) = st",
        ]
        sets_used = sorted({
            (ipc >> g.ishift) % g.insets
            for _, insts, _ in segments for ipc, _ in insts
        })
        lines += [f"    iw{setk} = isets[{setk}]" for setk in sets_used]
        _emit_segments(self, segments)
        return "\n".join(lines + _peephole(self.lines)) + "\n"


class _OOOTraceEmitter(blockjit._OOOEmitter):
    """Stitched complex-mode superblock emitter (signature ``_u{pc:x}``).

    Emits for whichever timing scheduler the owning table was built for
    (the ``event`` constructor flag): the env/st unpack strings and the
    per-instruction bodies (inherited from :class:`blockjit._OOOEmitter`)
    switch together, so a trace always matches its block functions.
    """

    def emit_trace(self, head: int, segments: list[Segment]) -> str:
        self._wd_elide = True
        env_names = (
            blockjit._OOO_ENV_EVENT if self.event else blockjit._OOO_ENV
        )
        st_names = (
            blockjit._OOO_ST_EVENT if self.event else blockjit._OOO_ST
        )
        lines = [
            f"def {_trace_fname('ooo', head)}(ir, fr, ready, st, env):",
            "    _tr[0] += 1",
            f"    ({env_names}) = env",
            f"    ({st_names}) = st",
        ]
        _emit_segments(self, segments)
        return "\n".join(lines + _peephole(self.lines)) + "\n"


def _emit_trace(
    engine: str, geom: Any, params: Any, head: int, segments: list[Segment],
    sched: str = "scan",
) -> str:
    if engine == "inorder":
        return _InOrderTraceEmitter(geom).emit_trace(head, segments)
    em = _OOOTraceEmitter(geom, params, event=sched == "event")
    return em.emit_trace(head, segments)


# --- peephole pass over the emitted source ------------------------------------

_SPILL_RE = re.compile(r"^(\s+)((?:ir|fr)\[\d+\]) = (\S+)$")
_TARGET_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*) [-+*/|&^]?= ")
_SSA_ASSIGN_RE = re.compile(r"^\s+([a-z]{1,2}\d+) = (.+)$")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CALL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\(")
_FLOATY_RE = re.compile(r"\bF\d|\bfr\[")
_ADD_ZERO_RE = re.compile(r" \+ 0\b")
_SHIFT_ZERO_RE = re.compile(r" (?:<<|>>) 0\b")
_LIT_ADD_RE = re.compile(r"(?<![\w.\])])(\d+) \+ (\d+)(?![\w.])")


def _fold_line(line: str) -> str:
    """Trivial literal arithmetic on one line (integer contexts only).

    ``X + 0`` / ``X << 0`` drop the operation and adjacent int literals
    fold; lines touching FP state are left alone (``-0.0 + 0`` is not
    ``-0.0``), as is anything the patterns don't match exactly.
    """
    if _FLOATY_RE.search(line):
        return line
    line = _ADD_ZERO_RE.sub("", line)
    line = _SHIFT_ZERO_RE.sub("", line)
    while True:
        folded = _LIT_ADD_RE.sub(
            lambda m: str(int(m.group(1)) + int(m.group(2))), line, count=1
        )
        if folded == line:
            return line
        line = folded


def _dedup_spills(lines: list[str]) -> list[str]:
    """Drop register writebacks that re-store an unchanged value.

    Tracks the last value token stored to each ``ir[k]``/``fr[k]`` home.
    Only *unconditional* stores (function-body base indent) update the
    tracked state; stores inside an arm may be dropped when they match
    it (the path to them passed the recording store) but never record —
    the not-taken path would disagree.  Any assignment to a local
    invalidates homes caching that token.
    """
    homes: dict[str, str] = {}
    out: list[str] = []
    for line in lines:
        m = _SPILL_RE.match(line)
        if m:
            ind, home, val = m.group(1), m.group(2), m.group(3)
            if homes.get(home) == val:
                continue
            if len(ind) == 4:
                homes[home] = val
            else:
                homes.pop(home, None)
            out.append(line)
            continue
        t = _TARGET_RE.match(line)
        if t:
            token = t.group(1)
            for home in [h for h, v in homes.items() if v == token]:
                del homes[home]
        out.append(line)
    return out


def _drop_adjacent_syncs(lines: list[str]) -> list[str]:
    """A state sync immediately shadowed by another (same indent, nothing
    between) is dead; keep only the later one."""
    out: list[str] = []
    for line in lines:
        stripped = line.lstrip()
        if (
            stripped.startswith("st[:] = (")
            and out
            and out[-1].lstrip().startswith("st[:] = (")
            and len(out[-1]) - len(out[-1].lstrip())
            == len(line) - len(stripped)
        ):
            out.pop()
        out.append(line)
    return out


def _drop_dead_stores(lines: list[str]) -> list[str]:
    """Remove pure assignments to SSA locals that are never read.

    Only plain ``name = expr`` lines where ``name`` matches the
    emitters' SSA shape (letters + instruction index), ``expr`` contains
    no call and no subscript (nothing that could raise or mutate), and
    ``name`` occurs nowhere else in the function.  Iterates to a
    fixpoint since a drop can orphan earlier defs.
    """
    while True:
        counts = Counter(
            word for line in lines for word in _WORD_RE.findall(line)
        )
        kept: list[str] = []
        changed = False
        for line in lines:
            m = _SSA_ASSIGN_RE.match(line)
            if (
                m
                and counts[m.group(1)] == 1
                and "[" not in m.group(2)
                and not _CALL_RE.search(m.group(2))
            ):
                changed = True
                continue
            kept.append(line)
        if not changed:
            return kept
        lines = kept


def _peephole(lines: list[str]) -> list[str]:
    """Conservative order-preserving cleanup of emitted trace source.

    Textual and order preserving, following the ``mini32_compiler.py``
    exemplar: every rule either provably preserves the generated code's
    observable behaviour or does not fire.
    """
    lines = _dedup_spills(lines)
    lines = [_fold_line(line) for line in lines]
    lines = _drop_adjacent_syncs(lines)
    return _drop_dead_stores(lines)


# --- compilation, installation, and on-disk persistence -----------------------


def compile_trace(table: Any, head: int) -> Any | None:
    """Stitch, peephole, compile, and install the trace headed at ``head``.

    Returns the installed ``(function, n_insts)`` entry, or None when no
    profitable chain exists.  The entry replaces ``table.blocks[head]``
    so both dispatchers pick it up with their normal lookup.
    """
    if len(table.traces_meta) >= MAX_TRACES:
        return None
    segments = form_chain(table, head)
    if segments is None:
        return None
    source = _emit_trace(
        table.engine, table.geom, table.params, head, segments, table.sched
    )
    code = blockjit._compile_unit(
        source, f"<tracejit:{table.engine}:{head:#x}>"
    )
    n_insts = sum(len(insts) for _, insts, _ in segments)
    entry = _install(table, head, code, len(segments), n_insts)
    _store_traces(table, head)
    return entry


def _install(
    table: Any, head: int, code: Any, n_blocks: int, n_insts: int,
) -> Any:
    entry = (table.function(code), n_insts)
    table.blocks[head] = entry
    table.traces_meta[head] = (code.co_name, n_blocks, n_insts)
    table.trace_codes[head] = code
    return entry


def _trace_path(table: Any) -> "Path":
    from repro.snapshot import runcache

    return (
        runcache.cache_dir() / "blockjit"
        / f"{table.engine}-{table.disk_key}.traces.bin"
    )


def _trace_header(table: Any) -> tuple[Any, ...]:
    from repro.snapshot.state import FORMAT_VERSION

    return (
        FORMAT_VERSION, blockjit.CODEGEN_VERSION, TRACE_CODEGEN_VERSION,
        table.engine,
    )


def _store_traces(table: Any, head: int) -> None:
    """Persist the trace just installed at ``head``.

    Appended as one record to the table's trace blob when that blob is
    known good; otherwise every installed trace goes into a new blob.
    The already-compiled code objects are marshalled — nothing is
    recompiled here.
    """
    from repro.snapshot import runcache

    if runcache.cache_disabled():
        return
    path, header = _trace_path(table), _trace_header(table)

    def body(heads: Any) -> dict[int, tuple[int, int, Any]]:
        return {
            h: (table.traces_meta[h][1], table.traces_meta[h][2],
                table.trace_codes[h])
            for h in heads
        }

    if table.traces_stored and blockjit.write_blob(
        path, header, body([head]), append=True
    ):
        runcache.STATS["tracejit_stores"] += 1
    elif blockjit.write_blob(
        path, header, body(table.traces_meta), append=False
    ):
        table.traces_stored = True
        runcache.STATS["tracejit_stores"] += 1


def load_traces(table: Any) -> None:
    """Warm-load persisted traces into ``table`` (install over blocks)."""
    from repro.snapshot import runcache

    if runcache.cache_disabled():
        return
    try:
        data = _trace_path(table).read_bytes()
    except OSError:
        data = b""
    bodies = blockjit.read_blob(data, _trace_header(table))
    if bodies is None:
        runcache.STATS["tracejit_misses"] += 1
        return
    for traces in bodies:
        for head, (n_blocks, n_insts, code) in traces.items():
            _install(table, head, code, n_blocks, n_insts)
    table.traces_stored = True
    runcache.STATS["tracejit_hits"] += 1


__all__ = [
    "HOT_THRESHOLD",
    "MAX_TRACE_BLOCKS",
    "MAX_TRACE_INSTS",
    "MAX_TRACES",
    "TRACE_CODEGEN_VERSION",
    "compile_trace",
    "form_chain",
    "load_traces",
]
