"""Basic-block JIT: compile straight-line runs of the fast plan to Python.

The PR 1 threaded-code plan (:mod:`repro.isa.fastexec`) still pays one
Python call per instruction plus the interpreter's per-instruction
bookkeeping.  This module goes one step further: it groups the plan into
basic blocks (boundaries from :func:`repro.wcet.cfg.build_cfg`, with a
linear fallback when the CFG analysis rejects a program) and emits one
specialized Python function *per block*, each compiled on its own, in
two variants: with a watchdog check after every instruction (run while
the watchdog is live) and without (run while it is dead, which is
always except in the VISA runtime's complex-mode phase).

Within a generated block:

* register values live in locals (promoted on first read, rebound on
  write) and are spilled back to the architectural arrays only at block
  exit or immediately before any operation that can raise (MMIO access,
  misaligned/text-range data access, DIV/REM/FDIV/FSQRT/FTOI),
* the in-order timing recurrence and the OOO constraint system are
  emitted inline with SSA-style names, mirroring the hand-specialized
  hot loops in :mod:`repro.pipelines.inorder` and
  :mod:`repro.pipelines.ooo.core` statement for statement, and
* event counters whose increments are statically known (fetch, regread,
  regwrite, retired) become literal offsets baked into the exit writes.

The contract is *bit-identical observable state*: architectural
registers and memory, cycle counts, cache statistics, event counters,
watchdog/exception cycles, and fault side effects all match the
interpreter fast path (and therefore ``run_reference``) exactly.  The
single documented exclusion: a ``TypeError`` raised by arithmetic on a
float-contaminated integer register (already undefined behaviour in the
reference paths) may leave partially-updated batched state.

The compiled block table is memoized on the :class:`~repro.isa.program.
Program` and persisted under ``.repro_cache/blockjit/`` keyed by the
program digest, cache geometry, and pipeline parameters (same
``FORMAT_VERSION``/sha256 mechanism as the run cache), as one marshal
blob of the blocks' code objects led by the interpreter's bytecode
magic number (:func:`read_blob`).  Opt-out: ``REPRO_JIT_TIER=off``,
``REPRO_JIT=0`` or ``--no-jit``, threaded as an explicit parameter into
:func:`tier_override`/:func:`jit_override` — never ``os.environ``
mutation.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import marshal
import os
import weakref
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import astuple
from types import CodeType, FunctionType
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from repro.errors import AnalysisError, ReproError, SimulationError
from repro.isa import layout
from repro.isa.fastexec import (
    K_ALU,
    K_BRANCH,
    K_HALT,
    K_INDIRECT,
    K_JUMP,
    K_LOAD,
    K_STORE,
)
from repro.isa.opcodes import Op
from repro.isa.semantics import _fdiv, _fsqrt, _trunc_div, _trunc_rem
from repro.pipelines.inorder_engine import BRANCH_PENALTY, _FRONT_DEPTH
from repro.wcet.cfg import build_cfg

if TYPE_CHECKING:
    from pathlib import Path

    from repro.isa.program import Program

#: Bump when the emitted code changes shape; stale disk entries miss.
CODEGEN_VERSION = 3

#: Bytecode magic of this interpreter: leads every codegen-cache blob,
#: since marshalled code only loads in the Python that wrote it.
_MAGIC = importlib.util.MAGIC_NUMBER

_M = 0xFFFFFFFF
_S = 0x80000000
_MMIO = layout.MMIO_BASE
_REDIRECT_OFFSET = BRANCH_PENALTY - _FRONT_DEPTH + 1
_RUNAWAY = 200_000_000

# Event-scheduler width-map hygiene: every _PRUNE_STRIDE committed
# instructions, cycle-keyed dispatch/issue/port maps larger than
# _PRUNE_MIN entries are rebuilt with dead (pre-frontier) keys dropped.
_PRUNE_STRIDE = 8192
_PRUNE_MIN = 512

_CONTROL_KINDS = (K_BRANCH, K_JUMP, K_INDIRECT, K_HALT)

#: Live BlockTables (weak): ``disk_cache_stats`` aggregates their trace
#: runtime counters so ``repro cache stats`` can show completions and
#: the side-exit-pc breakdown for the current process.
_LIVE_TABLES: "weakref.WeakSet[Any]" = weakref.WeakSet()

BlockFn = Callable[..., Any]
BlockEntry = tuple[BlockFn, int]
#: (checked variant?, block-start pc) -> (instruction count, code).
Units = dict[tuple[bool, int], tuple[int, CodeType]]

# --- tier selection (REPRO_JIT_TIER / REPRO_JIT / --no-jit) ------------------

#: Recognized execution tiers, slowest to fastest.
TIERS = ("off", "block", "trace")

#: Tier used when nothing (env, override) says otherwise.  The block
#: tier: trace formation pays seconds of cold codegen per program and
#: engine, which only amortizes on long or cache-warm runs, so the
#: trace tier is opt-in (``REPRO_JIT_TIER=trace`` / ``--jit-tier``).
DEFAULT_TIER = "block"

# Holds either a tier name, a legacy boolean (from jit_override), or None.
_JIT_OVERRIDE: ContextVar[str | bool | None] = ContextVar(
    "repro_jit", default=None
)


def _env_tier() -> str:
    """Tier selected by the environment alone.

    ``REPRO_JIT_TIER`` (off/block/trace) supersedes the boolean
    ``REPRO_JIT``; an unrecognized value falls through to the legacy
    flag, and ``REPRO_JIT=0`` still disables compilation entirely.
    """
    tier = os.environ.get("REPRO_JIT_TIER", "").strip().lower()
    if tier in TIERS:
        return tier
    if os.environ.get("REPRO_JIT", "") == "0":
        return "off"
    return DEFAULT_TIER


def jit_tier() -> str:
    """The active JIT tier: ``"off"``, ``"block"``, or ``"trace"``.

    An active :func:`tier_override`/:func:`jit_override` wins; otherwise
    the environment decides (see :func:`_env_tier`).  A legacy boolean
    override maps ``False`` to ``"off"`` and ``True`` to the environment
    tier, promoted to the default when the environment says off.
    """
    override = _JIT_OVERRIDE.get()
    if override is None:
        return _env_tier()
    if override is False:
        return "off"
    if override is True:
        tier = _env_tier()
        return tier if tier != "off" else DEFAULT_TIER
    return override


def jit_enabled() -> bool:
    """True when block/trace compilation should be used for full runs."""
    return jit_tier() != "off"


@contextmanager
def tier_override(value: str | None) -> Iterator[None]:
    """Scoped tier override (``None`` defers to the environment).

    ContextVar-based like ``runcache.no_cache_override`` so concurrent
    in-process callers never observe each other's setting.
    """
    if value is not None and value not in TIERS:
        raise ValueError(f"unknown JIT tier {value!r}")
    token = _JIT_OVERRIDE.set(value)
    try:
        yield
    finally:
        _JIT_OVERRIDE.reset(token)


@contextmanager
def jit_override(value: bool | None) -> Iterator[None]:
    """Scoped JIT on/off override (``None`` defers to the environment).

    The boolean PR 5 interface, kept for ``--no-jit`` and existing
    callers: ``False`` forces the interpreter, ``True`` forces the
    environment-selected tier (default tier when the environment says
    off), ``None`` defers entirely.
    """
    token = _JIT_OVERRIDE.set(value)
    try:
        yield
    finally:
        _JIT_OVERRIDE.reset(token)


# --- expression text builders (must mirror fastexec closures exactly) --------


class _Regs:
    """Register promotion tracker: flat key (int n -> n, fp n -> 32+n).

    Each register is represented by TEXT: a stable local name (``R5`` /
    ``F5``), an int literal (constant-folded writes), or its home array
    slot before first use.  Reads of ``r0`` fold to ``0``.  Writes mark
    the key dirty; :meth:`spill` emits the home-array writebacks.
    """

    def __init__(self, lines: list[str]) -> None:
        self._lines = lines
        # key -> ("name", text) | ("const", value)
        self._val: dict[int, tuple[str, Any]] = {}
        self.dirty: set[int] = set()

    @staticmethod
    def _home(key: int) -> str:
        return f"ir[{key}]" if key < 32 else f"fr[{key - 32}]"

    @staticmethod
    def _name(key: int) -> str:
        return f"R{key}" if key < 32 else f"F{key - 32}"

    def read(self, key: int, ind: str) -> str:
        """Text for the current value of ``key`` (promoting on first read)."""
        if key == 0:
            return "0"
        state = self._val.get(key)
        if state is None:
            name = self._name(key)
            self._lines.append(f"{ind}{name} = {self._home(key)}")
            self._val[key] = ("name", name)
            return name
        if state[0] == "const":
            value = state[1]
            return f"({value})" if value < 0 else str(value)
        return str(state[1])

    def read_const(self, key: int) -> int | None:
        """The statically-known int value of ``key``, if any (r0 -> 0)."""
        if key == 0:
            return 0
        state = self._val.get(key)
        if state is not None and state[0] == "const":
            return int(state[1])
        return None

    def write_name(self, key: int) -> str:
        """Local name to assign ``key``'s new value into (marks dirty)."""
        name = self._name(key)
        self._val[key] = ("name", name)
        self.dirty.add(key)
        return name

    def write_const(self, key: int, value: int) -> None:
        """Record a constant write (no code emitted until spill)."""
        self._val[key] = ("const", value)
        self.dirty.add(key)

    def prepare_write(self, key: int, ind: str) -> None:
        """Materialize ``key``'s *old* value into its home local.

        Needed before a conditional/faulting write site (load dest): a
        sync emitted between :meth:`write_name` and the actual
        assignment spills the local name, which must therefore already
        hold the pre-write architectural value on every path.
        """
        state = self._val.get(key)
        if state is not None and state[0] == "name":
            return
        name = self._name(key)
        if state is None:
            self._lines.append(f"{ind}{name} = {self._home(key)}")
            self._val[key] = ("name", name)
        else:  # pending const: keep the dirty flag, value moves to the local
            value = state[1]
            self._lines.append(f"{ind}{name} = {value}")
            self._val[key] = ("name", name)

    def spill_lines(self, ind: str, commit: bool = False) -> list[str]:
        """Home-array writebacks for every dirty register.

        ``commit`` may only be True for an *unconditional* spill site
        (function-body base indent): every later line is then reached
        only after these writebacks ran, so the dirty set can be
        cleared and later syncs skip registers written before this
        point.  Conditional spill sites (inside an arm) must keep the
        dirty set — the not-taken path never stored the values.
        """
        out = []
        for key in sorted(self.dirty):
            state = self._val[key]
            text = str(state[1]) if state[0] == "const" else state[1]
            out.append(f"{ind}{self._home(key)} = {text}")
        if commit:
            self.dirty.clear()
        return out


#: ALU ops whose generated expression can raise and therefore need a
#: state sync before evaluation (fault-state parity with the reference).
_MAY_RAISE_OPS = frozenset({Op.DIV, Op.REM, Op.FDIV, Op.FSQRT, Op.FTOI})

#: Pure integer ALU ops safe to constant-fold at codegen time by
#: evaluating the *generated expression itself* (so folded values are
#: identical to runtime values by construction).
_FOLDABLE_OPS = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR, Op.NOR, Op.SLT,
    Op.SLTU, Op.SLL, Op.SRL, Op.SRA, Op.SLLV, Op.SRLV, Op.SRAV,
    Op.ADDI, Op.SLTI, Op.SLTIU, Op.ANDI, Op.ORI, Op.XORI, Op.LUI,
})

_FOLD_GLOBALS = {"_M": _M, "_S": _S, "__builtins__": {}}


def _alu_expr(inst: Any, regs: _Regs, ind: str) -> tuple[str, bool]:
    """(expression text, may_raise) for a K_ALU instruction.

    The text mirrors the matching :mod:`repro.isa.fastexec` closure body
    token for token, with register references replaced by the tracker's
    current text.
    """
    op = inst.op

    def ri(num: int) -> str:
        return regs.read(num, ind)

    def rf(num: int) -> str:
        return regs.read(32 + num, ind)

    s, t = inst.rs, inst.rt
    if op is Op.ADD:
        return f"(({ri(s)} + {ri(t)} + _S) & _M) - _S", False
    if op is Op.SUB:
        return f"(({ri(s)} - {ri(t)} + _S) & _M) - _S", False
    if op is Op.MUL:
        return f"(({ri(s)} * {ri(t)} + _S) & _M) - _S", False
    if op is Op.AND:
        return f"((({ri(s)} & {ri(t)}) + _S) & _M) - _S", False
    if op is Op.OR:
        return f"((({ri(s)} | {ri(t)}) + _S) & _M) - _S", False
    if op is Op.XOR:
        return f"((({ri(s)} ^ {ri(t)}) + _S) & _M) - _S", False
    if op is Op.DIV:
        return f"((_trunc_div({ri(s)}, {ri(t)}) + _S) & _M) - _S", True
    if op is Op.REM:
        return f"((_trunc_rem({ri(s)}, {ri(t)}) + _S) & _M) - _S", True
    if op is Op.NOR:
        return f"((~({ri(s)} | {ri(t)}) + _S) & _M) - _S", False
    if op is Op.SLT:
        return f"1 if {ri(s)} < {ri(t)} else 0", False
    if op is Op.SLTU:
        return f"1 if ({ri(s)} & _M) < ({ri(t)} & _M) else 0", False
    if op is Op.SLL:
        return f"(((({ri(t)} & _M) << {inst.shamt}) + _S) & _M) - _S", False
    if op is Op.SRL:
        return f"(((({ri(t)} & _M) >> {inst.shamt}) + _S) & _M) - _S", False
    if op is Op.SRA:
        return f"((({ri(t)} + _S) & _M) - _S) >> {inst.shamt}", False
    if op is Op.SLLV:
        return f"(((({ri(t)} & _M) << ({ri(s)} & 0x1F)) + _S) & _M) - _S", False
    if op is Op.SRLV:
        return f"(((({ri(t)} & _M) >> ({ri(s)} & 0x1F)) + _S) & _M) - _S", False
    if op is Op.SRAV:
        return f"((({ri(t)} + _S) & _M) - _S) >> ({ri(s)} & 0x1F)", False
    if op is Op.ADDI:
        return f"(({ri(s)} + {inst.imm} + _S) & _M) - _S", False
    if op is Op.SLTI:
        return f"1 if {ri(s)} < {inst.imm} else 0", False
    if op is Op.SLTIU:
        return f"1 if ({ri(s)} & _M) < {inst.imm & _M} else 0", False
    if op is Op.ANDI:
        return f"{ri(s)} & {inst.imm & 0xFFFF}", False
    if op is Op.ORI:
        return f"((({ri(s)} & _M) | {inst.imm & 0xFFFF}) + _S & _M) - _S", False
    if op is Op.XORI:
        return f"((({ri(s)} & _M) ^ {inst.imm & 0xFFFF}) + _S & _M) - _S", False
    if op is Op.LUI:
        return str((((inst.imm & 0xFFFF) << 16) + _S & _M) - _S), False
    if op is Op.FADD:
        return f"{rf(s)} + {rf(t)}", False
    if op is Op.FSUB:
        return f"{rf(s)} - {rf(t)}", False
    if op is Op.FMUL:
        return f"{rf(s)} * {rf(t)}", False
    if op is Op.FDIV:
        return f"_fdiv({rf(s)}, {rf(t)})", True
    if op is Op.FSQRT:
        return f"_fsqrt({rf(s)})", True
    if op is Op.FABS:
        return f"abs({rf(s)})", False
    if op is Op.FNEG:
        return f"-{rf(s)}", False
    if op is Op.FMOV:
        return f"{rf(s)}", False
    if op is Op.FEQ:
        return f"1 if {rf(s)} == {rf(t)} else 0", False
    if op is Op.FLT_:
        return f"1 if {rf(s)} < {rf(t)} else 0", False
    if op is Op.FLE:
        return f"1 if {rf(s)} <= {rf(t)} else 0", False
    if op is Op.ITOF:
        return f"float({ri(s)})", False
    if op is Op.FTOI:
        return f"((int({rf(s)}) + _S) & _M) - _S", True
    raise AssertionError(f"unhandled ALU op {op}")


def _alu_fold(inst: Any, regs: _Regs) -> int | None:
    """Constant-fold a pure int ALU op when every register source is known.

    Folds by evaluating the generated expression with source texts that
    are themselves literals, so the folded value is identical to what
    the emitted code would compute.
    """
    if inst.op not in _FOLDABLE_OPS:
        return None
    for bank, num in inst.sources:
        key = num if bank == "i" else 32 + num
        if regs.read_const(key) is None:
            return None
    expr, _ = _alu_expr(inst, regs, "")  # const reads: no promotion emitted
    return int(eval(expr, dict(_FOLD_GLOBALS)))  # noqa: S307 - own codegen


def _branch_expr(inst: Any, regs: _Regs, ind: str) -> str:
    """Condition text for a K_BRANCH instruction (mirrors ``_branch``)."""
    op = inst.op
    a = regs.read(inst.rs, ind)
    if op is Op.BLEZ:
        return f"{a} <= 0"
    if op is Op.BGTZ:
        return f"{a} > 0"
    b = regs.read(inst.rt, ind)
    if op is Op.BEQ:
        return f"{a} == {b}"
    if op is Op.BNE:
        return f"{a} != {b}"
    if op is Op.BLT:
        return f"{a} < {b}"
    return f"{a} >= {b}"


def _wrap_s32(value: int) -> int:
    return ((value + _S) & _M) - _S


# --- in-order block emitter --------------------------------------------------
#
# Generated signature: def _b{pc:x}(ir, fr, ready, st, env)
#
# st (list, 22 slots): 0..7 the fast-timing vector [last_fetch, redirect,
#   ex_free, mem_free, prev_mem_start, front0, front1, front2], 8 itick,
#   9 dtick, 10 ihits, 11 imiss, 12 dhits, 13 dmiss, 14 fetched,
#   15 c_regread, 16 c_regwrite, 17 c_dcache, 18 pc, 19 executed,
#   20 wd (honor and not masked and wd_enabled), 21 wd_expiry.
# env (tuple, 14): words, words.get, icache sets, dcache sets, mmio,
#   mmio.read, mmio.write, machine.data_read, machine.data_write,
#   stall_cycles, timing base, honor_watchdog, gshare-train-or-None,
#   indirect-train-or-None.
#
# Return protocol: int -> next block pc (full block retired); "h" -> halt;
# "w" -> watchdog.  String exits (and faults) leave the authoritative
# pc/executed in st[18]/st[19]; every may-raise operation is preceded by a
# full st write so faults are observationally identical to the reference.

_INORDER_ENV = (
    "words, words_get, isets, dsets, mmio, mmio_read, mmio_write, "
    "data_read, data_write, stall, base, honor, tg, ti"
)
_INORDER_ST = (
    "lf, rd, xf, mf, pm, q0, q1, q2, itick, dtick, ihits, imiss, dhits, "
    "dmiss, cfe, crr, crw, cdc, _pc, nex, wd, wdx"
)


def _ctr(name: str, add: int) -> str:
    return f"{name} + {add}" if add else name


class _Emitter:
    """What the in-order and OOO block emitters share: the line buffer,
    register tracker, inline LRU cache probes, architectural side
    effects, and the watchdog tail of each instruction."""

    def __init__(self, geom: "_Geometry") -> None:
        self.g = geom
        self.lines: list[str] = []
        self.regs = _Regs(self.lines)
        self.crr = 0
        self.crw = 0
        self.nex = 0
        # Elide per-inst watchdog checks (the unchecked block variant and
        # traces: the dispatcher only enters them with wd falsy);
        # ``_wd_reload`` marks the insts that may flip wd (MMIO stores)
        # and need a guarded exit instead.
        self._wd_elide = False
        self._wd_reload = False

    def emit(self, ind: str, text: str) -> None:
        self.lines.append(ind + text)

    def _sync(self, ind: str, pc_expr: str, commit: bool | None = None) -> None:
        raise NotImplementedError

    def _exit(self, ind: str, pc_expr: str, ret: str) -> None:
        self._sync(ind, pc_expr)
        self.emit(ind, f"return {ret}")

    def _lru(
        self, ind: str, w: str, key: str, assoc: int, cache: str,
        hit: list[str], miss: list[str],
    ) -> None:
        """Inline LRU access of ``key`` in the set dict ``w`` of the
        ``cache`` ("i"/"d") cache, then the caller's hit/miss lines."""
        b = ind + "    "
        self.emit(ind, f"if {key} in {w}:")
        self.emit(b, f"{w}[{key}] = {cache}tick")
        self.emit(b, f"{cache}tick += 1")
        self.emit(b, f"{cache}hits += 1")
        for line in hit:
            self.emit(b, line)
        self.emit(ind, "else:")
        self.emit(b, f"{w}[{key}] = {cache}tick")
        self.emit(b, f"{cache}tick += 1")
        self.emit(b, f"if len({w}) > {assoc}:")
        self.emit(b + "    ", f"del {w}[min({w}, key={w}.__getitem__)]")
        self.emit(b, f"{cache}miss += 1")
        for line in miss:
            self.emit(b, line)

    def _dcache(
        self, ind: str, i: int, a: str, hit: list[str], miss: list[str],
    ) -> None:
        """Inline D-cache access for address text ``a``."""
        g = self.g
        self.emit(ind, f"b{i} = {a} >> {g.dshift}")
        self.emit(ind, f"w = dsets[b{i} % {g.dnsets}]")
        self._lru(ind, "w", f"b{i}", g.dassoc, "d", hit, miss)

    def _alu(self, i: int, pc: int, inst: Any, wbank: int, dkey: int) -> None:
        """Execute a K_ALU instruction (constant-folded when possible)."""
        regs = self.regs
        folded = _alu_fold(inst, regs)
        if folded is not None:
            if wbank != 0:
                regs.write_const(dkey, folded)
            return
        expr, may_raise = _alu_expr(inst, regs, "    ")
        if may_raise:
            self._sync("    ", str(pc))
        if wbank != 0:
            self.emit("    ", f"{regs.write_name(dkey)} = {expr}")
        elif may_raise:
            self.emit("    ", f"v{i} = {expr}")

    def _mem_guard(self, a: str) -> str:
        """Misaligned or text-range data access: the machine raises."""
        return f"if {a} & 3 or {self.g.tbase} <= {a} < {self.g.text_end}:"

    def _load(
        self, i: int, pc: int, a: str, wbank: int, dkey: int,
        mmio_static: bool | None, mmio_now: str, mem_now: str,
    ) -> None:
        """A load's architectural side effects (MMIO or memory read)."""
        ind = "    "
        regs = self.regs
        if wbank != 0:
            regs.prepare_write(dkey, ind)
            dest = regs.write_name(dkey)
        else:
            dest = f"v{i}"
        mm = f"{dest} = mmio_read({a}, {mmio_now})"
        mem_read = f"data_read({a}, {mem_now})"
        mem_val = f"{dest} = words_get({a}, 0)"
        if mmio_static is True:
            self._sync(ind, str(pc), commit=False)
            self.emit(ind, mm)
        elif mmio_static is False:
            self.emit(ind, self._mem_guard(a))
            self._sync(ind + "    ", str(pc))
            self.emit(ind + "    ", mem_read)
            self.emit(ind, mem_val)
        else:
            self.emit(ind, f"if o{i}:")
            self._sync(ind + "    ", str(pc))
            self.emit(ind + "    ", mm)
            self.emit(ind, "else:")
            self.emit(ind + "    ", self._mem_guard(a))
            self._sync(ind + "        ", str(pc))
            self.emit(ind + "        ", mem_read)
            self.emit(ind + "    ", mem_val)

    def _store(
        self, pc: int, a: str, vt: str, mmio_static: bool | None,
        mmio_now: str, mem_now: str, commit: Callable[[str], None],
    ) -> None:
        """A store's architectural side effects: an MMIO write (which may
        arm the watchdog) or a memory write, whose remaining memory-side
        lines ``commit(indent)`` emits."""
        ind = "    "
        mm = [
            f"mmio_write({a}, {vt}, {mmio_now})",
            "wd = honor and not mmio.exceptions_masked and mmio._wd_enabled",
            "wdx = mmio._wd_expiry",
        ]
        mem_write = f"data_write({a}, {vt}, {mem_now})"
        if mmio_static is True:
            self._wd_reload = True
            self._sync(ind, str(pc))
            for line in mm:
                self.emit(ind, line)
        elif mmio_static is False:
            self.emit(ind, self._mem_guard(a))
            self._sync(ind + "    ", str(pc))
            self.emit(ind + "    ", mem_write)
            commit(ind)
        else:
            self._wd_reload = True
            self.emit(ind, f"if {a} >= {_MMIO}:")
            self._sync(ind + "    ", str(pc))
            for line in mm:
                self.emit(ind + "    ", line)
            self.emit(ind, "else:")
            self.emit(ind + "    ", self._mem_guard(a))
            self._sync(ind + "        ", str(pc))
            self.emit(ind + "        ", mem_write)
            commit(ind + "    ")

    def _store_words(self, ind: str, a: str, vt: str) -> None:
        """The memory-image store with the reference's int wrap check."""
        try:
            const = int(vt)
        except ValueError:
            self.emit(ind, f"if {vt}.__class__ is int:")
            self.emit(ind + "    ",
                      f"words[{a}] = (({vt} + {_S}) & {_M}) - {_S}")
            self.emit(ind, "else:")
            self.emit(ind + "    ", f"words[{a}] = {vt}")
        else:
            self.emit(ind, f"words[{a}] = {_wrap_s32(const)}")

    def _next_pc(self, i: int, fi: Any) -> str:
        """Text of the pc after control instruction ``fi`` (links
        jump-and-link targets); ``npc`` for everything else."""
        kind, dkey, wbank, npc, starget = fi[0], fi[3], fi[4], fi[8], fi[9]
        if kind == K_BRANCH:
            self.emit("    ", f"n{i} = {starget} if k{i} else {npc}")
            return f"n{i}"
        if kind == K_JUMP or kind == K_INDIRECT:
            if wbank == 1:
                self.regs.write_const(dkey, npc)
            return str(starget) if kind == K_JUMP else f"g{i}"
        return str(npc)

    def _tail(self, kind: int, now: str, pc_next: str, is_last: bool) -> None:
        """Exits after an instruction: halt, watchdog expiry at ``now``
        (per instruction, or after a watchdog-arming MMIO store when
        checks are elided), and the block end."""
        ind = "    "
        if kind == K_HALT:
            self._exit(ind, pc_next, '"h"')
            return
        if not self._wd_elide:
            self.emit(ind, f"if wd and {now} >= wdx:")
            self._exit(ind + "    ", pc_next, '"w"')
        elif self._wd_reload:
            # Unchecked code: wd was falsy at entry, and only an MMIO
            # store can flip it.  Reproduce the checked expiry test here,
            # then exit — the dispatcher resumes at pc_next in the
            # checked variants.
            self.emit(ind, "if wd:")
            self.emit(ind + "    ", f"if {now} >= wdx:")
            self._exit(ind + "        ", pc_next, '"w"')
            if not is_last:
                self._exit(ind + "    ", pc_next, pc_next)
        if is_last:
            self._exit(ind, pc_next, pc_next)


class _InOrderEmitter(_Emitter):
    """Emit one in-order basic-block function (see layout comment above)."""

    def __init__(self, geom: "_Geometry") -> None:
        super().__init__(geom)
        # Semantic timing-state names -> current text (SSA per instruction).
        self.nm = {k: k for k in
                   ("lf", "rd", "xf", "mf", "pm", "q0", "q1", "q2")}
        self.cfe = 0
        # Statically-guaranteed icache hits, batched: pending tick count and
        # last way-write offset per (set, block).
        self.ip_count = 0
        self.ip_ways: dict[tuple[int, int], int] = {}
        self._last_line: dict[int, int] = {}

    # -- helpers --

    def _pending_way_lines(self, ind: str) -> list[str]:
        out = []
        for (setk, blk), off in self.ip_ways.items():
            tick = _ctr("itick", off)
            out.append(f"{ind}iw{setk}[{blk}] = {tick}")
        return out

    def _materialize_icache(self, ind: str) -> None:
        """Apply batched guaranteed-hit icache accesses (mutating)."""
        if not self.ip_count:
            return
        self.lines.extend(self._pending_way_lines(ind))
        self.emit(ind, f"itick += {self.ip_count}")
        self.emit(ind, f"ihits += {self.ip_count}")
        self.ip_count = 0
        self.ip_ways.clear()

    def _sync(self, ind: str, pc_expr: str, commit: bool | None = None) -> None:
        """Write full architectural+batched state to st (fault parity).

        Never clears codegen-side pending icache state: on raising paths
        nothing follows, and on continuing paths the pending way-writes
        are idempotent re-writes.  Register spills at base indent are
        unconditional, so by default they *do* commit (clear the dirty
        set) and later syncs skip them; spills inside an arm repeat at
        the next sync.  ``commit=False`` is required at the one site
        where a destination register is already marked dirty but its
        runtime assignment only happens *after* the sync (statically
        known MMIO loads): committing there would lose the writeback.
        """
        self.lines.extend(self._pending_way_lines(ind))
        if commit is None:
            commit = ind == "    "
        self.lines.extend(self.regs.spill_lines(ind, commit=commit))
        n = self.nm
        self.emit(ind, "st[:] = (" + ", ".join((
            n["lf"], n["rd"], n["xf"], n["mf"], n["pm"],
            n["q0"], n["q1"], n["q2"],
            _ctr("itick", self.ip_count), "dtick",
            _ctr("ihits", self.ip_count), "imiss", "dhits", "dmiss",
            _ctr("cfe", self.cfe), _ctr("crr", self.crr),
            _ctr("crw", self.crw), "cdc",
            pc_expr, _ctr("nex", self.nex), "wd", "wdx",
        )) + ")")

    def _icache(self, i: int, pc: int, f: str) -> None:
        """Inline I-cache access for the fetch of ``pc`` (ind level 1)."""
        g = self.g
        blk = pc >> g.ishift
        setk = blk % g.insets
        if self._last_line.get(setk) == blk:
            # Guaranteed hit: the set's previous access was this line and
            # nothing touched the set since -> batch tick/hit/way-write.
            self.ip_ways[(setk, blk)] = self.ip_count
            self.ip_count += 1
        else:
            self._materialize_icache("    ")
            self._lru("    ", f"iw{setk}", str(blk), g.iassoc, "i", [],
                      [f"{f} += stall"])
            self._last_line[setk] = blk
        self.cfe += 1

    # -- main entry --

    def emit_block(self, fname: str, insts: list[tuple[int, Any]]) -> str:
        """Generate the source of block function ``fname`` for ``insts``."""
        head = [
            f"def {fname}(ir, fr, ready, st, env):",
            f"    ({_INORDER_ENV}) = env",
            f"    ({_INORDER_ST}) = st",
        ]
        g = self.g
        sets_used = sorted({
            (ipc >> g.ishift) % g.insets for ipc, _ in insts
        })
        for setk in sets_used:
            head.append(f"    iw{setk} = isets[{setk}]")
        for idx, (ipc, fi) in enumerate(insts):
            self._inst(idx, ipc, fi, is_last=idx == len(insts) - 1)
        return "\n".join(head + self.lines) + "\n"

    def _inst(self, i: int, pc: int, fi: Any, is_last: bool) -> None:
        (kind, _ex, src_keys, dkey, wbank, _dnum, nsrc, lat,
         _npc, _starget, ptaken, inst) = fi
        n = self.nm
        regs = self.regs
        ind = "    "
        self._wd_reload = False

        # -- fetch timing + I-cache (reference lines: fetch clamps then
        # `fetch += icache_extra`, emitted as `f += stall` on the miss arm).
        f = f"f{i}"
        self.emit(ind, f"{f} = {n['lf']} + 1")
        self.emit(ind, f"if {n['rd']} > {f}:")
        self.emit(ind + "    ", f"{f} = {n['rd']}")
        self.emit(ind, f"if {n['q0']} > {f}:")
        self.emit(ind + "    ", f"{f} = {n['q0']}")
        self._icache(i, pc, f)

        # -- execute section (specialized expression + dcache access) --
        a = f"a{i}"
        d = f"d{i}"
        const_addr: int | None = None
        mmio_static: bool | None = None
        vt = ""
        if kind == K_ALU:
            self._alu(i, pc, inst, wbank, dkey)
        elif kind == K_LOAD or kind == K_STORE:
            base_c = regs.read_const(inst.rs)
            if kind == K_LOAD:
                if base_c is not None:
                    const_addr = (base_c + inst.imm) & _M
                    a = str(const_addr)
                else:
                    s_txt = regs.read(inst.rs, ind)
                    self.emit(ind, f"{a} = ({s_txt} + {inst.imm}) & _M")
            else:
                s_txt = "" if base_c is not None else regs.read(inst.rs, ind)
                vt = (regs.read(32 + inst.rt, ind) if inst.op is Op.FSW
                      else regs.read(inst.rt, ind))
                if base_c is not None:
                    const_addr = (base_c + inst.imm) & _M
                    a = str(const_addr)
                else:
                    self.emit(ind, f"{a} = ({s_txt} + {inst.imm}) & _M")
            mmio_static = (const_addr >= _MMIO) if const_addr is not None \
                else None
            dc = ([f"{d} = 0"], [f"{d} = stall"])
            if mmio_static is True:
                self.emit(ind, f"{d} = 0")
            elif mmio_static is False:
                self.emit(ind, "cdc += 1")
                self._dcache(ind, i, a, *dc)
            elif kind == K_LOAD:
                self.emit(ind, f"o{i} = {a} >= {_MMIO}")
                self.emit(ind, f"if o{i}:")
                self.emit(ind + "    ", f"{d} = 0")
                self.emit(ind, "else:")
                self.emit(ind + "    ", "cdc += 1")
                self._dcache(ind + "    ", i, a, *dc)
            else:
                self.emit(ind, f"if {a} < {_MMIO}:")
                self.emit(ind + "    ", "cdc += 1")
                self._dcache(ind + "    ", i, a, *dc)
                self.emit(ind, "else:")
                self.emit(ind + "    ", f"{d} = 0")
        elif kind == K_BRANCH:
            k = f"k{i}"
            self.emit(ind, f"{k} = {_branch_expr(inst, regs, ind)}")
            self.emit(ind, "if tg is not None:")
            self.emit(ind + "    ", f"tg({pc}, {k})")
        elif kind == K_INDIRECT:
            s_txt = regs.read(inst.rs, ind)
            self.emit(ind, f"g{i} = {s_txt} & _M")
            self.emit(ind, "if ti is not None:")
            self.emit(ind + "    ", f"ti({pc}, g{i})")
        # K_JUMP / K_HALT: nothing to execute.

        # -- timing recurrence (inlined inorder_engine.advance) --
        x = f"x{i}"
        self.emit(ind, f"{x} = {f} + {_FRONT_DEPTH}")
        self.emit(ind, f"if {n['xf']} >= {x}:")
        self.emit(ind + "    ", f"{x} = {n['xf']} + 1")
        self.emit(ind, f"if {n['pm']} > {x}:")
        self.emit(ind + "    ", f"{x} = {n['pm']}")
        for sk in dict.fromkeys(src_keys):
            self.emit(ind, f"if ready[{sk}] > {x}:")
            self.emit(ind + "    ", f"{x} = ready[{sk}]")
        if lat == 1:
            xe = x
        else:
            xe = f"e{i}"
            self.emit(ind, f"{xe} = {x} + {lat - 1}")
        m = f"m{i}"
        self.emit(ind, f"{m} = {xe} + 1")
        self.emit(ind, f"if {n['mf']} >= {m}:")
        self.emit(ind + "    ", f"{m} = {n['mf']} + 1")
        if kind == K_LOAD or kind == K_STORE:
            if mmio_static is True:
                u = m  # dcache_extra statically 0
            else:
                u = f"u{i}"
                self.emit(ind, f"{u} = {m} + {d}")
        else:
            u = m
        if dkey >= 0:
            src = f"{u} + 1" if kind == K_LOAD else f"{xe} + 1"
            self.emit(ind, f"ready[{dkey}] = {src}")
        rd_old = n["rd"]
        if kind == K_BRANCH:
            r = f"r{i}"
            pen = f"{xe} + {_REDIRECT_OFFSET}"
            if ptaken:
                self.emit(ind, f"{r} = {rd_old} if k{i} else ({pen})")
            else:
                self.emit(ind, f"{r} = ({pen}) if k{i} else {rd_old}")
            n["rd"] = r
        elif kind == K_INDIRECT:
            r = f"r{i}"
            self.emit(ind, f"{r} = {xe} + {_REDIRECT_OFFSET}")
            n["rd"] = r
        n["q0"], n["q1"], n["q2"] = n["q1"], n["q2"], x
        n["lf"], n["xf"], n["mf"], n["pm"] = f, xe, u, m

        # -- architectural side effects --
        if kind == K_LOAD:
            self._load(i, pc, a, wbank, dkey, mmio_static, f"base + {m}",
                       f"base + {u} + 1")
        elif kind == K_STORE:
            self._store(pc, a, vt, mmio_static, f"base + {m}",
                        f"base + {u} + 1",
                        lambda b: self._store_words(b, a, vt))
        pc_next = self._next_pc(i, fi)

        # -- event counters (statically known; become exit literals) --
        self.crr += nsrc
        if dkey >= 0:
            self.crw += 1
        self.nex += 1
        self._tail(kind, f"base + {u} + 1", pc_next, is_last)


# --- OOO block emitter --------------------------------------------------------
#
# Generated signature: def _o{pc:x}(ir, fr, ready, st, env)
#
# st (list, 23 slots): 0 bus_free, 1 fetch_cycle, 2 group_done,
#   3 group_count, 4 group_block, 5 redirect, 6 last_commit (the
#   *committed* value: at a mid-instruction fault it lags the commit-stage
#   clamp exactly like ``committed_now`` in the reference), 7 itick,
#   8 dtick, 9 ihits, 10 imiss, 11 dhits, 12 dmiss, 13 c_group,
#   14 c_bpred, 15 c_regread, 16 c_regwrite, 17 c_dcache, 18 n_mem,
#   19 pc, 20 executed, 21 wd, 22 wd_expiry.
# env (tuple, 32): words, words.get, icache sets, dcache sets, mmio,
#   mmio.read, mmio.write, machine.data_read, machine.data_write,
#   stall penalty, timing base, honor_watchdog, gshare.predict,
#   gshare.update, indirect.predict, indirect.update, then the per-segment
#   scheduling structures: dis_used/dis_get, iss_used/iss_get,
#   com_used/com_get, port_used/port_get, rob_commits/rob_append,
#   iq_issues/iq_append, lsq_commits/lsq_append,
#   inflight_stores/inflight_stores.get.

_OOO_ENV = (
    "words, words_get, isets, dsets, mmio, mmio_read, mmio_write, "
    "data_read, data_write, pen, base, honor, gpredict, gupdate, "
    "ipredict, iupdate, dis_used, dis_get, iss_used, iss_get, com_used, "
    "com_get, port_used, port_get, rob_commits, rob_append, iq_issues, "
    "iq_append, lsq_commits, lsq_append, inflight_stores, get_inflight"
)
_OOO_ST = (
    "bf, fc, gd, gc, gb, rd, lc, itick, dtick, ihits, imiss, dhits, "
    "dmiss, cg, cbp, crr, crw, cdc, nmem, _pc, nex, wd, wdx"
)

# Event-mode layouts (REPRO_OOO_SCHED=event).  The st prefix [0..22] is
# identical to the scan layout — the dispatcher's finally-flush and its
# watchdog-variant choice index into it — with six appended
# slots: 23 ri (ROB ring cursor), 24 qi (IQ ring cursor), 25 li (LSQ
# ring cursor), 26 ccn (commits at the lc frontier cycle), 27 gh
# (gshare global history), 28 ih (indirect-predictor history).  env
# swaps the bound predictor methods and the commit width map + three
# occupancy deques for the raw predictor tables and preallocated rings
# (the generated code inlines predictor reads/updates and ring
# occupancy clamps; see ``_OOOEmitter``).

_OOO_ENV_EVENT = (
    "words, words_get, isets, dsets, mmio, mmio_read, mmio_write, "
    "data_read, data_write, pen, base, honor, gt, it, it_get, "
    "dis_used, dis_get, iss_used, iss_get, port_used, port_get, "
    "robq, iqq, lsqq, inflight_stores, get_inflight"
)
_OOO_ST_EVENT = _OOO_ST + ", ri, qi, li, ccn, gh, ih"


def _fwd_consumers(insts: list[tuple[int, Any]]) -> set[int]:
    """Indices of instructions whose result has an in-block consumer.

    The event emitter binds a producer's wakeup value to a local only
    when a later instruction in the same emission unit reads that
    register before it is rewritten (dependency metadata precomputed at
    decode time); producers without consumers write ``ready`` directly.
    """
    last_writer: dict[int, int] = {}
    useful: set[int] = set()
    for idx, (_ipc, fi) in enumerate(insts):
        src_keys, dkey = fi[2], fi[3]
        for sk in src_keys:
            j = last_writer.get(sk)
            if j is not None:
                useful.add(j)
        if dkey >= 0:
            last_writer[dkey] = idx
    return useful


class _OOOEmitter(_Emitter):
    """Emit one complex-mode basic-block function (layout comment above)."""

    def __init__(
        self, geom: "_Geometry", params: Any, event: bool = False,
    ) -> None:
        super().__init__(geom)
        self.p = params
        #: Event-driven scheduler codegen (REPRO_OOO_SCHED=event): ring
        #: occupancy clamps, commit-frontier retirement, inlined
        #: predictors, in-block producer forwarding.  Bit-identical to
        #: the scan form by construction (see docs/performance.md).
        self.event = event
        # Commit-clamp name (the reference's ``last_commit``, updated at
        # the commit stage) vs sync name (``committed_now``'s cycle part,
        # which only advances *after* an instruction's side effects).
        # Event mode keeps ``lc`` as one mutable frontier local instead
        # of rotating SSA names.
        self.lc = "lc"
        self.lc_sync = "lc"
        # Event mode: flat register key -> local holding the ready value
        # its in-block producer just computed (consumers read the local
        # instead of ``ready[key]``; the values are equal by construction).
        self._fwd: dict[int, str] = {}
        # Inst indices whose forwarding local has an in-block consumer
        # (None = unknown, always bind; plain blocks precompute it).
        self._fwd_useful: set[int] | None = None
        self.cbp = 0
        self.nmem = 0
        self._prev_blk: int | None = None
        # Set by the trace emitter after a stitched-in branch: the
        # mid-block specializations below assume no preceding control
        # instruction (redirect can't have moved), which stops holding
        # across a stitch point, so the next group formation must use
        # the fully dynamic block-entry form.
        self._dyn_group = False

    def _sync(self, ind: str, pc_expr: str, commit: bool | None = None) -> None:
        """Write full architectural state to st before a may-raise op.

        Spill-commit semantics mirror the in-order emitter: base-indent
        syncs clear the dirty set, except when a dirty destination's
        runtime assignment follows the sync (``commit=False``).
        """
        if commit is None:
            commit = ind == "    "
        self.lines.extend(self.regs.spill_lines(ind, commit=commit))
        slots = (
            "bf", "fc", "gd", "gc", "gb", "rd", self.lc_sync,
            "itick", "dtick", "ihits", "imiss", "dhits", "dmiss", "cg",
            _ctr("cbp", self.cbp), _ctr("crr", self.crr),
            _ctr("crw", self.crw), "cdc", _ctr("nmem", self.nmem),
            pc_expr, _ctr("nex", self.nex), "wd", "wdx",
        )
        if self.event:
            slots += ("ri", "qi", "li", "ccn", "gh", "ih")
        self.emit(ind, "st[:] = (" + ", ".join(slots) + ")")

    def emit_block(self, fname: str, insts: list[tuple[int, Any]]) -> str:
        head = [
            f"def {fname}(ir, fr, ready, st, env):",
            f"    ({_OOO_ENV_EVENT if self.event else _OOO_ENV}) = env",
            f"    ({_OOO_ST_EVENT if self.event else _OOO_ST}) = st",
        ]
        if self.event:
            self._fwd_useful = _fwd_consumers(insts)
        for idx, (ipc, fi) in enumerate(insts):
            self._inst(idx, ipc, fi, is_last=idx == len(insts) - 1)
        return "\n".join(head + self.lines) + "\n"

    def _fetch_group(self, i: int, pc: int) -> None:
        """Fetch-group formation (reference 'fetch group' section)."""
        g = self.g
        fw = self.p.fetch_width
        blk = pc >> g.ishift
        setk = blk % g.insets
        ind = "    "
        if i == 0 or self._dyn_group:
            # Block entry (or first fetch after a stitched branch):
            # fully dynamic condition.
            self._dyn_group = False
            self.emit(ind, f"if gc >= {fw} or gb != {blk} or fc < rd:")
            self._group_body(ind + "    ", blk, setk, clamp=True)
        elif self._prev_blk != blk:
            # New cache line mid-block: `blk != group_block` holds (the
            # last group formed on the previous line) and mid-block
            # `fetch_cycle >= redirect` always -> form unconditionally.
            self._group_body(ind, blk, setk, clamp=False)
        else:
            # Same line as the previous instruction: only width overflow
            # can break the group, and the line is a guaranteed hit (the
            # set's most recent access was this very line).
            self.emit(ind, f"if gc >= {fw}:")
            b = ind + "    "
            self.emit(b, "fc += 1")
            self.emit(b, "gc = 0")
            self.emit(b, "cg += 1")
            self.emit(b, f"w = isets[{setk}]")
            self.emit(b, f"w[{blk}] = itick")
            self.emit(b, "itick += 1")
            self.emit(b, "ihits += 1")
            self.emit(b, "gd = fc")
        self.emit(ind, "gc += 1")
        self._prev_blk = blk

    def _group_body(self, b: str, blk: int, setk: int, clamp: bool) -> None:
        self.emit(b, "fc += 1")
        if clamp:
            self.emit(b, "if rd > fc:")
            self.emit(b + "    ", "fc = rd")
        self.emit(b, "gc = 0")
        self.emit(b, f"gb = {blk}")
        self.emit(b, "cg += 1")
        self.emit(b, f"w = isets[{setk}]")
        # A miss occupies the bus for the fill.
        self._lru(b, "w", str(blk), self.g.iassoc, "i", ["gd = fc"], [
            "t = fc", "if bf > t:", "    t = bf", "bf = t + pen", "gd = bf",
            "fc = gd",
        ])

    def _inst(self, i: int, pc: int, fi: Any, is_last: bool) -> None:
        (kind, _ex, src_keys, dkey, wbank, _dnum, nsrc, lat,
         _npc, _starget, _ptaken, inst) = fi
        regs = self.regs
        p = self.p
        ind = "    "
        self._wd_reload = False

        self._fetch_group(i, pc)

        # -- architectural execute + branch prediction --
        a = f"a{i}"
        const_addr: int | None = None
        mmio_static: bool | None = None
        vt = ""
        if kind == K_ALU:
            self._alu(i, pc, inst, wbank, dkey)
        elif kind == K_LOAD or kind == K_STORE:
            base_c = regs.read_const(inst.rs)
            s_txt = "" if base_c is not None else regs.read(inst.rs, ind)
            if kind == K_STORE:
                vt = (regs.read(32 + inst.rt, ind) if inst.op is Op.FSW
                      else regs.read(inst.rt, ind))
            if base_c is not None:
                const_addr = (base_c + inst.imm) & _M
                a = str(const_addr)
                mmio_static = const_addr >= _MMIO
            else:
                self.emit(ind, f"{a} = ({s_txt} + {inst.imm}) & _M")
        elif kind == K_BRANCH:
            self.emit(ind, f"k{i} = {_branch_expr(inst, regs, ind)}")
            if self.event:
                # Inlined gshare (predictor.py semantics, 2^16 geometry
                # folded at codegen): predict on the pre-update history,
                # saturate the 2-bit counter, shift the outcome in.
                self.emit(ind, f"gi = ({pc >> 2} ^ gh) & 65535")
                self.emit(ind, "gv = gt[gi]")
                self.emit(ind, f"p{i} = gv >= 2")
                self.emit(ind, f"if k{i}:")
                self.emit(ind + "    ", "if gv < 3:")
                self.emit(ind + "        ", "gt[gi] = gv + 1")
                self.emit(ind + "    ", "gh = ((gh << 1) | 1) & 65535")
                self.emit(ind, "else:")
                self.emit(ind + "    ", "if gv:")
                self.emit(ind + "        ", "gt[gi] = gv - 1")
                self.emit(ind + "    ", "gh = (gh << 1) & 65535")
            else:
                self.emit(ind, f"p{i} = gpredict({pc})")
                self.emit(ind, f"gupdate({pc}, k{i})")
            self.cbp += 1
        elif kind == K_INDIRECT:
            s_txt = regs.read(inst.rs, ind)
            self.emit(ind, f"g{i} = {s_txt} & _M")
            if self.event:
                # Inlined indirect-target table (update shifts a taken
                # bit into the history, per predictor.py).
                self.emit(ind, f"ii = ({pc >> 2} ^ ih) & 65535")
                self.emit(ind, f"p{i} = it_get(ii)")
                self.emit(ind, f"it[ii] = g{i}")
                self.emit(ind, "ih = ((ih << 1) | 1) & 65535")
            else:
                self.emit(ind, f"p{i} = ipredict({pc})")
                self.emit(ind, f"iupdate({pc}, g{i})")
            self.cbp += 1
        # K_JUMP / K_HALT: nothing to execute.

        # -- dispatch (rename, allocate ROB/IQ/LSQ) --
        is_mem = kind == K_LOAD or kind == K_STORE
        d = f"d{i}"
        self.emit(ind, f"{d} = gd + 1")
        if self.event:
            # Ring occupancy clamps: the cursor slot holds the oldest
            # live entry exactly when the structure is full, else the -1
            # sentinel (never >= d, which is >= 1), reproducing the
            # deque len==N guard without a length check.
            rings = [("robq", "ri"), ("iqq", "qi")]
            if is_mem:
                self.nmem += 1
                rings.append(("lsqq", "li"))
            for ring, cur in rings:
                self.emit(ind, f"t = {ring}[{cur}]")
                self.emit(ind, f"if t >= {d}:")
                self.emit(ind + "    ", f"{d} = t + 1")
        else:
            for q, n_entries in (
                ("rob_commits", p.rob_entries),
                ("iq_issues", p.iq_entries),
            ):
                self.emit(ind, f"if len({q}) == {n_entries}:")
                self.emit(ind + "    ", f"if {q}[0] >= {d}:")
                self.emit(ind + "        ", f"{d} = {q}[0] + 1")
            if is_mem:
                self.nmem += 1
                self.emit(ind, f"if len(lsq_commits) == {p.lsq_entries}:")
                self.emit(ind + "    ", f"if lsq_commits[0] >= {d}:")
                self.emit(ind + "        ", f"{d} = lsq_commits[0] + 1")
        self.emit(ind, f"while (vd := dis_get({d}, 0)) >= {p.dispatch_width}:")
        self.emit(ind + "    ", f"{d} += 1")
        self.emit(ind, f"dis_used[{d}] = vd + 1")

        # -- issue (wakeup/select) --
        s = f"s{i}"
        self.emit(ind, f"{s} = {d} + 1")
        for sk in dict.fromkeys(src_keys):
            fwd = self._fwd.get(sk) if self.event else None
            src = fwd if fwd is not None else f"ready[{sk}]"
            self.emit(ind, f"if {src} > {s}:")
            self.emit(ind + "    ", f"{s} = {src}")
        if is_mem:
            self.emit(ind, "while True:")
            self.emit(ind + "    ",
                      f"while (vi := iss_get({s}, 0)) >= {p.issue_width}:")
            self.emit(ind + "        ", f"{s} += 1")
            self.emit(ind + "    ", f"t = {s}")
            self.emit(ind + "    ",
                      f"while (vp := port_get(t, 0)) >= {p.cache_ports}:")
            self.emit(ind + "        ", "t += 1")
            self.emit(ind + "    ", f"if t == {s}:")
            self.emit(ind + "        ", "break")
            self.emit(ind + "    ", f"{s} = t")
            self.emit(ind, f"port_used[{s}] = vp + 1")
        else:
            self.emit(ind, f"while (vi := iss_get({s}, 0)) >= {p.issue_width}:")
            self.emit(ind + "    ", f"{s} += 1")
        self.emit(ind, f"iss_used[{s}] = vi + 1")
        self.crr += nsrc

        x = f"x{i}"
        if kind == K_LOAD or not self.event:
            self.emit(ind, f"{x} = {s} + {p.issue_to_ex}")

        # -- execute / memory --
        c = f"c{i}"
        if kind == K_LOAD:
            if mmio_static is True:
                self.emit(ind, f"{c} = {x} + 1")
            elif mmio_static is False:
                self._load_mem_timing(ind, i, a, x, c)
            else:
                self.emit(ind, f"o{i} = {a} >= {_MMIO}")
                self.emit(ind, f"if o{i}:")
                self.emit(ind + "    ", f"{c} = {x} + 1")
                self.emit(ind, "else:")
                self._load_mem_timing(ind + "    ", i, a, x, c)
        elif kind == K_STORE:
            # Event mode folds the unused ex_start local into the sum.
            if self.event:
                self.emit(ind, f"{c} = {s} + {p.issue_to_ex + 1}")
            else:
                self.emit(ind, f"{c} = {x} + 1")
        elif self.event:
            self.emit(ind, f"{c} = {s} + {p.issue_to_ex + lat}")
        else:
            self.emit(ind, f"{c} = {x} + {lat}")

        # -- redirect / group break --
        fw = p.fetch_width
        if kind == K_BRANCH:
            self.emit(ind, f"if p{i} != k{i}:")
            self.emit(ind + "    ", f"rd = {c} + 1")
            self.emit(ind + "    ", "fc = rd - 1")
            self.emit(ind + "    ", f"gc = {fw}")
            self.emit(ind, f"elif p{i}:")
            self.emit(ind + "    ", f"gc = {fw}")
        elif kind == K_INDIRECT:
            self.emit(ind, f"if p{i} != g{i}:")
            self.emit(ind + "    ", f"rd = {c} + 1")
            self.emit(ind + "    ", "fc = rd - 1")
            self.emit(ind, f"gc = {fw}")
        elif kind == K_JUMP:
            self.emit(ind, f"gc = {fw}")

        # -- commit (in order, 4-wide) --
        y = f"y{i}"
        if self.event:
            # Batched retirement via the commit frontier (lc, ccn): every
            # candidate max(c+1, lc) is >= lc and the width map has no
            # entries past lc, so one pair replaces the dict scan.  The
            # frontier equals this commit afterwards (lc == y), but the
            # sync slot must keep lagging through the side effects
            # (committed_now semantics), hence the lcp snapshot.
            if is_mem:
                self.emit(ind, f"lcp{i} = lc")
            self.emit(ind, f"{y} = {c} + 1")
            self.emit(ind, f"if {y} <= lc:")
            self.emit(ind + "    ", f"if ccn < {p.commit_width}:")
            self.emit(ind + "        ", "ccn += 1")
            self.emit(ind + "        ", f"{y} = lc")
            self.emit(ind + "    ", "else:")
            self.emit(ind + "        ", "lc += 1")
            self.emit(ind + "        ", "ccn = 1")
            self.emit(ind + "        ", f"{y} = lc")
            self.emit(ind, "else:")
            self.emit(ind + "    ", f"lc = {y}")
            self.emit(ind + "    ", "ccn = 1")
            self.emit(ind, f"robq[ri] = {y}")
            self.emit(ind, "ri += 1")
            self.emit(ind, f"if ri == {p.rob_entries}:")
            self.emit(ind + "    ", "ri = 0")
            if is_mem:
                self.emit(ind, f"lsqq[li] = {y}")
                self.emit(ind, "li += 1")
                self.emit(ind, f"if li == {p.lsq_entries}:")
                self.emit(ind + "    ", "li = 0")
            self.emit(ind, f"iqq[qi] = {s}")
            self.emit(ind, "qi += 1")
            self.emit(ind, f"if qi == {p.iq_entries}:")
            self.emit(ind + "    ", "qi = 0")
            self.lc_sync = f"lcp{i}" if is_mem else "lc"
        else:
            self.emit(ind, f"{y} = {c} + 1")
            self.emit(ind, f"if {self.lc} > {y}:")
            self.emit(ind + "    ", f"{y} = {self.lc}")
            self.emit(
                ind, f"while (vc := com_get({y}, 0)) >= {p.commit_width}:"
            )
            self.emit(ind + "    ", f"{y} += 1")
            self.emit(ind, f"com_used[{y}] = vc + 1")
            self.emit(ind, f"rob_append({y})")
            if is_mem:
                self.emit(ind, f"lsq_append({y})")
            self.emit(ind, f"iq_append({s})")
            # y >= old last_commit by construction, so last_commit
            # becomes y.
            self.lc = y

        # -- architectural side effects --
        if kind == K_LOAD:
            self._load(i, pc, a, wbank, dkey, mmio_static,
                       f"base + {x} + 1", f"base + {y}")
        elif kind == K_STORE:
            self._store(pc, a, vt, mmio_static, f"base + {y}", f"base + {y}",
                        lambda b: self._store_commit(b, i, a, vt, c, y))
        pc_next = self._next_pc(i, fi)
        self.lc_sync = y

        if dkey >= 0:
            self.crw += 1
            if self.event and (
                self._fwd_useful is None or i in self._fwd_useful
            ):
                self.emit(ind, f"rv{i} = {c} - {p.issue_to_ex}")
                self.emit(ind, f"ready[{dkey}] = rv{i}")
                self._fwd[dkey] = f"rv{i}"
            else:
                self.emit(ind, f"ready[{dkey}] = {c} - {p.issue_to_ex}")
                if self.event:
                    self._fwd.pop(dkey, None)
        self.nex += 1
        self._tail(kind, f"base + {y}", pc_next, is_last)

    def _load_mem_timing(self, ind: str, i: int, a: str, x: str,
                         c: str) -> None:
        """Forwarding check + D-cache access + completion time for a load."""
        self.emit(ind, f"e{i} = get_inflight({a})")
        self.emit(ind, f"fw{i} = e{i} is not None and e{i}[1] > {x}")
        self.emit(ind, "cdc += 1")
        self._dcache(ind, i, a, [f"h{i} = True"], [f"h{i} = False"])
        self.emit(ind, f"if fw{i}:")
        self.emit(ind + "    ", f"{c} = e{i}[0] + 1")
        self.emit(ind + "    ", f"if {x} >= {c}:")
        self.emit(ind + "        ", f"{c} = {x} + 1")
        self.emit(ind, f"elif h{i}:")
        self.emit(ind + "    ", f"{c} = {x} + 2")
        self.emit(ind, "else:")
        self.emit(ind + "    ", f"t = {x} + 1")
        self.emit(ind + "    ", "if bf > t:")
        self.emit(ind + "        ", "t = bf")
        self.emit(ind + "    ", "bf = t + pen")
        self.emit(ind + "    ", f"{c} = bf + 1")

    def _store_commit(self, ind: str, i: int, a: str, vt: str, c: str,
                      y: str) -> None:
        """Non-MMIO store commit: words write, D-cache (a miss occupies
        the bus for the fill), LSQ in-flight entry."""
        self._store_words(ind, a, vt)
        self.emit(ind, "cdc += 1")
        self._dcache(ind, i, a, [], [
            f"t = {y}", "if bf > t:", "    t = bf", "bf = t + pen",
        ])
        self.emit(ind, f"inflight_stores[{a}] = ({c}, {y})")


# --- block discovery, compilation, and the persistent table -------------------


class _Geometry(NamedTuple):
    """Everything block code shape depends on besides the program itself."""

    ishift: int
    insets: int
    iassoc: int
    dshift: int
    dnsets: int
    dassoc: int
    tbase: int
    text_end: int


#: Upper bound on instructions fused into one generated function; longer
#: straight-line runs split at the cap (state is fully synced at every
#: block exit, so an artificial boundary is behaviourally invisible).
_MAX_BLOCK = 64

_EXEC_GLOBALS: dict[str, Any] = {
    "_trunc_div": _trunc_div,
    "_trunc_rem": _trunc_rem,
    "_fdiv": _fdiv,
    "_fsqrt": _fsqrt,
    "_M": _M,
    "_S": _S,
    "__builtins__": {"len": len, "min": min, "abs": abs, "int": int,
                     "float": float, "True": True, "False": False,
                     "None": None},
}


def _fname(engine: str, pc: int, checked: bool = False) -> str:
    name = f"_b{pc:x}" if engine == "inorder" else f"_o{pc:x}"
    return name + "_w" if checked else name


def _leaders(program: "Program") -> set[int]:
    """Static basic-block leaders: CFG block starts when analyzable,
    else a linear scan over the fast plan (fuzz programs may violate the
    CFG analyzer's structural requirements)."""
    leaders = {program.entry}
    leaders.update(program.subtask_marks)
    try:
        cfg = build_cfg(program)
    except (AnalysisError, ReproError):
        fast = program.fast_plan()
        for fi in fast:
            kind, starget, npc = fi[0], fi[9], fi[8]
            if kind in _CONTROL_KINDS:
                leaders.add(npc)
                if starget is not None:
                    leaders.add(starget)
    else:
        for fn_cfg in cfg.functions.values():
            leaders.update(fn_cfg.blocks)
    return {a for a in leaders if program.contains(a)}


def _collect_block(
    program: "Program", start: int, stops: frozenset[int]
) -> list[tuple[int, Any]]:
    """Instructions of the block at ``start``: append until a control
    instruction, a stop address, the text end, or the fuse cap."""
    fast = program.fast_plan()
    tbase = program.text_base
    text_end = program.text_end
    insts: list[tuple[int, Any]] = []
    pc = start
    while True:
        fi = fast[(pc - tbase) >> 2]
        insts.append((pc, fi))
        if fi[0] in _CONTROL_KINDS or len(insts) >= _MAX_BLOCK:
            break
        pc += 4
        if pc in stops or pc >= text_end:
            break
    return insts


def _emit_block(
    engine: str, geom: _Geometry, params: Any, start: int,
    insts: list[tuple[int, Any]], sched: str = "scan", checked: bool = False,
) -> str:
    """Source of one block function: the ``checked`` variant exits when
    the watchdog expires after any instruction; the other only after an
    MMIO store, the one instruction that can arm the watchdog."""
    em: _InOrderEmitter | _OOOEmitter
    if engine == "inorder":
        em = _InOrderEmitter(geom)
    else:
        em = _OOOEmitter(geom, params, event=sched == "event")
    em._wd_elide = not checked
    return em.emit_block(_fname(engine, start, checked), insts)


def _compile_unit(source: str, filename: str) -> CodeType:
    """Compile one generated ``def`` alone; return the function's code."""
    module = compile(source, filename, "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


class BlockTable:
    """Compiled blocks of one (program, engine, geometry, params, tier).

    Each block has up to two variants, each its own compile unit (one
    ``def`` compiled alone: compiling a whole program as one module is
    superlinear in its size).  ``blocks`` maps block-start pc to
    ``(function, length)`` for the variant run while the watchdog is
    dead, ``checked`` for the one with per-instruction watchdog checks,
    run while it is live; the dispatchers pick by the watchdog slot of
    ``st`` at each block entry.

    ``safe_breaks`` is the set of addresses guaranteed never to be
    block-interior (sub-task marks + entry), i.e. the breakpoint sets the
    block dispatcher can honor exactly.  Superblock traces never contain
    a safe-break address at an interior position, so that guarantee
    survives trace promotion unchanged.

    On the trace tier, ``hot_counts`` profiles block dispatch counts;
    once a block crosses the hotness threshold, :meth:`promote` stitches
    the chain starting there into one trace function and installs it
    over the block entry in ``blocks``, so the dispatchers need no
    second lookup.  Traces assume a dead watchdog, like ``blocks``.
    """

    def __init__(
        self,
        program: "Program",
        engine: str,
        geom: _Geometry,
        params: Any,
        disk_key: str,
        tier: str = "block",
        sched: str = "scan",
    ) -> None:
        self.program = program
        self.engine = engine
        self.geom = geom
        self.params = params
        self.disk_key = disk_key
        self.tier = tier
        #: OOO timing-scheduler codegen this table was built for
        #: ("scan"/"event"; always "scan" for the in-order engine).
        self.sched = sched
        self.blocks: dict[int, BlockEntry] = {}
        self.checked: dict[int, BlockEntry] = {}
        #: Every block compile unit, and the keys of those known to be
        #: in the table's cache blob.
        self.units: Units = {}
        self.stored: set[tuple[bool, int]] = set()
        #: Units were compiled during a run: the dispatcher saves at
        #: its end.
        self.unsaved = False
        #: The trace blob was read or written here (append to it).
        self.traces_stored = False
        self._ns: dict[str, Any] = dict(_EXEC_GLOBALS)
        self.safe_breaks: frozenset[int] = (
            frozenset(program.subtask_marks) | {program.entry}
        )
        # Trace-tier state (inert on the block tier).
        self.hot_counts: dict[int, int] | None = None
        self.hot_threshold = 0
        #: head pc -> (fname, n_blocks, n_insts) for installed traces.
        self.traces_meta: dict[int, tuple[str, int, int]] = {}
        #: head pc -> compiled trace code (marshalled on store).
        self.trace_codes: dict[int, CodeType] = {}
        self._no_trace: set[int] = set()
        # [calls, side exits]: bumped by the generated trace code itself.
        self._ns["_tr"] = [0, 0]
        # Side-exit pc -> count: bumped by the generated side-exit arms
        # (``repro cache stats`` surfaces the breakdown).
        sx: dict[int, int] = {}
        self._ns["_sx"] = sx
        self._ns["_sx_get"] = sx.get
        _LIVE_TABLES.add(self)

    def function(self, code: CodeType) -> BlockFn:
        """Bind generated ``code`` to this table's globals, by its name."""
        fn = FunctionType(code, self._ns)
        self._ns[code.co_name] = fn
        return fn

    def install(
        self, checked: bool, pc: int, length: int, code: CodeType,
    ) -> BlockEntry:
        """Make a compiled (or loaded) block unit dispatchable."""
        entry = (self.function(code), length)
        (self.checked if checked else self.blocks)[pc] = entry
        self.units[(checked, pc)] = (length, code)
        return entry

    def compile_block(
        self, pc: int, insts: list[tuple[int, Any]], checked: bool,
    ) -> BlockEntry:
        source = _emit_block(
            self.engine, self.geom, self.params, pc, insts, self.sched,
            checked,
        )
        code = _compile_unit(source, f"<blockjit:{self.engine}:{pc:#x}>")
        return self.install(checked, pc, len(insts), code)

    def save(self) -> None:
        """Append the units compiled since the cache blob was last read
        or written to it; without a blob known to be good (or if the
        append finds none), write every unit to a new one."""
        self.unsaved = False
        fresh = {k: u for k, u in self.units.items() if k not in self.stored}
        if not (self.stored and _store_disk(self, fresh, append=True)):
            if not _store_disk(self, self.units, append=False):
                return
        self.stored.update(self.units)

    def promote(self, pc: int, entry: BlockEntry) -> BlockEntry:
        """Try to replace the hot block at ``pc`` with a stitched trace.

        Returns the installed trace entry, or ``entry`` unchanged when
        no profitable chain exists (single block, safe-break barrier).
        """
        if pc in self.traces_meta or pc in self._no_trace:
            return self.blocks.get(pc, entry)
        from repro.isa import tracejit

        traced = tracejit.compile_trace(self, pc)
        if traced is None:
            self._no_trace.add(pc)
            return entry
        return traced

    def trace_summary(self) -> dict[str, Any]:
        """Formation and runtime stats for the installed traces."""
        tr = self._ns["_tr"]
        sx: dict[int, int] = self._ns["_sx"]
        metas = list(self.traces_meta.values())
        n = len(metas)
        calls = int(tr[0])
        exits = int(tr[1])
        return {
            "traces": n,
            "mean_blocks": (sum(m[1] for m in metas) / n) if n else 0.0,
            "mean_insts": (sum(m[2] for m in metas) / n) if n else 0.0,
            "calls": calls,
            "side_exits": exits,
            "side_exit_rate": (exits / calls) if calls else 0.0,
            "trace_completions": calls - exits,
            "side_exit_pc": {
                f"{pc:#x}": count
                for pc, count in sorted(
                    sx.items(), key=lambda kv: (-kv[1], kv[0])
                )
            },
        }

    def block_at(self, pc: int, checked: bool = False) -> BlockEntry:
        """The ``checked`` (watchdog-live) or unchecked variant of the
        block starting at ``pc``, compiling it on demand.

        Each is its own compile unit: one ``def`` compiled alone and
        bound to the table's globals.  A block's second variant takes
        the shape of its first; dynamic targets (indirect jumps to, or
        watchdog-arming exits at, non-leader addresses) run to the next
        control instruction or safe break.  Units compiled here mark the
        table unsaved: the dispatcher appends them to the cache blob (a
        marshal record of code objects behind the interpreter's
        bytecode magic) when the run ends.
        """
        entry = (self.checked if checked else self.blocks).get(pc)
        if entry is not None:
            return entry
        if not self.program.contains(pc):
            raise ReproError(f"no instruction at {pc:#x}")
        twin = self.units.get((not checked, pc))
        if twin is None:
            insts = _collect_block(self.program, pc, self.safe_breaks)
        else:
            fast = self.program.fast_plan()
            first = (pc - self.program.text_base) >> 2
            insts = [(pc + 4 * k, fast[first + k]) for k in range(twin[0])]
        self.unsaved = True
        return self.compile_block(pc, insts, checked)


def _disk_key(
    program: "Program", engine: str, geom: _Geometry,
    params_tuple: tuple | None, sched: str = "scan",
) -> str:
    from repro.snapshot.state import (
        FORMAT_VERSION,
        canonical_json,
        program_digest,
    )

    payload = {
        "format": FORMAT_VERSION,
        "codegen": CODEGEN_VERSION,
        "engine": engine,
        "program": program_digest(program),
        # program_digest intentionally omits the entry point (results in
        # the run cache key it separately); block boundaries depend on it.
        "entry": program.entry,
        "geom": list(geom),
        "params": list(params_tuple) if params_tuple is not None else None,
    }
    if engine == "ooo" and sched == "event":
        # Event-mode codegen keys separately from scan-mode codegen.
        payload["sched"] = sched
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:24]


def read_blob(data: bytes, header: tuple[Any, ...]) -> list[Any] | None:
    """The record bodies of a codegen-cache blob, or None on a miss.

    A blob is this interpreter's bytecode magic number followed by one
    or more marshalled ``(header, body)`` records: the first written
    with the blob, each later one appended with what was compiled since.
    Another Python's magic, a stale header, or a torn or truncated
    record makes the whole blob a miss.
    """
    if not data.startswith(_MAGIC):
        return None
    stream = io.BytesIO(data)
    stream.seek(len(_MAGIC))
    bodies = []
    try:
        while stream.tell() < len(data):
            stored, body = marshal.load(stream)
            if stored != header:
                return None
            bodies.append(body)
    except (EOFError, ValueError, TypeError):
        return None
    return bodies or None


def write_blob(
    path: "Path", header: tuple[Any, ...], body: Any, append: bool,
) -> bool:
    """Append ``body`` as one more record to the blob at ``path``, or
    (not ``append``) replace it with a new blob; False if not written."""
    from repro.snapshot import runcache

    record = marshal.dumps((header, body))
    if append:
        return runcache.append_bytes(path, record)
    return runcache.atomic_write_bytes(path, _MAGIC + record)


def _disk_path(engine: str, key: str) -> "Path":
    from repro.snapshot import runcache

    return runcache.cache_dir() / "blockjit" / f"{engine}-{key}.bin"


def _table_header(engine: str) -> tuple[Any, ...]:
    from repro.snapshot.state import FORMAT_VERSION

    return (FORMAT_VERSION, CODEGEN_VERSION, engine)


def _load_disk(engine: str, key: str) -> Units | None:
    """The block units stored for ``key``, or None (a miss)."""
    from repro.snapshot import runcache

    if runcache.cache_disabled():
        return None
    try:
        data = _disk_path(engine, key).read_bytes()
    except OSError:
        data = b""
    bodies = read_blob(data, _table_header(engine))
    units: Units = {}
    try:
        for body in bodies or ():
            units.update(body)
    except (TypeError, ValueError):  # records of another shape
        bodies = None
    if bodies is None:
        runcache.STATS["blockjit_misses"] += 1
        return None
    runcache.STATS["blockjit_hits"] += 1
    return units


def _store_disk(table: BlockTable, units: Units, append: bool) -> bool:
    from repro.snapshot import runcache

    if runcache.cache_disabled():
        return False
    written = write_blob(
        _disk_path(table.engine, table.disk_key),
        _table_header(table.engine), units, append,
    )
    if written:
        runcache.STATS["blockjit_stores"] += 1
    return written


def _build_table(
    program: "Program", engine: str, geom: _Geometry, params: Any,
    params_tuple: tuple | None, tier: str = "block", sched: str = "scan",
    checked: bool = False,
) -> BlockTable:
    table = BlockTable(
        program, engine, geom, params,
        _disk_key(program, engine, geom, params_tuple, sched),
        tier=tier, sched=sched,
    )
    units = _load_disk(engine, table.disk_key)
    if units is not None:
        for (checked, pc), (length, code) in units.items():
            table.install(checked, pc, length, code)
        table.stored = set(units)
        return _finish_table(table)

    leaders = _leaders(program)
    stops = frozenset(leaders)
    pending = sorted(leaders)
    seen = set(pending)
    for start in pending:  # grows while iterating
        insts = _collect_block(program, start, stops)
        table.compile_block(start, insts, checked)
        # A run split at the fuse cap continues in a follow-on block.
        last_pc, last_fi = insts[-1]
        cont = last_pc + 4
        if (
            last_fi[0] not in _CONTROL_KINDS
            and cont not in seen
            and program.contains(cont)
        ):
            seen.add(cont)
            pending.append(cont)
    table.save()
    return _finish_table(table)


def _finish_table(table: BlockTable) -> BlockTable:
    """Activate trace-tier state (profiling + warm traces) when selected."""
    if table.tier == "trace":
        from repro.isa import tracejit

        table.hot_counts = {}
        table.hot_threshold = tracejit.HOT_THRESHOLD
        tracejit.load_traces(table)
    return table


def block_table(
    machine: Any, engine: str, params: Any = None, tier: str | None = None,
    checked: bool = False,
) -> BlockTable:
    """The (memoized) compiled block table for ``machine``'s program.

    Memoized on the Program keyed by engine, cache geometry, pipeline
    parameters, and tier, so cores sharing a program (and VISA instances
    sharing a workload) compile once per process; the compiled units
    additionally persist under ``.repro_cache/blockjit/``.  ``tier``
    defaults to the active :func:`jit_tier` (an explicit ``"off"`` is
    clamped to ``"block"`` — callers gate on :func:`jit_enabled`).

    ``checked``: the calling run may arm the watchdog (exceptions
    unmasked and honored), so a table built for it compiles every
    leader's checked variant up front — nearly all of its code will run
    with the watchdog live — rather than the unchecked one.  The other
    variant of a block is compiled when first needed.
    """
    if tier is None:
        tier = jit_tier()
    if tier == "off":
        tier = "block"
    if engine == "ooo":
        # Lazy import: repro.pipelines.ooo.__init__ imports core, which
        # imports this module.
        from repro.pipelines.ooo.sched import ooo_sched

        sched = ooo_sched()
    else:
        sched = "scan"
    program = machine.program
    ic = machine.icache.config
    dc = machine.dcache.config
    geom = _Geometry(
        ic.block_shift, ic.num_sets, ic.assoc,
        dc.block_shift, dc.num_sets, dc.assoc,
        program.text_base, program.text_end,
    )
    params_tuple = tuple(astuple(params)) if params is not None else None
    memo_key = (engine, geom, params_tuple, tier, sched)
    tables = program._blockjit_tables  # noqa: SLF001 - cooperative memo
    table = tables.get(memo_key)
    if table is None:
        table = _build_table(
            program, engine, geom, params, params_tuple, tier, sched, checked
        )
        tables[memo_key] = table
    return table


# --- dispatchers --------------------------------------------------------------


def run_inorder(
    core: Any,
    table: BlockTable,
    honor_watchdog: bool = True,
    break_addrs: frozenset[int] | None = None,
) -> Any:
    """Block-dispatch drive of an :class:`InOrderCore` segment.

    Only called for full-run segments (``max_instructions is None``) with
    ``break_addrs`` (if any) a subset of ``table.safe_breaks``; the
    wrapper in :mod:`repro.pipelines.inorder` guarantees both.
    """
    from repro.pipelines.inorder import RunResult

    state = core.state
    machine = core.machine
    mmio = machine.mmio
    start_cycle = state.now
    if state.halted:
        return RunResult("halt", start_cycle, start_cycle, 0)

    ic = machine.icache
    dc = machine.dcache
    ft = core._fast_timing  # noqa: SLF001 - shared with the interp path
    base = core._timing_base  # noqa: SLF001
    tg = core.train_gshare
    ti = core.train_indirect
    wd = (
        honor_watchdog
        and not mmio.exceptions_masked
        and mmio._wd_enabled  # noqa: SLF001
    )
    st: list[Any] = [
        ft[0], ft[1], ft[2], ft[3], ft[4], ft[5], ft[6], ft[7],
        ic._tick, dc._tick,  # noqa: SLF001
        0, 0, 0, 0,  # ihits, imiss, dhits, dmiss
        0, 0, 0, 0,  # fetched, c_regread, c_regwrite, c_dcache
        state.pc, 0,  # pc, executed
        wd, mmio._wd_expiry,  # noqa: SLF001
    ]
    words = machine.memory._words  # noqa: SLF001
    env = (
        words, words.get,
        ic._sets, dc._sets,  # noqa: SLF001
        mmio, mmio.read, mmio.write,
        machine.data_read, machine.data_write,
        core.stall_cycles, base, honor_watchdog,
        tg.update if tg is not None else None,
        ti.update if ti is not None else None,
    )
    ir = state.int_regs
    fr = state.fp_regs
    ready = core._fast_ready  # noqa: SLF001
    blocks = table.blocks
    checked = table.checked
    block_at = table.block_at
    counts = table.hot_counts
    hot = table.hot_threshold
    pc = state.pc
    try:
        while True:
            live = st[20]  # watchdog live: run the checked variant
            entry = (checked if live else blocks).get(pc)
            if entry is None:
                entry = block_at(pc, live)
            if counts is not None and not live:
                c = counts.get(pc, 0) + 1
                counts[pc] = c
                if c == hot:
                    entry = table.promote(pc, entry)
            r = entry[0](ir, fr, ready, st, env)
            if r.__class__ is int:
                pc = r
                st[18] = pc
                if break_addrs is not None and pc in break_addrs:
                    return RunResult(
                        "breakpoint", start_cycle, base + st[3] + 1, st[19]
                    )
                if st[19] > _RUNAWAY:  # pragma: no cover - runaway guard
                    raise SimulationError(
                        "instruction budget exceeded (runaway?)"
                    )
                continue
            now = base + st[3] + 1
            if r == "h":
                state.halted = True
                return RunResult("halt", start_cycle, now, st[19])
            return RunResult(
                "watchdog", start_cycle, now, st[19],
                exception_cycle=min(now, st[21]),
            )
    finally:
        if table.unsaved:
            table.save()
        # Mirror the interpreter's finally-flush exactly (shared
        # _fast_timing/_fast_ready keep the two paths interleavable).
        ft[0] = st[0]
        ft[1] = st[1]
        ft[2] = st[2]
        ft[3] = st[3]
        ft[4] = st[4]
        ft[5] = st[5]
        ft[6] = st[6]
        ft[7] = st[7]
        ic._tick = st[8]  # noqa: SLF001
        dc._tick = st[9]  # noqa: SLF001
        ics = ic.stats
        ics.hits += st[10]
        ics.misses += st[11]
        dcs = dc.stats
        dcs.hits += st[12]
        dcs.misses += st[13]
        state.pc = st[18]
        state.now = base + st[3] + 1
        state.instret += st[19]
        if st[14]:
            counters = state.counters
            k_ic, k_fe, k_dc, k_rr, k_rw, k_fu = core._ckeys  # noqa: SLF001
            counters[k_ic] += st[14]
            counters[k_fe] += st[14]
            if st[19]:
                counters[k_rr] += st[15]
                counters[k_fu] += st[19]
            if st[16]:
                counters[k_rw] += st[16]
            if st[17]:
                counters[k_dc] += st[17]


def run_ooo(core: Any, table: BlockTable, honor_watchdog: bool = True) -> Any:
    """Block-dispatch drive of a :class:`ComplexCore` complex-mode segment."""
    from repro.pipelines.inorder import RunResult

    state = core.state
    machine = core.machine
    mmio = machine.mmio
    params = core.params
    start_cycle = state.now
    if state.halted:
        return RunResult("halt", start_cycle, start_cycle, 0)

    ic = machine.icache
    dc = machine.dcache
    base = state.now
    event = table.sched == "event"
    gshare = core.gshare
    indirect = core.indirect
    dis_used: dict[int, int] = {}
    iss_used: dict[int, int] = {}
    port_used: dict[int, int] = {}
    inflight_stores: dict[int, tuple[int, int]] = {}
    ready = [0] * 64
    wd = (
        honor_watchdog
        and not mmio.exceptions_masked
        and mmio._wd_enabled  # noqa: SLF001
    )
    st: list[Any] = [
        0, 0, 0, 0, -1, 0, 0,  # bf, fc, gd, gc, gb, rd, lc
        ic._tick, dc._tick,  # noqa: SLF001
        0, 0, 0, 0,  # ihits, imiss, dhits, dmiss
        0, 0, 0, 0, 0, 0,  # cg, cbp, crr, crw, cdc, nmem
        state.pc, 0,  # pc, executed
        wd, mmio._wd_expiry,  # noqa: SLF001
    ]
    words = machine.memory._words  # noqa: SLF001
    if event:
        # Preallocated rings (-1 sentinel = not yet full at that cursor)
        # replace the occupancy deques; the commit width map is replaced
        # entirely by the in-code frontier pair st[6]/st[26]; predictor
        # tables are passed raw (reads/updates are inlined in the
        # generated code, histories live in st[27]/st[28]).
        robq = [-1] * params.rob_entries
        iqq = [-1] * params.iq_entries
        lsqq = [-1] * params.lsq_entries
        st += [0, 0, 0, 0, gshare.history, indirect.history]
        env: tuple[Any, ...] = (
            words, words.get,
            ic._sets, dc._sets,  # noqa: SLF001
            mmio, mmio.read, mmio.write,
            machine.data_read, machine.data_write,
            core.stall_cycles, base, honor_watchdog,
            gshare.table, indirect.table, indirect.table.get,
            dis_used, dis_used.get, iss_used, iss_used.get,
            port_used, port_used.get,
            robq, iqq, lsqq,
            inflight_stores, inflight_stores.get,
        )
    else:
        robq = []
        com_used: dict[int, int] = {}
        rob_commits: deque[int] = deque(maxlen=params.rob_entries)
        iq_issues: deque[int] = deque(maxlen=params.iq_entries)
        lsq_commits: deque[int] = deque(maxlen=params.lsq_entries)
        env = (
            words, words.get,
            ic._sets, dc._sets,  # noqa: SLF001
            mmio, mmio.read, mmio.write,
            machine.data_read, machine.data_write,
            core.stall_cycles, base, honor_watchdog,
            gshare.predict, gshare.update,
            indirect.predict, indirect.update,
            dis_used, dis_used.get, iss_used, iss_used.get,
            com_used, com_used.get, port_used, port_used.get,
            rob_commits, rob_commits.append, iq_issues, iq_issues.append,
            lsq_commits, lsq_commits.append,
            inflight_stores, inflight_stores.get,
        )
    ir = state.int_regs
    fr = state.fp_regs
    blocks = table.blocks
    checked = table.checked
    block_at = table.block_at
    counts = table.hot_counts
    hot = table.hot_threshold
    pc = state.pc
    pruned_at = 0
    try:
        while True:
            live = st[21]  # watchdog live: run the checked variant
            entry = (checked if live else blocks).get(pc)
            if entry is None:
                entry = block_at(pc, live)
            if counts is not None and not live:
                c = counts.get(pc, 0) + 1
                counts[pc] = c
                if c == hot:
                    entry = table.promote(pc, entry)
            r = entry[0](ir, fr, ready, st, env)
            if r.__class__ is int:
                pc = r
                st[19] = pc
                if event and st[20] - pruned_at >= _PRUNE_STRIDE:
                    # Keep the width maps cache-resident: every future
                    # dispatch probe starts at >= max(group_done, oldest
                    # live ROB commit) + 1 (both monotone; the ROB clamp
                    # applies forever once 128 committed), issue/port
                    # probes one cycle later still, so keys below those
                    # floors are dead and safe to drop between blocks.
                    pruned_at = st[20]
                    t = robq[st[23]]
                    floor = st[2] if st[2] > t else t
                    floor += 1
                    if len(dis_used) > _PRUNE_MIN:
                        keep = {
                            k: v for k, v in dis_used.items() if k >= floor
                        }
                        dis_used.clear()
                        dis_used.update(keep)
                    floor += 1
                    for used in (iss_used, port_used):
                        if len(used) > _PRUNE_MIN:
                            keep = {
                                k: v for k, v in used.items() if k >= floor
                            }
                            used.clear()
                            used.update(keep)
                if st[20] > _RUNAWAY:  # pragma: no cover - runaway guard
                    raise SimulationError(
                        "instruction budget exceeded (runaway?)"
                    )
                continue
            now = base + st[6]
            if r == "h":
                state.halted = True
                return RunResult("halt", start_cycle, now, st[20])
            return RunResult(
                "watchdog", start_cycle, now, st[20],
                exception_cycle=min(now, st[22]),
            )
    finally:
        if table.unsaved:
            table.save()
        if event:
            gshare.history = st[27]
            indirect.history = st[28]
        state.pc = st[19]
        state.now = base + st[6]
        state.instret += st[20]
        ic._tick = st[7]  # noqa: SLF001
        dc._tick = st[8]  # noqa: SLF001
        ics = ic.stats
        ics.hits += st[9]
        ics.misses += st[10]
        dcs = dc.stats
        dcs.hits += st[11]
        dcs.misses += st[12]
        counters = state.counters
        executed = st[20]
        if executed:
            counters["rename"] += executed
            counters["rob_write"] += executed
            counters["iq"] += executed
            counters["regread"] += st[15]
            counters["fu"] += executed
            counters["commit"] += executed
        if st[13]:
            counters["icache"] += st[13]
            counters["fetch"] += st[13]
        if st[14]:
            counters["bpred"] += st[14]
        if st[18]:
            counters["lsq"] += st[18]
        if st[17]:
            counters["dcache"] += st[17]
        if st[16]:
            counters["regwrite"] += st[16]


# --- cache-observability helpers (``repro cache stats`` / ``clear``) ----------


def disk_cache_stats() -> dict:
    """On-disk blockjit cache stats plus in-process hit/miss/store counters.

    ``tiers`` breaks the totals down by codegen tier: block-table
    entries (``{engine}-{key}.bin``) vs stitched-trace entries
    (``{engine}-{key}.traces.bin``).  Entries in the old JSON format
    are not counted (nothing reads them; ``clear`` removes them).
    """
    from repro.snapshot import runcache

    directory = runcache.cache_dir() / "blockjit"
    entries = 0
    total = 0
    tiers = {
        "block": {"entries": 0, "bytes": 0},
        "trace": {"entries": 0, "bytes": 0},
    }
    if directory.is_dir():
        for path in directory.iterdir():
            if path.is_file() and path.suffix == ".bin":
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                total += size
                entries += 1
                tier = ("trace" if path.name.endswith(".traces.bin")
                        else "block")
                tiers[tier]["entries"] += 1
                tiers[tier]["bytes"] += size
    # Runtime trace behaviour of live in-process tables (the CLI shows
    # zeros here in a fresh process; experiments/benchmarks embedding
    # the simulator see the live counters).
    calls = exits = 0
    side_exit_pc: dict[str, int] = {}
    for table in list(_LIVE_TABLES):
        if table.tier != "trace" or not table.traces_meta:
            continue
        summary = table.trace_summary()
        calls += summary["calls"]
        exits += summary["side_exits"]
        for pc, count in summary["side_exit_pc"].items():
            side_exit_pc[pc] = side_exit_pc.get(pc, 0) + count
    return {
        "directory": str(directory),
        "entries": entries,
        "bytes": total,
        "tiers": tiers,
        "hits": int(runcache.STATS["blockjit_hits"]),
        "misses": int(runcache.STATS["blockjit_misses"]),
        "stores": int(runcache.STATS["blockjit_stores"]),
        "trace_hits": int(runcache.STATS["tracejit_hits"]),
        "trace_misses": int(runcache.STATS["tracejit_misses"]),
        "trace_stores": int(runcache.STATS["tracejit_stores"]),
        "trace_calls": calls,
        "trace_side_exits": exits,
        "trace_completions": calls - exits,
        "side_exit_pc": dict(sorted(
            side_exit_pc.items(), key=lambda kv: (-kv[1], kv[0])
        )),
    }


def clear_disk_cache() -> tuple[int, int]:
    """Delete the blockjit codegen cache, old-format JSON entries
    included; ``(files_removed, bytes_freed)``."""
    from repro.snapshot import runcache

    removed = freed = 0
    directory = runcache.cache_dir() / "blockjit"
    if not directory.is_dir():
        return 0, 0
    for path in directory.iterdir():
        if path.is_file() and path.suffix in (".bin", ".json", ".tmp"):
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
    try:
        directory.rmdir()
    except OSError:
        pass
    return removed, freed


__all__ = [
    "BlockTable",
    "CODEGEN_VERSION",
    "DEFAULT_TIER",
    "TIERS",
    "block_table",
    "clear_disk_cache",
    "disk_cache_stats",
    "jit_enabled",
    "jit_override",
    "jit_tier",
    "run_inorder",
    "run_ooo",
    "tier_override",
]
