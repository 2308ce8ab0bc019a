"""Event-driven timing model of the complex 4-way out-of-order core.

Microarchitecture (paper §3.2): seven stages — fetch, dispatch, issue,
register read, execute/memory, writeback, retire — with a 128-entry reorder
buffer, 64-entry issue queue, 64-entry load/store queue, four pipelined
universal function units, two data-cache ports, a 2^16-entry gshare
conditional-branch predictor, and a 2^16-entry indirect-target table.
Caches and execution latencies match the VISA (Table 1); memory stall time
can *exceed* the VISA worst case because multiple outstanding misses contend
on the memory bus (see :class:`repro.memory.machine.MemoryBus`).

Modelling approach
------------------

This is a *timing-first, trace-driven* model: instructions execute
architecturally in program order (so branch outcomes and addresses are
exact), while timing is computed with a constraint system per instruction:

* fetch groups of up to 4 sequential instructions from one cache block,
  broken by predicted-taken control flow,
* dispatch/issue/commit bandwidth of 4 per cycle, 2 memory ports,
* wakeup on producer completion (back-to-back for 1-cycle ops),
* oracle memory disambiguation (equivalent to perfect store-set
  prediction): a load only waits for earlier stores to the *same* address,
  with store-to-load forwarding from the LSQ,
* structure occupancy: ROB/IQ/LSQ entries gate dispatch,
* branch/indirect mispredictions redirect fetch when the branch executes.

Wrong-path fetch pollution is not modelled (a standard fast-model
approximation; it slightly *favours* the complex core, which only makes
checkpoints easier to meet and does not affect safety, which rests on the
watchdog, not on complex-mode timing).

**Simple mode** (paper §3.2 "pipeline alterations") reuses the shared
in-order engine over this core's own architectural state, caches, and
memory, so its timing is identical to the VISA specification while its
power profile remains that of the big core (large physical register file,
rename lookups) — exactly the distinction §5.2 draws between simple mode
and ``simple-fixed``.

Like the in-order core, two paths implement complex mode:
:meth:`ComplexCore.run` is the hot loop over the program's precompiled fast
plan (:mod:`repro.isa.fastexec`) with the memory bus, bandwidth maps, and
dict-LRU cache accesses inlined and event counters batched;
:meth:`ComplexCore.run_reference` is the original
:func:`repro.isa.semantics.execute`-based loop, kept verbatim as the
differential oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ReproError, SimulationError
from repro.isa import blockjit, layout
from repro.isa.semantics import execute
from repro.memory.machine import Machine, MemoryBus, mem_stall_cycles
from repro.pipelines.inorder import InOrderCore, RunResult
from repro.pipelines.ooo.predictor import GsharePredictor, IndirectPredictor
from repro.pipelines.ooo.sched import ooo_sched, sched_override
from repro.pipelines.state import CoreState

_MMIO_BASE = layout.MMIO_BASE


@dataclass(frozen=True)
class OOOParams:
    """Structure sizes of the complex core (paper §3.2 defaults)."""

    fetch_width: int = 4
    dispatch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_entries: int = 128
    iq_entries: int = 64
    lsq_entries: int = 64
    num_fus: int = 4
    cache_ports: int = 2
    #: Stage offset from issue to execute (issue -> register read -> execute).
    issue_to_ex: int = 2
    #: Front-end refill depth after a misprediction (fetch..register read).
    frontend_depth: int = 4


class _WidthMap:
    """Per-cycle bandwidth allocator."""

    __slots__ = ("width", "used")

    def __init__(self, width: int):
        self.width = width
        self.used: dict[int, int] = {}

    def alloc(self, cycle: int) -> int:
        used = self.used
        width = self.width
        while used.get(cycle, 0) >= width:
            cycle += 1
        used[cycle] = used.get(cycle, 0) + 1
        return cycle

    def probe(self, cycle: int) -> int:
        """First cycle >= ``cycle`` with a free slot (no allocation)."""
        used = self.used
        width = self.width
        while used.get(cycle, 0) >= width:
            cycle += 1
        return cycle


class ComplexCore:
    """The complex processor: OOO complex mode + VISA-compliant simple mode."""

    def __init__(
        self,
        machine: Machine,
        state: CoreState | None = None,
        freq_hz: float = 1e9,
        params: OOOParams | None = None,
    ):
        self.machine = machine
        self.state = state or CoreState(pc=machine.program.entry)
        self.params = params or OOOParams()
        self.gshare = GsharePredictor()
        self.indirect = IndirectPredictor()
        self.freq_hz = freq_hz
        self.stall_cycles = mem_stall_cycles(freq_hz)
        self._simple_core: InOrderCore | None = None

    def set_frequency(self, freq_hz: float) -> None:
        """Change the clock (between drained segments, per DVS semantics)."""
        self.freq_hz = freq_hz
        self.stall_cycles = mem_stall_cycles(freq_hz)
        if self._simple_core is not None:
            self._simple_core.set_frequency(freq_hz)

    def flush_predictors(self) -> None:
        """Flush gshare + indirect tables (Figure 4 misprediction injection)."""
        self.gshare.flush()
        self.indirect.flush()

    # -- simple mode -----------------------------------------------------------

    def simple_mode_core(self) -> InOrderCore:
        """The same processor reconfigured to directly implement the VISA.

        Shares architectural state, caches, and memory with complex mode;
        event counters carry the ``smode_`` prefix so the power model can
        charge the complex core's (larger) structures.
        """
        if self._simple_core is None:
            self._simple_core = InOrderCore(
                self.machine, self.state, self.freq_hz, counter_prefix="smode_",
                train_gshare=self.gshare, train_indirect=self.indirect,
            )
        self._simple_core.set_frequency(self.freq_hz)
        self._simple_core.drain()
        return self._simple_core

    # -- complex (OOO) mode -----------------------------------------------------

    def run(
        self,
        max_instructions: int | None = None,
        honor_watchdog: bool = True,
    ) -> RunResult:
        """Execute in complex mode until halt/watchdog-exception/budget.

        Full-run segments dispatch through the basic-block JIT
        (:mod:`repro.isa.blockjit`) unless disabled; bounded segments use
        the specialized interpreter loop.  Every segment starts from a
        drained pipeline either way, so the paths are freely
        interchangeable and bit-identical.  :meth:`run_reference` is the
        behaviourally-identical oracle both are tested against.
        """
        if max_instructions is None and blockjit.jit_enabled():
            with sched_override(self._effective_sched()):
                table = blockjit.block_table(
                    self.machine, "ooo", self.params, checked=honor_watchdog
                    and not self.machine.mmio.exceptions_masked,
                )
                return blockjit.run_ooo(self, table, honor_watchdog)
        return self._run_interp(max_instructions, honor_watchdog)

    def _effective_sched(self) -> str:
        """The timing scheduler this core actually runs under.

        The event engine inlines the standard 2^16 predictor geometry
        into generated/specialized code; a core carrying non-standard
        predictor masks (never the case outside bespoke experiments)
        falls back to the scan engine rather than mis-simulating.
        """
        sched = ooo_sched()
        if sched == "event" and (
            self.gshare.mask != 0xFFFF or self.indirect.mask != 0xFFFF
        ):
            return "scan"
        return sched

    def _run_interp(
        self,
        max_instructions: int | None = None,
        honor_watchdog: bool = True,
    ) -> RunResult:
        """The specialized per-instruction hot loop (see :meth:`run`)."""
        if self._effective_sched() == "event":
            from repro.pipelines.ooo.event import run_interp_event

            return run_interp_event(self, max_instructions, honor_watchdog)
        state = self.state
        machine = self.machine
        program = machine.program
        mmio = machine.mmio
        params = self.params
        gshare = self.gshare
        indirect = self.indirect
        gpredict = gshare.predict
        gupdate = gshare.update
        ipredict = indirect.predict
        iupdate = indirect.update

        fast = program.fast_plan()
        tbase = program.text_base
        tlen = program.text_end - tbase
        words = machine.memory._words  # noqa: SLF001 - hot-path inlining
        ir = state.int_regs
        fr = state.fp_regs

        # Inlined dict-LRU caches (must mirror Cache.access exactly).
        ic = machine.icache
        dc = machine.dcache
        isets = ic._sets  # noqa: SLF001
        dsets = dc._sets  # noqa: SLF001
        insets = ic.config.num_sets
        dnsets = dc.config.num_sets
        ishift = machine.config.icache.block_shift
        dshift = dc.config.block_shift
        iassoc = ic.config.assoc
        dassoc = dc.config.assoc
        itick = ic._tick  # noqa: SLF001
        dtick = dc._tick  # noqa: SLF001
        ihits = imiss = dhits = dmiss = 0

        start_cycle = state.now
        if state.halted:
            return RunResult("halt", start_cycle, start_cycle, 0)

        # Per-run scheduling structures (the pipeline starts drained).
        base = state.now
        # Inlined MemoryBus: one outstanding-miss channel, serialized.
        penalty = self.stall_cycles
        bus_free = 0
        # Inlined _WidthMap bandwidth allocators (cycle -> slots used).
        dis_w = params.dispatch_width
        iss_w = params.issue_width
        com_w = params.commit_width
        port_w = params.cache_ports
        dis_used: dict[int, int] = {}
        iss_used: dict[int, int] = {}
        com_used: dict[int, int] = {}
        port_used: dict[int, int] = {}
        dis_get = dis_used.get
        iss_get = iss_used.get
        com_get = com_used.get
        port_get = port_used.get
        rob_n = params.rob_entries
        iq_n = params.iq_entries
        lsq_n = params.lsq_entries
        rob_commits: deque[int] = deque(maxlen=rob_n)
        iq_issues: deque[int] = deque(maxlen=iq_n)
        lsq_commits: deque[int] = deque(maxlen=lsq_n)
        rob_append = rob_commits.append
        iq_append = iq_issues.append
        lsq_append = lsq_commits.append
        # Earliest consumer issue per register (int reg n at n, fp at 32+n;
        # 0 means unconstrained — issue is always >= 3 in a drained pipeline).
        ready = [0] * 64
        last_commit = 0
        inflight_stores: dict[int, tuple[int, int]] = {}  # addr -> (comp, commit)
        get_inflight = inflight_stores.get

        # Fetch-group state (relative cycles).
        fetch_width = params.fetch_width
        fetch_cycle = 0  # cycle the current group is being formed in
        group_done = 0  # when the current group's instructions are available
        group_count = 0
        group_block = -1
        redirect = 0
        executed = 0
        i2e = params.issue_to_ex

        # Batched event counters, flushed when the segment ends.
        c_group = 0  # icache + fetch (one per fetch group)
        c_bpred = 0
        c_regread = 0
        c_regwrite = 0
        c_dcache = 0
        n_mem = 0  # lsq allocations

        masked = mmio.exceptions_masked
        wd_enabled = mmio._wd_enabled  # noqa: SLF001
        wd_expiry = mmio._wd_expiry  # noqa: SLF001

        pc = state.pc
        committed_now = state.now
        limit = -1 if max_instructions is None else max_instructions

        try:
            while True:
                if executed == limit:
                    return RunResult("limit", start_cycle, committed_now, executed)

                i = pc - tbase
                if i < 0 or i >= tlen or i & 3:
                    raise ReproError(f"no instruction at {pc:#x}")
                (
                    kind, ex, src_keys, dkey, wbank, dnum, nsrc, lat,
                    npc, starget, ptaken, inst,
                ) = fast[i >> 2]

                # ---- fetch group formation (inlined I-cache + bus) ----
                blk = pc >> ishift
                if (
                    group_count >= fetch_width
                    or blk != group_block
                    or fetch_cycle < redirect
                ):
                    fetch_cycle += 1
                    if redirect > fetch_cycle:
                        fetch_cycle = redirect
                    group_count = 0
                    group_block = blk
                    c_group += 1
                    way = isets[blk % insets]
                    if blk in way:
                        way[blk] = itick
                        itick += 1
                        ihits += 1
                        group_done = fetch_cycle
                    else:
                        way[blk] = itick
                        itick += 1
                        if len(way) > iassoc:
                            del way[min(way, key=way.__getitem__)]
                        imiss += 1
                        t = fetch_cycle
                        if bus_free > t:
                            t = bus_free
                        group_done = bus_free = t + penalty
                        fetch_cycle = group_done  # fetch resumes after the fill
                group_count += 1
                fetch_time = group_done

                # ---- architectural execute + branch prediction ----
                mispredicted = False
                taken_control = False  # predicted-taken control flow
                if kind == 0:  # K_ALU
                    value = ex(ir, fr)
                elif kind == 1:  # K_LOAD
                    addr = ex(ir)
                elif kind == 2:  # K_STORE
                    addr, store_value = ex(ir, fr)
                elif kind == 3:  # K_BRANCH
                    taken = ex(ir)
                    c_bpred += 1
                    predicted = gpredict(pc)
                    gupdate(pc, taken)
                    mispredicted = predicted != taken
                    taken_control = predicted
                elif kind == 4:  # K_JUMP
                    taken_control = True
                elif kind == 5:  # K_INDIRECT
                    target = ex(ir)
                    c_bpred += 1
                    predicted_target = ipredict(pc)
                    iupdate(pc, target)
                    mispredicted = predicted_target != target
                    taken_control = True
                # K_HALT (6): nothing to execute.

                # ---- dispatch (rename, allocate ROB/IQ/LSQ) ----
                dispatch = fetch_time + 1
                if len(rob_commits) == rob_n:
                    t = rob_commits[0] + 1
                    if t > dispatch:
                        dispatch = t
                if len(iq_issues) == iq_n:
                    t = iq_issues[0] + 1
                    if t > dispatch:
                        dispatch = t
                is_mem = kind == 1 or kind == 2
                if is_mem:
                    n_mem += 1
                    if len(lsq_commits) == lsq_n:
                        t = lsq_commits[0] + 1
                        if t > dispatch:
                            dispatch = t
                while dis_get(dispatch, 0) >= dis_w:
                    dispatch += 1
                dis_used[dispatch] = dis_get(dispatch, 0) + 1

                # ---- issue (wakeup/select) ----
                issue = dispatch + 1
                for sk in src_keys:
                    t = ready[sk]
                    if t > issue:
                        issue = t
                if is_mem:
                    # Find a cycle with both an issue slot and a cache port,
                    # then claim both.
                    while True:
                        while iss_get(issue, 0) >= iss_w:
                            issue += 1
                        ported = issue
                        while port_get(ported, 0) >= port_w:
                            ported += 1
                        if ported == issue:
                            break
                        issue = ported
                    port_used[issue] = port_get(issue, 0) + 1
                else:
                    while iss_get(issue, 0) >= iss_w:
                        issue += 1
                iss_used[issue] = iss_get(issue, 0) + 1
                c_regread += nsrc

                ex_start = issue + i2e

                # ---- execute / memory ----
                if kind == 1:  # load
                    if addr >= _MMIO_BASE:
                        mmio_load = True
                        comp = ex_start + 1
                    else:
                        mmio_load = False
                        entry = get_inflight(addr)
                        forwarded = entry is not None and entry[1] > ex_start
                        c_dcache += 1
                        blk = addr >> dshift
                        way = dsets[blk % dnsets]
                        if blk in way:
                            way[blk] = dtick
                            dtick += 1
                            dhits += 1
                            hit = True
                        else:
                            way[blk] = dtick
                            dtick += 1
                            if len(way) > dassoc:
                                del way[min(way, key=way.__getitem__)]
                            dmiss += 1
                            hit = False
                        if forwarded:
                            # Older store still in the LSQ: forward its data.
                            comp = entry[0] + 1
                            t = ex_start + 1
                            if t > comp:
                                comp = t
                        elif hit:
                            comp = ex_start + 2
                        else:
                            t = ex_start + 1
                            if bus_free > t:
                                t = bus_free
                            bus_free = t + penalty
                            comp = bus_free + 1
                elif kind == 2:  # store
                    comp = ex_start + 1  # AGEN; the cache write happens at commit
                else:
                    comp = ex_start + lat

                if mispredicted:
                    redirect = comp + 1
                    fetch_cycle = redirect - 1  # next group forms at redirect
                    group_count = fetch_width  # force a new group
                elif taken_control:
                    group_count = fetch_width  # taken flow breaks the group

                # ---- commit (in order, 4-wide) ----
                commit = comp + 1
                if last_commit > commit:
                    commit = last_commit
                while com_get(commit, 0) >= com_w:
                    commit += 1
                com_used[commit] = com_get(commit, 0) + 1
                if commit > last_commit:
                    last_commit = commit
                rob_append(commit)
                if is_mem:
                    lsq_append(commit)
                iq_append(issue)

                # ---- architectural side effects ----
                now_abs = base + commit
                if kind == 0:
                    if wbank == 1:
                        ir[dnum] = value
                    elif wbank == 2:
                        fr[dnum] = value
                    pc = npc
                elif kind == 1:
                    if mmio_load:
                        value = mmio.read(addr, base + ex_start + 1)
                    else:
                        if addr & 3 or tbase <= addr < tbase + tlen:
                            machine.data_read(addr, now_abs)  # raises precisely
                        value = words.get(addr, 0)
                    if wbank == 1:
                        ir[dnum] = value
                    elif wbank == 2:
                        fr[dnum] = value
                    pc = npc
                elif kind == 2:
                    if addr >= _MMIO_BASE:
                        mmio.write(addr, store_value, now_abs)
                        masked = mmio.exceptions_masked
                        wd_enabled = mmio._wd_enabled  # noqa: SLF001
                        wd_expiry = mmio._wd_expiry  # noqa: SLF001
                    else:
                        if addr & 3 or tbase <= addr < tbase + tlen:
                            machine.data_write(addr, store_value, now_abs)
                        if store_value.__class__ is int:
                            words[addr] = (
                                (store_value + 0x80000000) & 0xFFFFFFFF
                            ) - 0x80000000
                        else:
                            words[addr] = store_value
                        c_dcache += 1
                        blk = addr >> dshift
                        way = dsets[blk % dnsets]
                        if blk in way:
                            way[blk] = dtick
                            dtick += 1
                            dhits += 1
                        else:
                            way[blk] = dtick
                            dtick += 1
                            if len(way) > dassoc:
                                del way[min(way, key=way.__getitem__)]
                            dmiss += 1
                            # Write-allocate fill occupies the bus.
                            t = commit
                            if bus_free > t:
                                t = bus_free
                            bus_free = t + penalty
                        inflight_stores[addr] = (comp, commit)
                    pc = npc
                elif kind == 3:
                    pc = starget if taken else npc
                elif kind == 4:  # J / JAL
                    if wbank == 1:
                        ir[dnum] = npc
                    pc = starget
                elif kind == 5:  # JR / JALR
                    if wbank == 1:
                        ir[dnum] = npc
                    pc = target
                else:  # K_HALT
                    pc = npc

                if dkey >= 0:
                    c_regwrite += 1
                    # Dependents may issue once the producer's result is on
                    # the bypass network: issue >= comp - issue_to_ex ensures
                    # their execute starts at comp.
                    ready[dkey] = comp - i2e

                committed_now = base + last_commit
                executed += 1

                if kind == 6:
                    state.halted = True
                    return RunResult("halt", start_cycle, committed_now, executed)

                if (
                    honor_watchdog
                    and not masked
                    and wd_enabled
                    and committed_now >= wd_expiry
                ):
                    return RunResult(
                        "watchdog",
                        start_cycle,
                        committed_now,
                        executed,
                        exception_cycle=min(committed_now, wd_expiry),
                    )

                if executed > 200_000_000:  # pragma: no cover - runaway guard
                    raise SimulationError("instruction budget exceeded (runaway?)")
        finally:
            # Flush batched state back so every exit (return *or* raise)
            # leaves the core observationally identical to run_reference.
            state.pc = pc
            state.now = committed_now
            state.instret += executed
            ic._tick = itick  # noqa: SLF001
            dc._tick = dtick  # noqa: SLF001
            ics = ic.stats
            ics.hits += ihits
            ics.misses += imiss
            dcs = dc.stats
            dcs.hits += dhits
            dcs.misses += dmiss
            counters = state.counters
            if executed:
                counters["rename"] += executed
                counters["rob_write"] += executed
                counters["iq"] += executed
                counters["regread"] += c_regread
                counters["fu"] += executed
                counters["commit"] += executed
            if c_group:
                counters["icache"] += c_group
                counters["fetch"] += c_group
            if c_bpred:
                counters["bpred"] += c_bpred
            if n_mem:
                counters["lsq"] += n_mem
            if c_dcache:
                counters["dcache"] += c_dcache
            if c_regwrite:
                counters["regwrite"] += c_regwrite

    def run_reference(
        self,
        max_instructions: int | None = None,
        honor_watchdog: bool = True,
    ) -> RunResult:
        """Reference implementation of :meth:`run` (the differential oracle).

        The original :func:`repro.isa.semantics.execute`-based loop, kept
        verbatim so the fast loop can be tested against it end to end.
        Each call starts from a drained pipeline (as does :meth:`run`), so
        the two paths can be compared segment by segment.
        """
        state = self.state
        machine = self.machine
        program = machine.program
        mmio = machine.mmio
        icache = machine.icache
        dcache = machine.dcache
        counters = state.counters
        params = self.params
        gshare = self.gshare
        indirect = self.indirect
        bus = MemoryBus(self.stall_cycles)
        block_shift = machine.config.icache.block_shift

        start_cycle = state.now
        if state.halted:
            return RunResult("halt", start_cycle, start_cycle, 0)

        # Per-run scheduling structures (the pipeline starts drained).
        base = state.now
        dispatch_bw = _WidthMap(params.dispatch_width)
        issue_bw = _WidthMap(params.issue_width)
        mem_ports = _WidthMap(params.cache_ports)
        commit_bw = _WidthMap(params.commit_width)
        rob_commits: deque[int] = deque(maxlen=params.rob_entries)
        iq_issues: deque[int] = deque(maxlen=params.iq_entries)
        lsq_commits: deque[int] = deque(maxlen=params.lsq_entries)
        reg_ready: dict[tuple[str, int], int] = {}  # earliest consumer issue
        last_commit = 0
        inflight_stores: dict[int, tuple[int, int]] = {}  # addr -> (comp, commit)

        # Fetch-group state (relative cycles).
        fetch_cycle = 0  # cycle the current group is being formed in
        group_done = 0  # when the current group's instructions are available
        group_count = 0
        group_block = -1
        redirect = 0
        executed = 0
        i2e = params.issue_to_ex

        while True:
            if max_instructions is not None and executed >= max_instructions:
                state.now = base + last_commit
                return RunResult("limit", start_cycle, state.now, executed)

            pc = state.pc
            inst = program.inst_at(pc)

            # ---- fetch group formation ----
            block = pc >> block_shift
            if (
                group_count >= params.fetch_width
                or block != group_block
                or fetch_cycle < redirect
            ):
                fetch_cycle = max(fetch_cycle + 1, redirect)
                group_count = 0
                group_block = block
                counters["icache"] += 1
                counters["fetch"] += 1
                if icache.access(pc):
                    group_done = fetch_cycle
                else:
                    group_done = bus.request(fetch_cycle)
                    fetch_cycle = group_done  # fetch resumes after the fill
            group_count += 1
            fetch_time = group_done

            # ---- architectural execute ----
            result = execute(inst, state.read_int, state.read_fp)

            # ---- branch prediction ----
            mispredicted = False
            predicted_taken_control = False
            if inst.is_branch:
                counters["bpred"] += 1
                predicted = gshare.predict(pc)
                gshare.update(pc, result.taken)
                mispredicted = predicted != result.taken
                predicted_taken_control = predicted
            elif inst.is_indirect_jump:
                counters["bpred"] += 1
                predicted_target = indirect.predict(pc)
                actual_target = result.target
                indirect.update(pc, actual_target)
                mispredicted = predicted_target != actual_target
                predicted_taken_control = True
            elif inst.is_direct_jump:
                predicted_taken_control = True

            # ---- dispatch (rename, allocate ROB/IQ/LSQ) ----
            dispatch = fetch_time + 1
            if len(rob_commits) == params.rob_entries:
                dispatch = max(dispatch, rob_commits[0] + 1)
            if len(iq_issues) == params.iq_entries:
                dispatch = max(dispatch, iq_issues[0] + 1)
            if inst.is_mem and len(lsq_commits) == params.lsq_entries:
                dispatch = max(dispatch, lsq_commits[0] + 1)
            dispatch = dispatch_bw.alloc(dispatch)
            counters["rename"] += 1
            counters["rob_write"] += 1
            if inst.is_mem:
                counters["lsq"] += 1

            # ---- issue (wakeup/select) ----
            issue = dispatch + 1
            for src in inst.sources:
                ready = reg_ready.get(src)
                if ready is not None and ready > issue:
                    issue = ready
            if inst.is_mem:
                # Find a cycle with both an issue slot and a cache port,
                # then claim both.
                while True:
                    candidate = issue_bw.probe(issue)
                    ported = mem_ports.probe(candidate)
                    if ported == candidate:
                        issue = candidate
                        break
                    issue = ported
                mem_ports.alloc(issue)
            issue = issue_bw.alloc(issue)
            counters["iq"] += 1
            counters["regread"] += len(inst.sources)
            counters["fu"] += 1

            ex_start = issue + i2e

            # ---- execute / memory ----
            mmio_addr = None
            if inst.is_load:
                addr = result.eff_addr
                forwarded = False
                if layout.is_mmio(addr):
                    mmio_addr = addr
                    comp = ex_start + 1
                else:
                    entry = inflight_stores.get(addr)
                    if entry is not None and entry[1] > ex_start:
                        # Older store still in the LSQ: forward its data.
                        comp = max(ex_start + 1, entry[0] + 1)
                        forwarded = True
                    counters["dcache"] += 1
                    hit = dcache.access(addr)
                    if not forwarded:
                        if hit:
                            comp = ex_start + 1 + 1
                        else:
                            comp = bus.request(ex_start + 1) + 1
            elif inst.is_store:
                addr = result.eff_addr
                if layout.is_mmio(addr):
                    mmio_addr = addr
                comp = ex_start + 1  # AGEN; the cache write happens at commit
            else:
                comp = ex_start + inst.latency

            if mispredicted:
                redirect = comp + 1
                fetch_cycle = redirect - 1  # next group forms at redirect
                group_count = params.fetch_width  # force a new group
            elif predicted_taken_control:
                group_count = params.fetch_width  # taken flow breaks the group

            # ---- commit (in order, 4-wide) ----
            commit = max(comp + 1, last_commit)
            commit = commit_bw.alloc(commit)
            last_commit = max(last_commit, commit)
            rob_commits.append(commit)
            if inst.is_mem:
                lsq_commits.append(commit)
            iq_issues.append(issue)
            counters["commit"] += 1

            # ---- architectural side effects ----
            now_abs = base + commit
            if inst.is_load:
                if mmio_addr is not None:
                    value = mmio.read(mmio_addr, base + ex_start + 1)
                else:
                    value, _ = machine.data_read(result.eff_addr, now_abs)
                state.write_reg(inst.dest, value)
            elif inst.is_store:
                if mmio_addr is not None:
                    mmio.write(mmio_addr, result.store_value, now_abs)
                else:
                    machine.data_write(result.eff_addr, result.store_value, now_abs)
                    counters["dcache"] += 1
                    if not dcache.access(result.eff_addr):
                        bus.request(commit)  # write-allocate fill
                    inflight_stores[result.eff_addr] = (comp, commit)
            elif inst.dest is not None:
                state.write_reg(inst.dest, result.value)

            if inst.dest is not None:
                counters["regwrite"] += 1
                # Dependents may issue once the producer's result is on the
                # bypass network: issue >= comp - issue_to_ex ensures their
                # execute starts at comp.
                reg_ready[inst.dest] = comp - i2e

            state.pc = result.target if result.target is not None else pc + 4
            state.now = base + last_commit
            state.instret += 1
            executed += 1

            if result.halt:
                state.halted = True
                return RunResult("halt", start_cycle, state.now, executed)

            if (
                honor_watchdog
                and not mmio.exceptions_masked
                and mmio.watchdog_expired(state.now)
            ):
                return RunResult(
                    "watchdog",
                    start_cycle,
                    state.now,
                    executed,
                    exception_cycle=min(state.now, mmio._wd_expiry),  # noqa: SLF001
                )

            if executed > 200_000_000:  # pragma: no cover - runaway guard
                raise SimulationError("instruction budget exceeded (runaway?)")
