"""Process-parallel fan-out for the experiment drivers.

Every experiment in this package is a loop over independent *cells* —
(benchmark × deadline × configuration) tuples that share no mutable state:
each cell builds its own machines and runtimes from scratch, and the only
cross-cell sharing is the read-only :func:`repro.experiments.common.setup`
result (recomputed or disk-cache-loaded per process).  That makes them
embarrassingly parallel, and this module is the one place that knows how
to fan them out.

``parallel_map(fn, cells)`` preserves input order and runs serially unless
parallelism was requested, so serial and parallel runs produce
*bit-identical* row lists (a regression test asserts this).  The worker
``fn`` must be a module-level function and every cell argument must be
picklable — pass benchmark names and numbers, not ``Workload`` objects
(input generators hold closures, which do not pickle).

Knobs:

* ``REPRO_JOBS`` — worker process count for all experiment drivers and
  benchmarks (default 1 = serial; any value <= 1 never spawns a pool).
* ``jobs=`` keyword on each experiment's ``run()`` and the CLI's
  ``--jobs`` flag override the environment.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import TypeVar

from repro.errors import ReproError
from repro.isa import blockjit
from repro.snapshot import runcache

C = TypeVar("C")
R = TypeVar("R")


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ReproError(
            f"REPRO_JOBS must be an integer, got {env!r}"
        ) from None


def _cell_with_overrides(
    fn: Callable[[C], R],
    no_cache: bool,
    tier: str,
    ooo_sched: str,
    cell: C,
) -> R:
    """Run one cell under the caller's resolved settings.

    Module-level (and composed via :func:`functools.partial`) so the
    resulting callable pickles into worker processes; the settings are
    re-entered *inside* each process rather than published through
    ``os.environ``, which concurrent in-process callers would race on.
    They arrive resolved: a worker started by ``forkserver`` or
    ``spawn`` does not inherit the caller's ContextVar overrides.
    """
    from repro.pipelines.ooo.sched import sched_override

    with runcache.no_cache_override(no_cache):
        with blockjit.tier_override(tier), sched_override(ooo_sched):
            return fn(cell)


def _resolved_tier(no_jit: bool | None) -> str:
    """The JIT tier a cell runs at: the caller's, unless ``no_jit``
    forces the interpreter or (``False``) forces compilation on."""
    if no_jit:
        return "off"
    tier = blockjit.jit_tier()
    if no_jit is False and tier == "off":
        return blockjit.DEFAULT_TIER
    return tier


def parallel_map(
    fn: Callable[[C], R],
    cells: Iterable[C],
    jobs: int | None = None,
    no_cache: bool | None = None,
    no_jit: bool | None = None,
    ooo_sched: str | None = None,
) -> list[R]:
    """Map ``fn`` over ``cells``, optionally across worker processes.

    Results come back in input order regardless of completion order, so the
    output is identical to ``[fn(c) for c in cells]``.  With ``jobs`` (or
    ``REPRO_JOBS``) at 1 — or a single cell — no pool is created and the
    map runs in-process, which also keeps tracebacks simple.

    ``no_cache`` threads the CLI's ``--no-cache`` down to every cell as an
    explicit parameter (``None`` defers to the ``REPRO_NO_CACHE``
    environment default) — global state is never mutated, so concurrent
    in-process callers cannot observe each other's setting.  ``no_jit``
    forces the interpreter (``True``) or compilation (``False``); ``None``
    keeps the caller's JIT tier.  ``ooo_sched`` picks the complex-core
    timing scheduler (``None``: the caller's).  All three are resolved
    here, in the caller, so every cell under every multiprocessing start
    method runs with the same settings.

    Worker exceptions propagate to the caller (the pool is shut down
    eagerly; remaining cells may or may not have run, exactly like an
    exception mid-way through the serial loop).
    """
    from repro.pipelines.ooo.sched import ooo_sched as active_sched

    items: Sequence[C] = cells if isinstance(cells, Sequence) else list(cells)
    if jobs is None:
        jobs = default_jobs()
    call: Callable[[C], R] = partial(
        _cell_with_overrides, fn,
        runcache.cache_disabled() if no_cache is None else no_cache,
        _resolved_tier(no_jit), ooo_sched or active_sched(),
    )
    if jobs <= 1 or len(items) <= 1:
        return [call(c) for c in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(call, items))


__all__ = ["default_jobs", "parallel_map"]
