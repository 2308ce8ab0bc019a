"""Run-level result cache: memoized runtime ``run()`` outputs on disk.

A whole-run simulation is deterministic: the same program, runtime
configuration, DVS table, and flush set always produce the same
``TaskRun`` list.  This module caches those lists under the existing
``.repro_cache/`` directory so repeated figure/ablation invocations skip
the simulation entirely.

Key derivation (:func:`run_key`) covers every input the result depends
on — program digest, all ``RuntimeConfig`` fields, the DVS table's
operating points, the flush set, runtime kind plus any extras (D-cache
bounds, speculation policy) — and is salted with the snapshot
:data:`~repro.snapshot.state.FORMAT_VERSION`, so a layout change
invalidates every stored entry at once.

``REPRO_NO_CACHE=1`` (or the CLI's ``--no-cache``) bypasses loads *and*
stores; ``REPRO_CACHE_DIR`` relocates the directory.  Entries are
published atomically so parallel experiment workers may race on a key.
In-process :data:`STATS` counters make hits observable to tests and CI
smoke checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
from collections import Counter
from collections.abc import Iterator
from contextvars import ContextVar
from pathlib import Path

from repro.snapshot.state import FORMAT_VERSION, canonical_json, program_digest
from repro.visa.dvs import DVSTable, Setting
from repro.visa.runtime import Phase, RuntimeConfig, TaskRun

#: In-process observability: run-cache hits/misses/stores since import
#: (or the last :func:`reset_stats`).
STATS = Counter()


def reset_stats() -> None:
    """Zero the hit/miss/store counters (tests and benchmarks)."""
    STATS.clear()


def cache_dir() -> Path:
    """Directory for all on-disk caches (``REPRO_CACHE_DIR`` overrides)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


#: Context-local override for :func:`cache_disabled`.  ``None`` defers to
#: the ``REPRO_NO_CACHE`` environment variable; ``True``/``False`` wins
#: outright.  Being a :class:`~contextvars.ContextVar` (not plain module
#: state, and never ``os.environ``), concurrent in-process callers — the
#: service's asyncio tasks in particular — cannot race on it.
_NO_CACHE_OVERRIDE: ContextVar[bool | None] = ContextVar(
    "repro_no_cache_override", default=None
)


def cache_disabled() -> bool:
    """True when the disk caches should be bypassed.

    An explicit :func:`no_cache_override` (threaded down from the CLI's
    ``--no-cache`` or an API ``no_cache=`` parameter) takes precedence;
    the ``REPRO_NO_CACHE`` environment variable is only the default.
    """
    override = _NO_CACHE_OVERRIDE.get()
    if override is not None:
        return override
    return os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")


@contextlib.contextmanager
def no_cache_override(value: bool | None) -> Iterator[None]:
    """Scope an explicit cache-bypass decision (``None`` = no opinion).

    Used by the experiment entry points to honor ``no_cache=`` without
    mutating global environment state that parallel in-process callers
    would race on; worker processes re-enter the override around each
    cell (see :func:`repro.experiments.parallel.parallel_map`).
    """
    token = _NO_CACHE_OVERRIDE.set(value)
    try:
        yield
    finally:
        _NO_CACHE_OVERRIDE.reset(token)


def atomic_write_bytes(path: Path, data: bytes) -> bool:
    """Best-effort atomic publish (concurrent workers may race on a key).

    Returns False when the write failed: caching is best-effort, and the
    computed result is still returned to the caller.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        return False
    return True


def append_bytes(path: Path, data: bytes) -> bool:
    """Append ``data`` to the existing file at ``path`` in one ``write``.

    Never creates the file; returns False when there is none (or on any
    I/O error), so the caller can publish a whole new file instead.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    except OSError:
        return False
    try:
        return os.write(fd, data) == len(data)
    except OSError:
        return False
    finally:
        os.close(fd)


def atomic_write_json(path: Path, payload) -> None:
    """:func:`atomic_write_bytes` of ``payload`` as canonical JSON."""
    atomic_write_bytes(path, canonical_json(payload).encode())


# -- key derivation -------------------------------------------------------------


def table_fields(table: DVSTable) -> list:
    """The DVS operating points as JSON-able ``[freq_hz, volts]`` pairs."""
    return [[s.freq_hz, s.volts] for s in table]


def run_key(
    kind: str,
    program,
    config: RuntimeConfig,
    table: DVSTable,
    flush_instances=frozenset(),
    extra: dict | None = None,
) -> str:
    """Cache key for one runtime's full run.

    Any field change — program digest, config, DVS table, flush set,
    extras, or the snapshot format version — yields a different key, which
    is how invalidation works: stale entries are simply never looked up
    again (``repro cache clear`` reclaims the space).
    """
    payload = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "program": program_digest(program),
        "config": dataclasses.asdict(config),
        "table": table_fields(table),
        "flush": sorted(flush_instances),
        "extra": extra or {},
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:24]


# -- TaskRun (de)serialization ---------------------------------------------------


def _dump_setting(setting: Setting) -> list:
    return [setting.freq_hz, setting.volts]


def _load_setting(pair: list) -> Setting:
    return Setting(freq_hz=float(pair[0]), volts=float(pair[1]))


def serialize_runs(runs: list[TaskRun]) -> list:
    """JSON-able form of a ``TaskRun`` list (exact float round-trip)."""
    return [
        {
            "index": run.index,
            "phases": [
                {
                    "kind": phase.kind,
                    "mode": phase.mode,
                    "freq_hz": phase.freq_hz,
                    "volts": phase.volts,
                    "cycles": phase.cycles,
                    "seconds": phase.seconds,
                    "counters": {
                        k: phase.counters[k] for k in sorted(phase.counters)
                    },
                }
                for phase in run.phases
            ],
            "mispredicted": run.mispredicted,
            "completion_seconds": run.completion_seconds,
            "deadline": run.deadline,
            "f_spec": _dump_setting(run.f_spec),
            "f_rec": _dump_setting(run.f_rec),
        }
        for run in runs
    ]


def deserialize_runs(payload: list) -> list[TaskRun]:
    """Inverse of :func:`serialize_runs`; results compare ``==`` to originals."""
    return [
        TaskRun(
            index=int(entry["index"]),
            phases=[
                Phase(
                    kind=str(p["kind"]),
                    mode=str(p["mode"]),
                    freq_hz=float(p["freq_hz"]),
                    volts=float(p["volts"]),
                    cycles=int(p["cycles"]),
                    seconds=float(p["seconds"]),
                    counters=Counter(
                        {str(k): int(v) for k, v in p["counters"].items()}
                    ),
                )
                for p in entry["phases"]
            ],
            mispredicted=bool(entry["mispredicted"]),
            completion_seconds=float(entry["completion_seconds"]),
            deadline=float(entry["deadline"]),
            f_spec=_load_setting(entry["f_spec"]),
            f_rec=_load_setting(entry["f_rec"]),
        )
        for entry in payload
    ]


# -- load/store -----------------------------------------------------------------


def _run_path(name: str, key: str) -> Path:
    return cache_dir() / f"run-{name}-{key}.json"


def load_runs(name: str, key: str) -> list[TaskRun] | None:
    """Cached run for ``key``, or None on miss/bypass/corruption."""
    if cache_disabled():
        return None
    try:
        payload = json.loads(_run_path(name, key).read_text())
        runs = deserialize_runs(payload["runs"])
    except (OSError, ValueError, KeyError, TypeError):
        STATS["misses"] += 1
        return None
    STATS["hits"] += 1
    return runs


def store_runs(name: str, key: str, runs: list[TaskRun]) -> None:
    """Publish a computed run under ``key`` (no-op when caching is off)."""
    if cache_disabled():
        return
    atomic_write_json(
        _run_path(name, key),
        {"format": FORMAT_VERSION, "runs": serialize_runs(runs)},
    )
    STATS["stores"] += 1


# -- CLI support ----------------------------------------------------------------


def cache_entries() -> list[tuple[str, int]]:
    """``(filename, bytes)`` for every cache entry, largest first."""
    directory = cache_dir()
    if not directory.is_dir():
        return []
    entries = []
    for path in directory.iterdir():
        if path.is_file() and path.suffix in (".json", ".tmp"):
            try:
                entries.append((path.name, path.stat().st_size))
            except OSError:
                continue
    entries.sort(key=lambda e: (-e[1], e[0]))
    return entries


def cache_stats() -> dict:
    """One collector for every cache-observability surface.

    Combines the on-disk view (entry count, total bytes) with the
    in-process :data:`STATS` hit/miss/store counters.  ``repro cache
    stats`` renders this directly and the service's metrics endpoint
    feeds its gauges from the same function, so the two always agree.
    The nested ``blockjit`` dict covers the generated-code cache under
    ``blockjit/`` the same way (see :mod:`repro.isa.blockjit`).
    """
    from repro.isa import blockjit

    entries = cache_entries()
    return {
        "directory": str(cache_dir()),
        "entries": len(entries),
        "bytes": sum(size for _, size in entries),
        "hits": int(STATS["hits"]),
        "misses": int(STATS["misses"]),
        "stores": int(STATS["stores"]),
        "blockjit": blockjit.disk_cache_stats(),
    }


def clear_cache() -> tuple[int, int]:
    """Delete every cache entry (run caches *and* the ``blockjit/``
    codegen cache); returns ``(files_removed, bytes_freed)``."""
    from repro.isa import blockjit

    removed = freed = 0
    directory = cache_dir()
    if directory.is_dir():
        for path in directory.iterdir():
            if path.is_file() and path.suffix in (".json", ".tmp"):
                try:
                    size = path.stat().st_size
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                freed += size
    jit_removed, jit_freed = blockjit.clear_disk_cache()
    return removed + jit_removed, freed + jit_freed
