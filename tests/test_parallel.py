"""Process-parallel experiment fan-out and the on-disk setup cache.

``REPRO_JOBS`` must never change the numbers: ``parallel_map`` preserves
cell order and each cell is computed in an isolated worker, so the
parallel path is bit-identical to the serial one.  The disk cache must be
equally invisible: a cache hit yields the same :class:`Setup` values the
analyzer would have computed.
"""

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from repro.errors import ReproError
from repro.experiments import common, figure2, parallel
from repro.experiments.parallel import default_jobs, parallel_map
from repro.isa import blockjit
from repro.pipelines.ooo.sched import ooo_sched, sched_override
from repro.snapshot import runcache


def _square(x: int) -> int:
    return x * x


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(17))
        assert parallel_map(_square, items, jobs=4) == [x * x for x in items]

    def test_serial_path_for_one_job(self):
        calls = []
        assert parallel_map(calls.append, [1, 2, 3], jobs=1) == [None] * 3
        assert calls == [1, 2, 3]  # ran in-process, in order

    def test_single_item_stays_serial(self):
        # One cell never pays process-spawn overhead.
        calls = []
        parallel_map(calls.append, ["only"], jobs=8)
        assert calls == ["only"]

    def test_accepts_generators(self):
        assert parallel_map(_square, (x for x in range(5)), jobs=2) == [
            0, 1, 4, 9, 16,
        ]

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1  # clamped
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ReproError):
            default_jobs()  # surfaces as a one-line CLI diagnostic


def _cell_settings(_cell: int) -> tuple[str, str]:
    return blockjit.jit_tier(), ooo_sched()


def _cell_cache_disabled(_cell: int) -> bool:
    return runcache.cache_disabled()


class TestSettingsReachCells:
    """Every cell runs with the caller's JIT tier and OOO scheduler."""

    @pytest.fixture(autouse=True)
    def _no_env(self, monkeypatch):
        for name in ("REPRO_JIT", "REPRO_JIT_TIER", "REPRO_OOO_SCHED"):
            monkeypatch.delenv(name, raising=False)

    def test_serial_cache_override_keeps_caller_tier(self):
        # Passing another override must not drop the caller's tier.
        with blockjit.tier_override("off"):
            cells = parallel_map(_cell_settings, [0, 1], jobs=1, no_cache=True)
        assert cells == [("off", "event")] * 2

    def test_caller_cache_override_reaches_cells(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        with runcache.no_cache_override(True):
            assert parallel_map(
                _cell_cache_disabled, [0, 1], jobs=1, no_jit=True
            ) == [True, True]
        assert parallel_map(
            _cell_cache_disabled, [0], jobs=1, no_cache=True
        ) == [True]

    def test_serial_no_jit_flags(self):
        with blockjit.tier_override("trace"):
            assert parallel_map(
                _cell_settings, [0], jobs=1, no_jit=True
            ) == [("off", "event")]
            assert parallel_map(
                _cell_settings, [0], jobs=1, no_jit=False
            ) == [("trace", "event")]
        with blockjit.tier_override("off"):
            assert parallel_map(
                _cell_settings, [0], jobs=1, no_jit=False
            ) == [(blockjit.DEFAULT_TIER, "event")]

    @pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
    def test_pool_workers_see_caller_settings(self, method, monkeypatch):
        # forkserver and spawn workers start without the caller's
        # ContextVars, so the settings must travel with each cell.
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
        ))
        with blockjit.tier_override("trace"), sched_override("scan"):
            cells = parallel_map(_cell_settings, [0, 1], jobs=2)
        assert cells == [("trace", "scan")] * 2
        with runcache.no_cache_override(True):
            assert parallel_map(
                _cell_cache_disabled, [0, 1], jobs=2
            ) == [True, True]


class TestSerialParallelEquivalence:
    def test_figure2_rows_bit_identical(self):
        serial = figure2.run(scale="tiny", instances=6, jobs=1)
        parallel = figure2.run(scale="tiny", instances=6, jobs=4)
        assert serial == parallel


class TestFlushSet:
    @pytest.mark.parametrize("instances", [1, 2, 7, 19, 40, 41, 100])
    @pytest.mark.parametrize(
        "fraction", [0.0, 0.1, 0.2, 0.3, 0.5, 0.99, 1.0]
    )
    def test_exact_count_in_window(self, instances, fraction):
        start = min(20, instances // 2)
        window = instances - start
        flushed = common.flush_set(instances, fraction)
        expected = min(window, round(window * fraction))
        assert len(flushed) == max(0, expected)
        assert all(start <= i < instances for i in flushed)

    def test_full_fraction_flushes_whole_window(self):
        assert common.flush_set(10, 1.0, start=0) == set(range(10))

    def test_spread_is_roughly_even(self):
        flushed = sorted(common.flush_set(100, 0.2, start=0))
        gaps = [b - a for a, b in zip(flushed, flushed[1:])]
        assert math.isclose(sum(gaps) / len(gaps), 5.0, rel_tol=0.25)

    def test_empty_window(self):
        assert common.flush_set(0, 0.5) == set()
        assert common.flush_set(20, 0.5, start=20) == set()
        # Start past the end is a degenerate (negative-width) window.
        assert common.flush_set(10, 1.0, start=15) == set()

    def test_full_fraction_exact_count_default_start(self):
        # fraction=1.0 must flush the whole steady-state window exactly.
        assert common.flush_set(40, 1.0) == set(range(20, 40))
        assert common.flush_set(7, 1.0) == set(range(3, 7))

    @pytest.mark.parametrize("start", [0, 1, 5, 19])
    def test_non_default_start_exact_count(self, start):
        flushed = common.flush_set(40, 0.25, start=start)
        assert len(flushed) == round((40 - start) * 0.25)
        assert all(start <= i < 40 for i in flushed)

    @pytest.mark.parametrize("fraction", [0.3, 0.7, 0.9, 0.99])
    def test_indices_strictly_increasing(self, fraction):
        # The step construction must never collapse two indices into one
        # (that would silently under-flush near the window edge): sorted
        # indices are strictly increasing and the count is exact.
        flushed = sorted(common.flush_set(41, fraction))
        assert all(b > a for a, b in zip(flushed, flushed[1:]))
        assert len(flushed) == round((41 - 20) * fraction)

    def test_window_start_helper(self):
        assert common.flush_window_start(40) == 20
        assert common.flush_window_start(12) == 6
        assert common.flush_window_start(100) == 20  # capped warm-up
        assert common.flush_window_start(40, start=7) == 7  # explicit wins


class TestDiskCache:
    @pytest.fixture
    def cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        common.setup.cache_clear()
        yield tmp_path
        common.setup.cache_clear()

    def test_miss_then_hit_round_trips(self, cache_env):
        computed = common.setup("cnt", "tiny")
        files = list(cache_env.glob("setup-cnt-tiny-*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["dcache_bounds"] == computed.dcache_bounds

        common.setup.cache_clear()  # force the disk path
        cached = common.setup("cnt", "tiny")
        assert cached is not computed
        assert cached.dcache_bounds == computed.dcache_bounds
        assert cached.wcet_1ghz_seconds == computed.wcet_1ghz_seconds
        assert cached.deadline_tight == computed.deadline_tight
        assert cached.deadline_loose == computed.deadline_loose

    def test_no_cache_env_bypasses_disk(self, cache_env, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        common.setup("cnt", "tiny")
        assert list(cache_env.glob("*.json")) == []

    def test_corrupt_cache_recomputes(self, cache_env):
        computed = common.setup("cnt", "tiny")
        (file,) = cache_env.glob("setup-cnt-tiny-*.json")
        file.write_text("{not json")
        common.setup.cache_clear()
        again = common.setup("cnt", "tiny")
        assert again.deadline_tight == computed.deadline_tight
        # The recompute also repairs the cache file.
        assert json.loads(file.read_text())["dcache_bounds"] == \
            computed.dcache_bounds

    def test_digest_tracks_program(self):
        from repro.workloads import get_workload

        d1 = common._program_digest(get_workload("cnt", "tiny"))
        d2 = common._program_digest(get_workload("lms", "tiny"))
        assert d1 != d2
        assert d1 == common._program_digest(get_workload("cnt", "tiny"))
