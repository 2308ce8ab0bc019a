"""The service workload: one ``repro serve --jobs 2`` daemon, closed loop.

A single client on one connection submits a seeded stream of jobs and
waits for each result before sending the next, as one interactive user
of the daemon does.  A job's latency runs from the moment it is sent to
the moment its result arrives, so it is the daemon's whole answer time:
protocol, scheduling, the worker's execution and the result's way back.

The job stream comes in blocks of twenty with a fixed composition and
order of kinds (10 run, 4 wcet, 3 admit, 2 lint, 1 noop); ``--seed``
draws the payloads.  A fifth of the run jobs repeat a recent payload,
which exercises the result store.
"""

from __future__ import annotations

import itertools
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import spans as spanlib
from repro.service.top import (
    histogram_deltas,
    parse_exposition,
    quantile_from_buckets,
)

from harness import (
    CHILD_TIMEOUT_S,
    ROOT,
    child_env,
    children_peak_rss_mb,
    fresh_dir,
    proc_peak_rss_mb,
)
from hostspeed import HostSpeed
from spans import clock
from stats import median, p_or_tail, percentile

#: Jobs a run sends per second of ``--seconds``, in whole blocks (two
#: blocks, 40 jobs, at 40 s).  A count, not as many jobs as the time
#: allows, so every run offers the same mix however fast the host is.
JOBS_PER_SECOND = 1.0

#: Kinds of one block of twenty jobs, in order: 10 run, 3 wcet, 3 admit,
#: 3 lint, 1 noop, the run jobs alternating with quick ones.
BLOCK = (
    "run", "wcet", "run", "admit", "run", "lint", "run", "wcet", "run", "admit",
    "run", "lint", "run", "wcet", "run", "admit", "run", "noop", "run", "lint",
)

#: Run jobs of a block (by their index among the block's run jobs) that
#: repeat one of the last ``RECENT`` run payloads: a tenth of them, so
#: two blocks hold 18 fresh run jobs, one per (workload, instances) pair.
REPEAT_SLOTS = (6,)
RECENT = 5

#: A host reference run (``hostspeed.py``) before the first job and after
#: every ``PROBE_EVERY`` jobs; each job is normalised by the
#: ``PROBE_SIDE`` nearest on either side.  The client is idle meanwhile,
#: so the probes compete with no job.
PROBE_EVERY = 5
PROBE_SIDE = 2

WORKLOADS = ("adpcm", "cnt", "fft", "lms", "mm", "srt")
RUN_INSTANCES = (4, 8, 12)
MODES = tuple((d, f) for d in ("tight", "loose") for f in (0.0, 0.2))
FREQS_MHZ = tuple(100.0 + 25 * i for i in range(37))

#: Latency limit (normalised seconds) for ``slo_met_frac``: about one
#: and a half times the slowest job measured on the commit that defined
#: this benchmark.
SLO_LIMIT_S = 4.0

#: Daemon boots timed for the boot part of ``setup_s``.
BOOTS = 3

#: Sampled jobs per kind checked against the library in-process.
VERIFY_SAMPLE = 4

# -- the job stream -----------------------------------------------------------------


class Deck:
    """Draws items in seeded shuffled passes over the whole set, so every
    seed draws each item about equally often."""

    def __init__(self, rng: random.Random, items: tuple[Any, ...]) -> None:
        self.rng, self.items, self.stack = rng, items, []

    def draw(self) -> Any:
        if not self.stack:
            self.stack = list(self.items)
            self.rng.shuffle(self.stack)
        return self.stack.pop()


def make_jobs(seed: int, count: int) -> list[tuple[str, dict[str, Any]]]:
    """The seeded job stream: ``count`` ``(kind, payload)`` pairs."""
    rng = random.Random(seed)
    # One deck per kind keeps each kind's own workload mix balanced.
    workloads = {kind: Deck(rng, WORKLOADS) for kind in ("wcet", "admit", "lint")}
    # Workload, instance count and mode set a run job's cost.  Every 18
    # fresh run jobs draw each (workload, instances) pair once, in seeded
    # order; a pair's k-th draw takes the k-th of the four deadline/flush
    # modes after its own fixed starting one, so every seed offers the
    # same simulations and fresh payloads never repeat by accident (only
    # the deliberate repeats do).
    sizes = Deck(rng, tuple((w, n) for w in WORKLOADS for n in RUN_INSTANCES))
    modes = {
        size: itertools.cycle(MODES[i % len(MODES):] + MODES[:i % len(MODES)])
        for i, size in enumerate(sizes.items)
    }
    freqs = Deck(rng, FREQS_MHZ)
    policies = Deck(rng, ("rm", "edf"))
    jobs: list[tuple[str, dict[str, Any]]] = []
    recent: list[dict[str, Any]] = []
    while len(jobs) < count:
        run_slot = 0
        for kind in BLOCK:
            payload: dict[str, Any]
            if kind == "run":
                if run_slot in REPEAT_SLOTS and recent:
                    payload = dict(rng.choice(recent[-RECENT:]))
                else:
                    workload, instances = size = sizes.draw()
                    deadline, flush_rate = next(modes[size])
                    payload = {"workload": workload, "instances": instances,
                               "deadline": deadline, "flush_rate": flush_rate}
                recent.append(payload)
                run_slot += 1
            elif kind == "wcet":
                payload = {"workload": workloads["wcet"].draw(),
                           "freq_mhz": freqs.draw()}
            elif kind == "admit":
                tasks: list[dict[str, Any]] = []
                n_tasks = rng.randint(2, 3)
                while len(tasks) < n_tasks:
                    workload = workloads["admit"].draw()
                    if workload not in [t["workload"] for t in tasks]:
                        # Multiples of 100 us keep the hyperperiod small
                        # enough for the library's simulation cross-check.
                        tasks.append({"workload": workload,
                                      "period": round(rng.randint(2, 20) * 1e-4, 6)})
                payload = {"tasks": tasks, "policy": policies.draw()}
            elif kind == "lint":
                payload = {"workload": workloads["lint"].draw()}
            else:
                payload = {"tag": f"n{len(jobs)}-{seed}"}
            jobs.append((kind, payload))
    return jobs[:count]


def warmup_jobs() -> list[tuple[str, dict[str, Any]]]:
    """One run and one wcet per workload, outside the measured mix's
    parameter space (3 instances; the mix uses 4-12)."""
    jobs: list[tuple[str, dict[str, Any]]] = []
    for workload in WORKLOADS:
        jobs.append(("run", {"workload": workload, "instances": 3}))
        jobs.append(("wcet", {"workload": workload, "freq_mhz": 1000.0}))
    return jobs


# -- the daemon ---------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process; its output goes to a log file."""

    def __init__(self, cache_dir: Path, log: Path) -> None:
        self.log_path = log
        self._log = log.open("w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--jobs", "2", "--cache-dir", str(cache_dir),
                "--store-dir", str(cache_dir / "store"),
            ],
            cwd=ROOT, env=child_env(cache_dir), stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.port = 0

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = clock() + timeout
        while clock() < deadline:
            for line in self.log_path.read_text().splitlines():
                if "listening on" in line:
                    self.port = int(line.split(":")[-1].split()[0])
                    return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(f"daemon did not start: {self.log_path.read_text()}")

    def stop(self) -> int:
        """SIGTERM, wait for the drain; kill if it overstays."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._log.close()
        return code


def boot(cache_dir: Path, log: Path) -> tuple[Daemon, float]:
    """Start a daemon; seconds from spawn to its first ``pong``."""
    from repro.service.client import ServiceClient

    start = clock()
    daemon = Daemon(cache_dir, log)
    try:
        daemon.wait_listening()
        with ServiceClient("127.0.0.1", daemon.port, timeout=30) as client:
            while not client.ping():
                if clock() - start > 60:
                    raise RuntimeError("daemon never answered ping")
                time.sleep(0.005)
    except BaseException:
        daemon.stop()
        raise
    return daemon, clock() - start


# -- the closed loop ---------------------------------------------------------------


class Job:
    __slots__ = ("index", "kind", "payload", "sent", "done", "ok", "value",
                 "error", "coalesced")

    def __init__(self, index: int, kind: str, payload: dict[str, Any]) -> None:
        self.index, self.kind, self.payload = index, kind, payload
        self.sent: float | None = None
        self.done: float | None = None
        self.ok = False
        self.value: Any = None
        self.error: str | None = None
        self.coalesced = False

    @property
    def latency(self) -> float:
        assert self.sent is not None and self.done is not None
        return self.done - self.sent


def closed_loop(port: int, jobs: list[tuple[str, dict[str, Any]]],
                host: HostSpeed | None = None) -> list[Job]:
    """Send ``jobs`` one at a time on one connection, each after the
    previous one's result arrived; with ``host``, probe the host's speed
    before the first job and after every :data:`PROBE_EVERY` jobs."""
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    schedule = [Job(i, kind, payload) for i, (kind, payload) in enumerate(jobs)]
    with ServiceClient("127.0.0.1", port, timeout=CHILD_TIMEOUT_S) as client:
        for job in schedule:
            if host is not None and job.index % PROBE_EVERY == 0:
                host.probe()
            job.sent = clock()
            try:
                response = client.submit(job.kind, job.payload)
            except ServiceError as exc:  # refused or failed
                job.done, job.error = clock(), f"{exc.code}: {exc}"
                continue
            job.done = clock()
            job.ok, job.value = True, response.value
            job.coalesced = bool(response.coalesced)
    if host is not None:
        host.probe()
    return schedule


# -- verification -------------------------------------------------------------------


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def library_wcet(payload: dict[str, Any]) -> dict[str, Any]:
    """The static analyzer's answer for a ``wcet`` payload, in-process."""
    from repro.wcet.analyzer import WCETAnalyzer
    from repro.wcet.dcache_pad import measure_dcache_misses
    from repro.workloads import get_workload

    program = get_workload(payload["workload"], "tiny").program
    analyzer = WCETAnalyzer(program)
    analyzer.dcache_bounds = measure_dcache_misses(program)
    task = analyzer.analyze(payload["freq_mhz"] * 1e6)
    return {
        "stall_cycles": task.stall,
        "subtasks": [[s.index, s.cycles, s.dmiss_bound, s.total_cycles]
                     for s in task.subtasks],
        "total_cycles": task.total_cycles,
    }


def _served_wcet(value: dict[str, Any]) -> dict[str, Any]:
    return {
        "stall_cycles": value["stall_cycles"],
        "subtasks": [[s["index"], s["cycles"], s["dmiss_bound"], s["total_cycles"]]
                     for s in value["subtasks"]],
        "total_cycles": value["total_cycles"],
    }


def verify(schedule: list[Job], seed: int) -> list[str]:
    """The correctness gate: marks every job that fails a check not ok,
    and returns one error per job that is not ok (empty: all passed)."""
    from repro.rt import admission

    served = [j for j in schedule if j.ok]
    bad: dict[Job, str] = {}
    by_payload: dict[str, str] = {}
    for job in served:
        key = _canonical([job.kind, job.payload])
        result = _canonical(job.value)
        if by_payload.setdefault(key, result) != result:
            bad[job] = "repeated payload returned a different result"
    rng = random.Random(seed ^ 0x5EED)
    for kind in ("admit", "wcet"):
        done = [j for j in served if j.kind == kind]
        for job in rng.sample(done, min(VERIFY_SAMPLE, len(done))):
            if kind == "admit":
                want = admission.decide(
                    admission.normalize_payload(job.payload))["digest"]
                got = job.value.get("digest")
            else:
                want = library_wcet(job.payload)
                got = _served_wcet(job.value)
            if want != got:
                bad[job] = "result differs from the library computed in-process"
    for job, reason in bad.items():
        job.ok, job.error = False, reason
    return [
        f"job {j.index} ({j.kind}): {j.error or 'not ok'}"
        for j in schedule if not j.ok
    ]


def gate(jobs: list[Job], seed: int, daemon_code: int) -> tuple[list[str], int]:
    """``(errors, failed)`` for a run: every job not ok after
    :func:`verify` fails, and so does a daemon that did not drain cleanly."""
    errors = verify(jobs, seed)
    if daemon_code != 0:
        errors.append(f"daemon exited with code {daemon_code} after SIGTERM")
    failed = sum(1 for j in jobs if not j.ok) + (daemon_code != 0)
    return errors, failed


# -- metrics ------------------------------------------------------------------------


def _sum(samples: dict, name: str, **match: str) -> float:
    return sum(
        value for (n, labels), value in samples.items()
        if n == name and all(dict(labels).get(k) == v for k, v in match.items())
    )


def _phase_buckets(before: dict, after: dict, phase: str,
                   kind: str | None = None) -> list[tuple[float, float]]:
    """Cumulative bucket deltas of ``repro_job_phase_seconds``, summed
    over the per-kind series when ``kind`` is None."""
    fixed = {"phase": phase} if kind is None else {"phase": phase, "kind": kind}
    series, _ = histogram_deltas(before, after, "repro_job_phase_seconds", **fixed)
    bounds: dict[float, float] = {}
    for bound, delta in series:
        bounds[bound] = bounds.get(bound, 0.0) + delta
    return sorted(bounds.items())


def _quantile(buckets: list[tuple[float, float]], q: float) -> float:
    return quantile_from_buckets(buckets, q) or 0.0


def _ratio(before: dict, after: dict, name: str) -> float:
    hits = _sum(after, name, op="hits") - _sum(before, name, op="hits")
    misses = _sum(after, name, op="misses") - _sum(before, name, op="misses")
    return hits / (hits + misses) if hits + misses > 0 else 0.0


def service_layers(before: dict, after: dict, schedule: list[Job],
                   noop_rtts: list[float]) -> dict[str, float]:
    def delta(name: str) -> float:
        return _sum(after, name) - _sum(before, name)

    queue = _phase_buckets(before, after, "queue")
    out = {
        "service.queue_wait_p50_s": _quantile(queue, 0.5),
        "service.queue_wait_p90_s": _quantile(queue, 0.9),
        "service.noop_rtt_p50_s": median(noop_rtts) if noop_rtts else 0.0,
        "service.coalesced_frac": delta("repro_jobs_coalesced_total") / len(schedule),
        "service.store_hit_frac": _ratio(before, after, "repro_store_ops_total"),
        "service.run_cache_hit_frac": _ratio(before, after, "repro_run_cache_ops_total"),
        "service.codegen_cache_hit_frac": _ratio(
            before, after, "repro_blockjit_cache_ops_total"),
        "service.rejected": delta("repro_jobs_rejected_total"),
        "service.worker_restarts": delta("repro_worker_restarts_total"),
        "service.jobs": float(len(schedule)),
    }
    for kind in ("run", "wcet", "admit", "lint"):
        out[f"service.{kind}_execute_p50_s"] = _quantile(
            _phase_buckets(before, after, "execute", kind), 0.5)
    return out


# -- the run ------------------------------------------------------------------------


def first_of_each_size(schedule: list[Job]) -> list[Job]:
    """The first ``run`` job of each (workload, instances) pair: every
    run draws all 18 pairs within its first 18 fresh run jobs, so these
    are the same work whatever the seed."""
    seen: set[tuple[str, int]] = set()
    firsts = []
    for job in schedule:
        size = (job.payload.get("workload"), job.payload.get("instances"))
        if job.kind == "run" and size not in seen:
            seen.add(size)
            firsts.append(job)
    return firsts


def run(seed: int, seconds: int, trace: bool, work: Path,
        out_dir: Path) -> dict[str, Any]:
    """One run of the workload; returns metrics, counts and notes.

    ``seconds`` sets the number of jobs, :data:`JOBS_PER_SECOND` per
    second in whole blocks of twenty; a run ends when the last one is
    answered."""
    from repro.service.client import ServiceClient

    cache_dir = fresh_dir(work / "cache")
    host = HostSpeed()
    host.probe(PROBE_SIDE)
    boot_start = clock()
    boots = []
    for i in range(BOOTS - 1):
        daemon, seconds_to_pong = boot(cache_dir, work / f"boot{i}.log")
        try:
            boots.append(seconds_to_pong)
        finally:
            daemon.stop()
    daemon, seconds_to_pong = boot(cache_dir, work / "daemon.log")
    boots.append(seconds_to_pong)
    try:
        warm_start = clock()
        warm = closed_loop(daemon.port, warmup_jobs())
        warmup_s = clock() - warm_start
        with ServiceClient("127.0.0.1", daemon.port, timeout=60) as client:
            before = parse_exposition(client.metrics_text())
        blocks = max(1, round(JOBS_PER_SECOND * seconds / len(BLOCK)))
        window_start = clock()
        schedule = closed_loop(daemon.port, make_jobs(seed, blocks * len(BLOCK)),
                               host)
        window_end = clock()
        with ServiceClient("127.0.0.1", daemon.port, timeout=60) as client:
            after = parse_exposition(client.metrics_text())
            noop_rtts = []
            for i in range(20):
                t0 = clock()
                client.submit("noop", {"tag": f"rtt{i}-{seed}"})
                noop_rtts.append(clock() - t0)
            workers = client.status().value["workers"]
        rss = max([proc_peak_rss_mb(daemon.proc.pid)]
                  + [proc_peak_rss_mb(w["pid"]) for w in workers])
    finally:
        code = daemon.stop()
    errors, failed = gate(warm + schedule, seed, code)

    ok = [j for j in schedule if j.ok]
    lat = {j.index: host.normalise(j.latency, j.sent, j.done, PROBE_SIDE)
           for j in ok}

    def lats(jobs: list[Job]) -> list[float]:
        return [lat[j.index] for j in jobs if j.ok]

    def kind_lat(kind: str) -> list[float]:
        return lats([j for j in ok if j.kind == kind])

    def pct(values: list[float], q: int) -> float:
        return percentile(values, q) if values else float("nan")

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else float("nan")

    sizes = first_of_each_size(schedule)
    all_lat = list(lat.values())
    p90, p90_rank = p_or_tail(all_lat, 90) if all_lat else (float("nan"), 90)
    attempted = len(warm) + len(schedule)
    metrics = {
        "setup_s": (host.normalise(median(boots) + warmup_s, boot_start,
                                   window_start, PROBE_SIDE), "s"),
        "table3_warm-or-run_job_norm_s": (mean(lats(sizes)), "s"),
        "cli_import-or-all_jobs_norm_s": (mean(all_lat), "s"),
        "peak_rss_mb": (max(rss, children_peak_rss_mb()), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "slo_met_frac": (
            sum(1 for v in all_lat if v <= SLO_LIMIT_S) / len(schedule),
            "fraction"),
    }
    result: dict[str, Any] = {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "also": {
            "job_p50_norm_s": (pct(all_lat, 50), "s"),
            f"job_p{p90_rank}_norm_s": (p90, "s"),
            "quick_job_mean_norm_s": (
                mean([lat[j.index] for j in ok if j.kind != "run"]), "s"),
            **{f"{kind}_job_p50_norm_s": (pct(kind_lat(kind), 50), "s")
               for kind in ("run", "admit", "wcet", "lint", "noop")},
            "job_mean_wall_s": (mean([j.latency for j in ok]), "s"),
            "host_reference_wall_s": (host.median_reference(), "s"),
        },
        "summary": {
            "host_reference": host.samples,
            "boot_s": boots,
            "warmup_s": warmup_s,
            "jobs": len(schedule),
            "window_s": window_end - window_start,
            "tail_percentile": p90_rank,
            "kind_counts": {k: sum(1 for j in schedule if j.kind == k)
                            for k in sorted(set(BLOCK))},
            "jobs_detail": [
                (j.kind, lat.get(j.index, -1.0), j.coalesced,
                 j.payload.get("workload"), j.payload.get("instances"),
                 j.sent, j.done)
                for j in schedule
            ],
        },
        "notes": [],
    }
    if p90_rank != 90:
        result["notes"].append(
            f"only {len(all_lat)} jobs: reporting p{p90_rank}, not p90")
    if len(sizes) != len(WORKLOADS) * len(RUN_INSTANCES):
        result["notes"].append(f"only {len(sizes)} run sizes drawn")
    if trace:
        result["per_layer"] = service_layers(before, after, schedule, noop_rtts)
        _write_trace(schedule, out_dir)
    return result


def _write_trace(schedule: list[Job], out_dir: Path) -> None:
    """Client-side spans, one per job (sent -> result)."""
    spans = [
        {"id": f"job{job.index}", "parent": None, "name": f"job.{job.kind}",
         "start": job.sent, "end": job.done, "pid": 0,
         "args": {"ok": job.ok, "coalesced": job.coalesced}}
        for job in schedule if job.done is not None and job.sent is not None
    ]
    (out_dir / "trace.json").write_text(json.dumps(spanlib.chrome_trace(spans)))
