"""Process plumbing shared by the workloads: environments, children, RSS.

Every child runs from the repository root with ``PYTHONPATH=src`` and
with every ``REPRO_*`` variable removed, except the cache directory the
workload hands it, so a stray setting in the caller's environment cannot
change what is measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

from spans import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: Longest any one child may run before it is killed and counted failed.
CHILD_TIMEOUT_S = 170.0


def child_env(cache_dir: Path | None = None) -> dict[str, str]:
    """The caller's environment minus ``REPRO_*``, plus ``PYTHONPATH=src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_child(
    argv: list[str], env: dict[str, str], timeout: float = CHILD_TIMEOUT_S
) -> tuple[int, str, str, float, float]:
    """Run one child to completion: ``(code, stdout, stderr, start, wall)``.

    A child that outlives ``timeout`` is killed and reported with code -9.
    """
    start = clock()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return -9, out, err + "\n(killed: timeout)", start, clock() - start
    except BaseException:  # e.g. SIGTERM to the benchmark: leave no child
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out, err, start, clock() - start


def children_peak_rss_mb() -> float:
    """Largest resident set of any child (and reaped grandchild) so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``), 0 if unreadable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def source_digest() -> str:
    """sha256 over ``src/``'s Python files: the measured code's identity,
    available even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else "none"."""
    if not (ROOT / ".git").exists():
        return "none"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() or "none"


_EFFECTIVE = r"""
import json
out = {}
def probe(key, fn):
    try:
        out[key] = fn()
    except Exception as exc:  # a renamed knob must not stop the benchmark
        out[key] = f"unknown ({type(exc).__name__})"
from repro.isa import blockjit
from repro.pipelines.ooo import sched
from repro.wcet import mc
from repro.experiments import common, parallel
probe("jit_tier", blockjit.jit_tier)
probe("ooo_sched", sched.ooo_sched)
probe("wcet_engine", mc.default_engine)
probe("scale", common.default_scale)
probe("instances", common.default_instances)
probe("cell_jobs", parallel.default_jobs)
print(json.dumps(out))
"""


def effective_settings() -> dict[str, Any]:
    """The settings a child with :func:`child_env` actually resolves."""
    code, out, err, _, _ = run_child(
        [sys.executable, "-c", _EFFECTIVE], child_env(), timeout=60
    )
    if code != 0:
        return {"error": err.strip().splitlines()[-1:] or ["probe failed"]}
    return json.loads(out)


def host_facts() -> dict[str, Any]:
    import multiprocessing

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mp_start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def config_record(workload: str, seed: int, seconds: int,
                  cache_state: str, scrubbed: list[str]) -> dict[str, Any]:
    """Everything needed to tell whether two results are comparable."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "host": host_facts(),
        "git_commit": git_commit(),
        "src_digest": source_digest(),
        "effective": effective_settings(),
        "scrubbed_env": scrubbed,
        "cache_state": cache_state,
    }
