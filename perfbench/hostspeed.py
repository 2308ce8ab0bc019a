"""Host-speed normalisation of wall times.

The benchmark's host is a shared virtual machine whose speed changes
under it: the same warm Table 3 takes 0.9 s for a minute and 1.5 s the
next, and an import or a pure-Python loop moves with it.  A wall time
alone therefore says as much about the minute it was taken in as about
the program.  So every measured operation is bracketed by runs of a
fixed reference task (``hostref.py``: interpreter start, imports,
generated code, an interpreter loop and serialisation, standard
library only), and each guarded time is reported as

    normalised = wall * REFERENCE_S / reference wall around it

that is, in seconds on a host where the reference task takes
``REFERENCE_S``.  The reference does not touch ``src/``, so a change to
the program moves the normalised time by the same factor as the wall
time; a change in the host's speed moves both the operation and the
reference and cancels.  Raw wall times are printed beside the
normalised ones.
"""

from __future__ import annotations

import statistics
import sys

from harness import BENCH_DIR, child_env, run_child

#: The reference task's median wall on the host that defined this
#: benchmark (2-CPU virtual machine, Python 3.11.7, in its faster phase).
#: Any constant would do; this one makes the normalised seconds read
#: close to wall seconds on that host.
REFERENCE_S = 0.27

#: What ``hostref.py`` prints; anything else means it did not run right.
CHECKSUM = "37558839122"


class HostSpeed:
    """Times the reference task and normalises wall times by it."""

    def __init__(self) -> None:
        #: ``(start, end, wall)`` of each probe, in seconds.
        self.samples: list[tuple[float, float, float]] = []

    def probe(self, times: int = 1) -> None:
        """Run the reference task ``times`` times in a row."""
        for _ in range(times):
            code, out, err, start, wall = run_child(
                [sys.executable, "-I", str(BENCH_DIR / "hostref.py")],
                child_env())
            if code != 0 or out.strip() != CHECKSUM:
                raise RuntimeError(
                    f"host reference task failed ({code}): {out.strip()} "
                    f"{err.strip()[-200:]}")
            self.samples.append((start, start + wall, wall))

    def reference_around(self, start: float, end: float, per_side: int = 1) -> float:
        """Median wall of the ``per_side`` probes nearest before ``start``
        and the ``per_side`` nearest after ``end``."""
        before = [s for s in self.samples if s[1] <= start][-per_side:]
        after = [s for s in self.samples if s[0] >= end][:per_side]
        walls = [s[2] for s in before + after]
        if not walls:
            raise RuntimeError("no host reference probe around the operation")
        return statistics.median(walls)

    def normalise(self, wall: float, start: float, end: float,
                  per_side: int = 1) -> float:
        return wall * REFERENCE_S / self.reference_around(start, end, per_side)

    def median_reference(self) -> float:
        return statistics.median(s[2] for s in self.samples)
