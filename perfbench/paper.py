"""The paper-artifact workload: Table 3 and Figure 2, cold then warm.

Each artifact runs as ``python -m repro experiment NAME`` in a fresh
process, exactly as a user regenerates it.  The cold round starts from
an empty cache directory; the warm rounds reuse the directory the cold
round filled, so they pay only interpreter start, import, cache I/O and
warm simulation.  Every rendered table must match the golden copy kept
beside this file byte for byte, and the paper's qualitative shapes must
hold; a mismatch counts the process as failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

import spans as spanlib
from harness import (
    GOLDEN_DIR,
    child_env,
    children_peak_rss_mb,
    fresh_dir,
    run_child,
)
from hostspeed import HostSpeed
from spans import clock

ARTIFACTS = ("table3", "figure2")

#: The artifact every run measures, cold and warm.  Figure 2 runs only in
#: the traced run: a cold Figure 2 alone takes 30-45 s on the host that
#: defined this benchmark, one sample that a run can neither repeat nor
#: fit beside the rest of a set of runs' time budget.  The cells Figure 2
#: repeats (``experiments.common.run_pair``) are what the ``service_mix``
#: ``run`` jobs execute.
MEASURED = "table3"

#: Cold rounds of a run, each from its own empty cache directory, with
#: its share of the warm rounds after it.
COLD_ROUNDS = 2

#: Fewest warm rounds after each cold round, whatever the time budget.
#: Each warm round starts with one timed import of ``repro.cli``, so the
#: import's samples are spread over the run.
MIN_WARM_ROUNDS = 3

#: Host reference runs before and after every cold artifact; it is
#: normalised by the median of those on both sides (``hostspeed.py``).
COLD_PROBES = 3

#: Warm rounds (Table 3 and Figure 2) of a traced run.
TRACED_WARM_ROUNDS = 2

#: Limits (normalised seconds) for ``slo_met_frac``: about twice the
#: median measured on the commit that defined this benchmark, so host
#: noise alone does not trip them.
SLO_LIMIT_S = {"cold": 16.0, "warm": 2.0}

#: The paper's tight-deadline savings band (Figure 2, §6.2), in percent.
TIGHT_BAND = (43.0, 61.0)


# -- correctness -------------------------------------------------------------------


def _rows(text: str, first_header: str) -> list[list[str]]:
    """Whitespace-split data rows of the table whose header starts with
    ``first_header`` (the rows between the dashed rule and a blank line)."""
    lines = text.splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if line.split()[:1] == [first_header]
    )
    rows = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def table3_shape_errors(text: str) -> list[str]:
    """Table 3 checks: WCET is safe, the complex core is >1.7x faster,
    and srt is the WCET outlier.

    "Outlier" is judged by the bound's absolute excess over the simple
    core (WCET - simple, in us): at the tiny scale, cold-miss charges
    inflate the *ratio* of the smallest tasks (EXPERIMENTS.md, Table 3
    notes), while srt's pessimistic loop bound shows as the largest
    excess at every scale.
    """
    errors = []
    excess = {}
    for row in _rows(text, "bench"):
        name = row[0]
        wcet, simple, complex_ = float(row[5]), float(row[6]), float(row[7])
        if wcet < simple:
            errors.append(f"table3 {name}: WCET {wcet} < simple {simple}")
        if simple / complex_ <= 1.7:
            errors.append(f"table3 {name}: simple/complex <= 1.7")
        excess[name] = wcet - simple
    if not excess:
        return ["table3: no rows"]
    if max(excess, key=excess.get) != "srt":
        errors.append(f"table3: srt is not the WCET outlier ({excess})")
    return errors


def figure2_shape_errors(text: str) -> list[str]:
    """Figure 2 checks: every tight-deadline saving is positive, their
    mean falls in the paper's 43-61 % band, and no checkpoint is missed."""
    errors = []
    tight = []
    for row in _rows(text, "bench"):
        name, kind, savings, missed = row[0], row[1], float(row[2]), int(row[6])
        if missed:
            errors.append(f"figure2 {name} {kind}: {missed} missed checkpoints")
        if kind == "T":
            tight.append(savings)
            if savings <= 0:
                errors.append(f"figure2 {name}: tight savings {savings} <= 0")
    if not tight:
        return ["figure2: no tight rows"]
    mean = statistics.fmean(tight)
    if not TIGHT_BAND[0] <= mean <= TIGHT_BAND[1]:
        errors.append(f"figure2: mean tight savings {mean:.1f} outside {TIGHT_BAND}")
    return errors


SHAPE_CHECKS = {"table3": table3_shape_errors, "figure2": figure2_shape_errors}


def artifact_errors(name: str, code: int, stdout: str, stderr: str,
                    cold_stdout: str | None) -> list[str]:
    """Why one artifact process counts as failed (empty: it passed)."""
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"{name}: exit code {code}: {tail[0]}"]
    errors = []
    golden = (GOLDEN_DIR / f"{name}.txt").read_text()
    if stdout != golden:
        errors.append(f"{name}: output differs from golden/{name}.txt")
    if cold_stdout is not None and stdout != cold_stdout:
        errors.append(f"{name}: warm output differs from cold output")
    try:
        errors += SHAPE_CHECKS[name](stdout)
    except (StopIteration, ValueError, IndexError) as exc:
        errors.append(f"{name}: unparseable table ({exc!r})")
    return errors


# -- running -----------------------------------------------------------------------


def _import_probe() -> tuple[float, float]:
    """``(start, wall)`` of a fresh interpreter importing ``repro.cli``."""
    code, _, err, start, wall = run_child(
        [sys.executable, "-c", "import repro.cli"], child_env()
    )
    if code != 0:
        raise RuntimeError(f"import repro.cli failed: {err.strip()}")
    return start, wall


class ArtifactRunner:
    """Runs artifact processes against one cache directory."""

    def __init__(self, cache_dir: Path, trace_dir: Path | None) -> None:
        self.env = child_env(cache_dir)
        self.trace_dir = trace_dir
        self.records: list[dict[str, Any]] = []
        self.cold_stdout: dict[str, str] = {}

    def run(self, name: str, phase: str, traced: bool = False) -> dict[str, Any]:
        argv = [sys.executable, "-m", "repro", "experiment", name]
        spans_path = None
        if traced:
            assert self.trace_dir is not None
            spans_path = self.trace_dir / f"{phase}-{name}-{len(self.records)}.json"
            argv = [
                sys.executable, str(Path(__file__).with_name("traced_child.py")),
                str(spans_path), repr(clock()), "experiment", name,
            ]
        code, out, err, start, wall = run_child(argv, self.env)
        errors = artifact_errors(
            name, code, out, err,
            self.cold_stdout.get(name) if phase == "warm" else None,
        )
        if phase == "cold" and code == 0:
            self.cold_stdout[name] = out
        record = {
            "artifact": name, "phase": phase, "traced": traced,
            "start": start, "end": start + wall, "wall_s": wall,
            "errors": errors,
        }
        if spans_path is not None and spans_path.exists():
            record["child"] = _with_process_spans(
                json.loads(spans_path.read_text()), err, record["end"])
        self.records.append(record)
        return record

    def round(self, phase: str, traced: bool = False) -> list[dict[str, Any]]:
        return [self.run(name, phase, traced) for name in ARTIFACTS]


def _with_process_spans(child: dict[str, Any], stderr: str,
                        reaped: float) -> dict[str, Any]:
    """Add the spans only the parent can see: writing the spans out
    (tracing overhead) and interpreter teardown until the process was
    reaped."""
    from traced_child import DUMPED

    ends = [float(line.split()[1]) for line in stderr.splitlines()
            if line.startswith(DUMPED)]
    if ends:
        pid = child["spans"][0]["pid"] if child["spans"] else 0
        for name, start, end in (("trace.dump", child["dump_start"], ends[-1]),
                                 ("python.exit", ends[-1], reaped)):
            child["spans"].append({
                "id": f"{pid}-{name}", "parent": None, "name": name,
                "start": start, "end": end, "pid": pid, "args": {},
            })
    return child


def _walls(records: list[dict[str, Any]], phase: str,
           key: str = "norm_s") -> list[float]:
    """Untraced Table 3 times of one phase."""
    return [
        r[key] for r in records
        if r["artifact"] == MEASURED and r["phase"] == phase and not r["traced"]
    ]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def run(seed: int, seconds: int, trace: bool, work: Path,
        out_dir: Path) -> dict[str, Any]:
    """One run of the workload; returns metrics, counts and notes.

    ``seed`` is accepted for the common interface and ignored: the
    paper fixes these inputs.  ``seconds`` bounds the measured phase:
    :data:`COLD_ROUNDS` cold Table 3 processes, each followed by warm
    rounds on its cache until its share of the budget is spent (at least
    :data:`MIN_WARM_ROUNDS`).  Runs of the host reference task bracket
    every measured process (see ``hostspeed.py``).  A traced run keeps
    the untraced part to one cold round and the fewest warm rounds, and
    then traces both artifacts cold and warm.
    """
    del seed
    # Bytecode is cached by one untimed import first, as it is for any
    # installed user.
    _import_probe()
    host = HostSpeed()
    imports: list[tuple[float, float]] = []
    records: list[dict[str, Any]] = []
    cold_rounds = 1 if trace else COLD_ROUNDS

    measure_start = clock()
    host.probe(COLD_PROBES)
    warm_rounds = 0
    for i in range(cold_rounds):
        runner = ArtifactRunner(fresh_dir(work / f"cache{i}"), None)
        runner.run(MEASURED, "cold")
        host.probe(COLD_PROBES)
        share_end = measure_start + seconds * (i + 1) / cold_rounds
        rounds = 0
        while rounds < MIN_WARM_ROUNDS or (not trace and clock() < share_end):
            imports.append(_import_probe())
            runner.run(MEASURED, "warm")
            host.probe()
            rounds += 1
        warm_rounds += rounds
        records += runner.records
    for record in records:
        per_side = COLD_PROBES if record["phase"] == "cold" else 1
        record["norm_s"] = host.normalise(
            record["wall_s"], record["start"], record["end"], per_side)
    import_samples = [host.normalise(wall, start, start + wall)
                      for start, wall in imports]
    result: dict[str, Any] = {"notes": []}
    if trace:
        # Traced twins of both phases, on another empty cache directory
        # so the traced cold round is as cold as the untraced one.
        traced = ArtifactRunner(fresh_dir(work / "cache-traced"), out_dir)
        traced.round("cold", traced=True)
        for _ in range(TRACED_WARM_ROUNDS):
            traced.round("warm", traced=True)
        records += traced.records
        result["per_layer"] = per_layer(records, out_dir)

    errors = [e for r in records for e in r["errors"]]
    failed = sum(1 for r in records if r["errors"])
    untraced = [r for r in records if not r["traced"]]
    within = sum(1 for r in untraced
                 if not r["errors"] and r["norm_s"] <= SLO_LIMIT_S[r["phase"]])
    metrics = {
        # The cold runs fill the cache the warm runs start from: this
        # workload's set-up, timed several times per run.
        "setup_s": (_median(_walls(records, "cold")), "s"),
        "table3_warm-or-run_job_norm_s": (_median(_walls(records, "warm")), "s"),
        "cli_import-or-all_jobs_norm_s": (_median(import_samples), "s"),
        "peak_rss_mb": (children_peak_rss_mb(), "MB"),
        "ok_frac": ((len(records) - failed) / len(records), "fraction"),
        "slo_met_frac": (within / len(untraced), "fraction"),
    }
    also = {
        f"table3_{phase}_wall_s": (_median(_walls(records, phase, "wall_s")), "s")
        for phase in ("cold", "warm")
    }
    also["import_repro_cli_wall_s"] = (_median([w for _, w in imports]), "s")
    also["host_reference_wall_s"] = (host.median_reference(), "s")
    result.update(
        metrics=metrics,
        also=also,
        attempted=len(records),
        failed=failed,
        errors=errors,
        summary={
            "import_samples_norm_s": import_samples,
            "warm_rounds": warm_rounds,
            "host_reference": host.samples,
            "walls": [
                (r["artifact"], r["phase"], r["traced"], r["start"], r["end"],
                 r["wall_s"], r.get("norm_s", float("nan")))
                for r in records
            ],
            "imports": imports,
        },
    )
    return result


# -- per-layer metrics from the traced rounds -------------------------------------


#: Per-layer metric -> span name whose inclusive time it reports.
INCLUSIVE = {
    "cli.import_s": "cli.import",
    "minicc.compile_s": "minicc.compile",
    "isa.assemble_s": "isa.assemble",
    "isa.codegen_s": "isa.codegen",
    "wcet.analyze_s": "wcet.analyze",
    "wcet.calibrate_s": "wcet.calibrate",
    "experiments.prep_s": "experiments.setup",
    "experiments.run_pair_s": "experiments.run_pair",
    "snapshot.load_s": "snapshot.load_runs",
    "snapshot.store_s": "snapshot.store_runs",
    "snapshot.warmup_s": "snapshot.warm_runtime",
    "power.energy_s": "power.energy",
}

#: Per-layer metric -> span name whose self time it reports.
SELF = {
    "pipelines.inorder_s": "pipelines.inorder",
    "pipelines.ooo_s": "pipelines.ooo",
    "visa.runtime_self_s": "visa.runtime",
}


def _phase_layers(
    records: list[dict[str, Any]],
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metrics and the layer table over the traced artifact
    processes of one phase."""
    all_spans: list[dict[str, Any]] = []
    wall = covered = 0.0
    for record in records:
        child = record.get("child")
        if child is None:
            continue
        child_spans = child["spans"]
        all_spans += child_spans
        wall += record["wall_s"]
        covered += spanlib.covered(child_spans, record["start"], record["end"])
    table = spanlib.layer_table(all_spans)

    def row(name: str, field: str) -> float:
        return float(table.get(name, {}).get(field, 0.0))

    def args_sum(name: str, key: str, outer_only: bool = False) -> float:
        chosen = (
            spanlib.outermost(all_spans, name) if outer_only
            else [s for s in all_spans if s["name"] == name]
        )
        return float(sum(s["args"].get(key, 0) for s in chosen))

    out = {metric: row(name, "inclusive_s") for metric, name in INCLUSIVE.items()}
    out.update({metric: row(name, "self_s") for metric, name in SELF.items()})
    codegen = [s for s in all_spans if s["name"] == "isa.codegen"]
    built = [s for s in codegen if s["args"].get("built")]
    loads = [s for s in all_spans if s["name"] == "snapshot.load_runs"]
    out.update({
        "python.start_s": row("python.start", "inclusive_s"),
        "python.exit_s": row("python.exit", "inclusive_s"),
        "minicc.compiles": row("minicc.compile", "calls"),
        "isa.codegen_tables": float(len(built)),
        "isa.codegen_cache_hit_frac": (
            sum(1 for s in built if s["args"].get("disk_hit")) / len(built)
            if built else 0.0
        ),
        "wcet.analyze_calls": row("wcet.analyze", "calls"),
        "wcet.analyzers_built": row("wcet.analyzer", "calls"),
        "pipelines.inorder_inst": args_sum("pipelines.inorder", "inst"),
        "pipelines.ooo_inst": args_sum("pipelines.ooo", "inst"),
        "visa.task_instances": args_sum("visa.runtime", "instances", True),
        "snapshot.run_cache_hit_frac": (
            sum(1 for s in loads if s["args"].get("hit")) / len(loads)
            if loads else 0.0
        ),
        "wall_s": wall,
        "unaccounted_frac": (wall - covered) / wall if wall > 0 else 0.0,
    })
    for core in ("inorder", "ooo"):
        busy = row(f"pipelines.{core}", "inclusive_s") - _nested_codegen(
            all_spans, f"pipelines.{core}"
        )
        inst = out[f"pipelines.{core}_inst"]
        out[f"pipelines.{core}_inst_per_s"] = inst / busy if busy > 0 else 0.0
    return out, table


def _nested_codegen(all_spans: list[dict[str, Any]], name: str) -> float:
    """Codegen seconds spent inside the outermost ``name`` spans."""
    by_id = {s["id"]: s for s in all_spans}
    total = 0.0
    outer_ids = {s["id"] for s in spanlib.outermost(all_spans, name)}
    for span in all_spans:
        if span["name"] != "isa.codegen":
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["id"] not in outer_ids:
            parent = by_id.get(parent["parent"])
        if parent is not None:
            total += span["end"] - span["start"]
    return total


def per_layer(records: list[dict[str, Any]], out_dir: Path) -> dict[str, Any]:
    """Per-layer metrics, the self-time table and the Chrome trace."""
    result: dict[str, Any] = {}
    all_spans: list[dict[str, Any]] = []
    for phase in ("cold", "warm"):
        traced = [r for r in records if r["traced"] and r["phase"] == phase]
        untraced = [r for r in records if not r["traced"] and r["phase"] == phase]
        layers, table = _phase_layers(traced)
        rounds = max(1, len(traced) // len(ARTIFACTS))
        # Overhead per Table 3 process, the artifact both sides ran.
        plain_wall = _median([r["wall_s"] for r in untraced])
        traced_wall = _median([r["wall_s"] for r in traced
                               if r["artifact"] == MEASURED])
        layers["trace_overhead_s"] = traced_wall - plain_wall
        layers["trace_overhead_frac"] = (
            (traced_wall - plain_wall) / plain_wall if plain_wall > 0 else 0.0
        )
        for key, value in layers.items():
            result[f"{phase}.{key}"] = value
        print(f"# per-layer self time, {phase} (traced wall "
              f"{layers['wall_s']:.3f} s over {rounds} round(s); "
              f"unaccounted {100 * layers['unaccounted_frac']:.2f}%, "
              f"tracing overhead {layers['trace_overhead_s']:+.3f} s per Table 3)")
        print(spanlib.render_table(table, layers["wall_s"]))
        for record in traced:
            child = record.get("child") or {"spans": []}
            # The process itself, parent of its root layer spans.
            proc_id = f"proc-{phase}-{record['artifact']}-{record['start']}"
            all_spans.append({
                "id": proc_id, "parent": None,
                "name": f"process.{record['artifact']}.{phase}",
                "start": record["start"], "end": record["end"],
                "pid": 0, "args": {},
            })
            for span in child["spans"]:
                all_spans.append(
                    span if span["parent"] else {**span, "parent": proc_id}
                )
    (out_dir / "trace.json").write_text(json.dumps(spanlib.chrome_trace(all_spans)))
    return result
