#!/usr/bin/env python3
"""Time-to-verdict benchmark for cylkit.

    python3 perfbench/run.py --workload games --seed 0 --seconds 40 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) as a closed loop
with one caller, in this process and thread: each job starts after the
previous verdict, and library defaults are used.  One pass runs every job
of the workload once; passes repeat while the next one would still end
within ``--seconds``, and at least one runs.  Every verdict is checked against its
known answer, and the work counts must repeat exactly from pass to pass.

With ``--trace 0`` the result line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics, from traced passes that
alternate with untraced ones, and the spans are written to
``.perfbench/spans-<workload>.jsonl``.  Every metric, both kinds, is
printed by name and unit above the last line, which is one JSON object.
The exit code is 0 when every verdict was right, 1 when one was not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "cylkit" / "__init__.py").exists():
    sys.exit(f"no cylkit source tree under {ROOT}; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from spans import Span, Tracer, write_spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Job, Outcome  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# charged from spans: the sum of span durations per metric
SPAN_METRICS = (
    "games.ca_solve_s",
    "games.ra_solve_s",
    "games.refusal_s",
    "terms.sweep_full_s",
    "terms.sweep_exit_s",
    "terms.eval_term_s",
    "bao.check_ca_frame_s",
    "bao.cyl_s",
    "constructions.build_s",
    "ra.check_ra_axioms_s",
    "neat.restriction_iso_s",
    "neat.ra_reduct_s",
    "hyper.enumerate_s",
    "hyper.is_hyperbasis_s",
)
# summed from the counts the jobs report
COUNT_METRICS = (
    "games.states_explored",
    "games.memo_hits",
    "games.openings",
    "games.refusals",
    "terms.assignments",
    "terms.eval_term_calls",
    "bao.frame_atoms",
    "bao.cyl_calls",
    "constructions.atoms_built",
)
PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "games.memo_hit_ratio": "ratio",
    "games.states_per_s": "1/s",
    "terms.assignments_per_s": "1/s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

SETUP_PROBES = 5
# a pass may run this much longer than the longest so far; passes that
# would not end by the deadline with this margin are not started
PASS_MARGIN = 1.25
SPANS_DIR = ROOT / ".perfbench"


@dataclass
class Pass:
    wall: float
    outcomes: list[Outcome | None]  # None: the job raised
    job_seconds: list[float]
    spans: list[Span]
    first_job_id: int


def run_pass(jobs: list[Job], tracer: Tracer) -> Pass:
    ctx: dict = {}
    outcomes: list[Outcome | None] = []
    job_seconds = []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            outcomes.append(tracer.job(job.run, tracer, ctx))
        except Exception:  # a failed job is reported, and the loop goes on
            traceback.print_exc()
            outcomes.append(None)
        job_seconds.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return Pass(wall, outcomes, job_seconds, tracer.spans, tracer.first_job_id)


def correct(job: Job, outcome: Outcome | None) -> bool:
    return outcome is not None and outcome.verdict in job.expected


def measure(jobs: list[Job], seconds: float, traced: bool) -> tuple[list[Pass], list[Pass]]:
    """Untraced passes, and traced passes alternating with them if asked."""
    plain: list[Pass] = []
    with_spans: list[Pass] = []
    deadline = time.perf_counter() + seconds
    longest = 0.0
    while True:
        enough = plain and (with_spans or not traced)
        if enough and time.perf_counter() + PASS_MARGIN * longest > deadline:
            break
        trace_this = traced and len(with_spans) < len(plain)
        done = plain + with_spans
        tracer = Tracer(trace_this, first_job_id=len(done) * len(jobs))
        p = run_pass(jobs, tracer)
        (with_spans if trace_this else plain).append(p)
        longest = max(longest, p.wall)
    return plain, with_spans


def pass_counts(jobs: list[Job], p: Pass) -> dict[str, int]:
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for job, outcome in zip(jobs, p.outcomes):
        if correct(job, outcome):
            for name, value in outcome.counts.items():
                counts[name] += value
    return counts


def layer_metrics(jobs: list[Job], p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass; jobs with a wrong verdict are
    left out, so they are never timed as a success."""
    counts = pass_counts(jobs, p)
    right = {p.first_job_id + k for k, (j, o) in enumerate(zip(jobs, p.outcomes)) if correct(j, o)}
    out: dict[str, float] = dict.fromkeys(SPAN_METRICS, 0.0)
    for s in p.spans:
        if s.metric is not None and s.job in right:
            out[s.metric] += s.seconds
    out.update(counts)
    states, hits = counts["games.states_explored"], counts["games.memo_hits"]
    solve_s = out["games.ca_solve_s"] + out["games.ra_solve_s"]
    sweep_s = out["terms.sweep_full_s"] + out["terms.sweep_exit_s"]
    out["games.memo_hit_ratio"] = hits / (hits + states) if hits + states else 0.0
    out["games.states_per_s"] = states / solve_s if solve_s else 0.0
    out["terms.assignments_per_s"] = counts["terms.assignments"] / sweep_s if sweep_s else 0.0
    out["trace.spans"] = len(p.spans)
    out["trace.wall_s"] = p.wall
    return out


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, from spawn to the first job.

    Both ends read CLOCK_MONOTONIC, which is shared by all processes.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout.split()[-1]) - start)
    return times


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cylkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def check_declared_metrics() -> None:
    """The metrics printed must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    declared = json.loads(path.read_text())
    for kind, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in declared[kind]}
        if theirs != ours:
            sys.exit(f"BENCHMARK.json {kind} metrics differ from the benchmark's: "
                     f"{sorted(set(theirs.items()) ^ set(ours.items()))}")


def print_metrics(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"# {title}")
    for name, unit in units.items():
        print(f"  {name:26s} {metrics[name]:>16.6f} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print the clock and exit")
    args = parser.parse_args(argv)

    jobs = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    check_declared_metrics()

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} "
          f"numpy={numpy.__version__} nproc={os.cpu_count()} "
          f"commit={git_commit()} source_sha256={source_digest()}")
    setups = setup_seconds(args.workload, args.seed)
    plain, traced = measure(jobs, args.seconds, bool(args.trace))
    passes = plain + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    for p in passes:
        for job, outcome in zip(jobs, p.outcomes):
            attempted += 1
            if not correct(job, outcome):
                failed += 1
                got = "an exception" if outcome is None else repr(outcome.verdict)
                print(f"WRONG job {job.name!r}: got {got}, expected one of {job.expected}")
    counts = [pass_counts(jobs, p) for p in passes]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print(f"WRONG work counts differ between passes: {counts}")

    print(f"# jobs of the first pass ({len(jobs)} jobs, {len(passes)} passes)")
    first = passes[0]
    for job, outcome, secs in zip(jobs, first.outcomes, first.job_seconds):
        verdict = "exception" if outcome is None else outcome.verdict
        job_counts = "" if outcome is None else json.dumps(outcome.counts)
        mark = "ok   " if correct(job, outcome) else "WRONG"
        print(f"  {mark} {secs:9.3f} s  {job.name}: {verdict} {job_counts}  [known: {job.source}]")
    print(f"  work counts per pass: {json.dumps({k: v for k, v in counts[0].items() if v})}")
    print(f"  failed_share = {failed}/{attempted} = {failed / attempted:.4f} (jobs without "
          "a correct verdict / jobs attempted)")

    walls = [p.wall for p in plain]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"  untraced pass walls (s): {', '.join(f'{w:.4f}' for w in walls)}")
    print(f"  set-up probes (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print_metrics("end-to-end (untraced passes)", end_to_end, END_TO_END)
    metrics = end_to_end
    if traced:
        layers = [layer_metrics(jobs, p) for p in traced]
        per_layer = {
            name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        # counts repeat exactly (checked above), so take them as counted
        per_layer.update({name: layers[0][name] for name in (*COUNT_METRICS, "trace.spans")})
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - end_to_end["wall_s"]
        print_metrics(f"per-layer (median of {len(traced)} traced passes)", per_layer, PER_LAYER)
        spans_path = SPANS_DIR / f"spans-{args.workload}.jsonl"
        write_spans(spans_path, [p.spans for p in traced])
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        metrics = per_layer

    ok = failed == 0 and repeat
    units = PER_LAYER if traced else END_TO_END
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
