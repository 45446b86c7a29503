"""Benchmark of deplogic: four workloads, end to end and layer by layer.

    python3 bench/run.py --workload team_search --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Run from the root of a checkout: the program is imported from ./src.  One
process, one thread; `cli_batch` starts one CLI process at a time.  Each run
repeats the workload's fixed batch of verdicts in whole rounds for
--seconds; the first round warms caches and is left out of the timings,
which take each verdict's median time over the slower half of the other
rounds (see `measure`).
Every verdict is checked against answers computed apart from deplogic.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
a separate traced run (see README.md).  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9
TIMED_ROUNDS = 3  # at least
IMPORT_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "surface.parse_ms": "ms",
    "surface.chars_per_ms": "1/ms",
    "normalform.preprocess_ms": "ms",
    "normalform.prenex_ms": "ms",
    "normalform.hoist_ms": "ms",
    "normalform.pull_ms": "ms",
    "normalform.added_existentials": "count",
    "approximation.build_ms": "ms",
    "approximation.nodes": "count",
    "semantics.sentence_ms": "ms",
    "semantics.equiv_ms": "ms",
    "semantics.fo_ms": "ms",
    "semantics.choice_points": "count",
    "semantics.points_per_s": "1/s",
    "proofs.check_ms": "ms",
    "proofs.steps_per_s": "1/s",
    "proofs.rule8_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.process_ms": "ms",
    "trace.overhead_pct": "%",
}


def load_program():
    if not os.path.isfile(os.path.join(SRC, "deplogic", "__init__.py")):
        sys.exit(f"error: no deplogic sources in {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import deplogic
    import deplogic.cli  # noqa: F401  every set-up pays for the CLI module too

    if not os.path.abspath(deplogic.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported deplogic from {deplogic.__file__}, not from {SRC}")
    return deplogic


def set_up(name: str, seed: int, tiny: bool, workdir: str):
    """Import the program, generate the inputs and parse them."""
    from workloads import WORKLOADS

    return WORKLOADS[name](load_program(), seed, tiny, ROOT, workdir)


# ---------------------------------------------------------------------------
# Rounds


class Round:
    def __init__(self):
        self.attempted = 0
        self.times: dict[int, float] = {}  # wall time of each verdict that did not fail
        self.failed = 0
        self.problems: list[str] = []

    @property
    def rate(self) -> float:
        return len(self.times) / sum(self.times.values()) if self.times else 0.0


def run_round(workload, verdicts=None, traced_path=False) -> Round:
    r = Round()
    for i, v in enumerate(verdicts or workload.verdicts):
        if workload.tracer is not None:
            workload.tracer.verdict = i
        call = v.traced if traced_path else v.run
        # Each verdict starts from a collected heap, so that when the cyclic
        # collector runs depends on that verdict's own allocations, not on
        # what ran before it.
        gc.collect()
        r.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
            problem = None
        except Exception as e:  # a failed verdict, counted and reported
            problem = f"{type(e).__name__}: {str(e)[:200]}"
        elapsed = time.perf_counter() - start
        if problem is None:
            try:
                problem = v.check(result)
            except Exception as e:
                problem = f"the check raised {type(e).__name__}: {e}"
        if problem is None:
            r.times[i] = elapsed
        else:  # a failed verdict's time is no verdict's time
            r.failed += 1
            r.problems.append(f"{v.label}: {problem}")
    return r


def setup_probe_seconds(name: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to the end of set-up."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
         "--seed", str(seed)], stdout=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def import_ms() -> float:
    """Fresh `import deplogic.cli` minus a bare interpreter start, medians of
    alternating samples."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = {"pass": [], "import deplogic.cli": []}
    for _ in range(IMPORT_PROBES):
        for code, times in samples.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT)
            times.append(time.perf_counter() - start)
    return 1000 * (statistics.median(samples["import deplogic.cli"])
                   - statistics.median(samples["pass"]))


def measure(workload, seed: int, seconds: float) -> tuple[dict, list[Round]]:
    """End-to-end metrics; set-up probes run between rounds."""
    rounds, probes = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rounds) < 1 + TIMED_ROUNDS:
        rounds.append(run_round(workload))
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe_seconds(workload.name, seed))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe_seconds(workload.name, seed))
    # Both timings come from each verdict's median time over the slower half
    # of the timed rounds, ranked by throughput.  The machine's speed drifts
    # and swings: at times fast bursts come and go above a floor that
    # recurs in nearly every run, at times short slow dips fall below the
    # usual level.  The slower half leaves out the bursts, and a median per
    # verdict within it leaves out a dip that catches a round or two, and a
    # CLI process that now and then takes twice its time (README.md,
    # "Steadiness").
    timed = sorted(rounds[1:], key=lambda r: r.rate)
    per_verdict = defaultdict(list)
    for r in timed[:(len(timed) + 1) // 2]:
        for i, t in r.times.items():
            per_verdict[i].append(t)
    medians = [statistics.median(ts) for ts in per_verdict.values()]
    if workload.name == "cli_batch":
        rss_kb = workload.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(probes),
        # both read 0 only when every verdict failed, and the run is then incorrect
        "verdicts_per_s": len(medians) / sum(medians) if medians else 0.0,
        "verdict_p50_ms": 1000 * statistics.median(medians) if medians else 0.0,
        "peak_rss_mb": rss_kb / 1024,
    }
    return metrics, rounds


# ---------------------------------------------------------------------------
# Traced run


def layer_metrics(spans, counters, counted) -> dict:
    """Per-layer metrics of one traced round; only layers the round reached."""
    from tracing import self_times

    own = defaultdict(float)
    incl = defaultdict(float)
    info = defaultdict(float)
    seen = set()
    counted_s = 0.0
    for s, t in zip(spans, self_times(spans)):
        name = s.name
        if name == "semantics.sentence":
            name = "semantics.fo" if s.info.get("fo") else name
            if s.verdict in counted and s.parent < 0 and name == "semantics.sentence":
                counted_s += s.end - s.start
        seen.add(name)
        own[name] += t
        incl[name] += s.end - s.start
        for key, value in s.info.items():
            if key == "chars" and s.parent >= 0 and spans[s.parent].name == name:
                continue  # counted by the enclosing parse
            if key != "fo":
                info[f"{name}.{key}"] += value
    m = {}
    if "surface.parse" in seen:
        m["surface.parse_ms"] = 1000 * own["surface.parse"]
        m["surface.chars_per_ms"] = info["surface.parse.chars"] / m["surface.parse_ms"]
    for stage in ("preprocess", "prenex", "hoist", "pull"):
        if f"normalform.{stage}" in seen:
            m[f"normalform.{stage}_ms"] = 1000 * own[f"normalform.{stage}"]
    if "normalform.added_existentials" in counters:
        m["normalform.added_existentials"] = counters["normalform.added_existentials"]
    if "approximation.build" in seen:
        m["approximation.build_ms"] = 1000 * own["approximation.build"]
        m["approximation.nodes"] = info["approximation.build.nodes"]
    for key in ("sentence", "equiv", "fo"):
        if f"semantics.{key}" in seen:
            m[f"semantics.{key}_ms"] = 1000 * own[f"semantics.{key}"]
    if counted_s:  # turned into semantics.points_per_s once the points are counted
        m["semantics.counted_s"] = counted_s
    if "proofs.check" in seen:
        m["proofs.check_ms"] = 1000 * own["proofs.check"]
        m["proofs.steps_per_s"] = info["proofs.check.steps"] / incl["proofs.check"]
    if "proofs.rule8" in seen:
        m["proofs.rule8_ms"] = 1000 * incl["proofs.rule8"]
    if "cli.main" in seen:
        m["cli.main_ms"] = 1000 * incl["cli.main"]
    return m


def median_metrics(per_round: list[dict]) -> dict:
    keys = {k for m in per_round for k in m}
    return {k: statistics.median(m[k] for m in per_round if k in m) for k in keys}


def traced_metrics(workload, seconds: float, with_overhead: bool):
    """Alternate untraced and traced rounds of the traced call path; returns
    the metrics, the rounds and the tracer holding the spans."""
    from tracing import Instrumented, Tracer

    tracer = Tracer()
    rounds, pairs = [], []
    metrics = {}
    if workload.name == "cli_batch":
        process = run_round(workload)
        rounds.append(process)
        metrics["cli.process_ms"] = 1000 * sum(process.times.values())
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(pairs) < 2:
        plain = run_round(workload, traced_path=True)
        workload.tracer = tracer
        with Instrumented(tracer):
            traced = run_round(workload, traced_path=True)
        tracer.end_round()
        workload.tracer = None
        rounds += [plain, traced]
        pairs.append((plain.rate, traced.rate))
        if not with_overhead:
            break
    extra = workload.extra_metrics()
    per_round = [layer_metrics(spans, counters, workload.counted)
                 for spans, counters in (tracer.finished[1:] or tracer.finished)]
    found = median_metrics(per_round)
    if "surface.parse_ms" not in found:
        with Instrumented(tracer):
            workload.parse_inputs()
        tracer.end_round()
        found.update(layer_metrics(*tracer.finished[-1], set()))
    metrics.update(found)
    metrics.update(extra)
    counted_s = metrics.pop("semantics.counted_s", None)
    if counted_s and "semantics.choice_points" in metrics:
        metrics["semantics.points_per_s"] = metrics["semantics.choice_points"] / counted_s
    if with_overhead:
        warm = pairs[1:] or pairs
        untraced = statistics.median(p for p, _ in warm)
        traced_rate = statistics.median(t for _, t in warm)
        metrics["trace.overhead_pct"] = 100 * (1 - traced_rate / untraced) if untraced else 0.0
    return metrics, rounds, tracer


def trace_run(workload, seed: int, seconds: float, workdir: str) -> tuple[dict, list[Round]]:
    from workloads import WORKLOADS

    metrics, rounds, tracer = traced_metrics(workload, seconds, with_overhead=True)
    metrics["cli.import_ms"] = import_ms()
    # Layers this workload does not reach are timed on the tiny batch of the
    # workload that owns them, so that every traced run reports every metric.
    for name, cls in WORKLOADS.items():
        if all(k in metrics for k in PER_LAYER):
            break
        if name == workload.name:
            continue
        companion = cls(workload.dl, seed, True, ROOT, workdir)
        found, companion_rounds, _ = traced_metrics(companion, 0, with_overhead=False)
        rounds += companion_rounds  # their verdicts are checked and counted too
        for key, value in found.items():
            metrics.setdefault(key, value)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload.name}-{seed}.json"))
    return metrics, rounds


# ---------------------------------------------------------------------------


def self_test(seed: int) -> int:
    """Every workload at tiny size, untraced and traced, all checks on; then
    a verdict with a wrong expected answer must count as failed."""
    from tracing import Instrumented, Tracer
    from workloads import WORKLOADS

    status = 0
    os.makedirs(OUT, exist_ok=True)
    for name in WORKLOADS:
        workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=OUT)
        try:
            w = set_up(name, seed, True, workdir)
            plain = run_round(w)
            w.tracer = Tracer()
            with Instrumented(w.tracer):
                traced = run_round(w, traced_path=True)
            w.tracer = None
            wrong = run_round(w, [w.self_test_mutant()] + w.verdicts)
            ok = plain.failed == 0 and traced.failed == 0 and wrong.failed == 1 \
                and wrong.problems[0].startswith(w.verdicts[0].label)
            print(f"{name}: {plain.attempted} verdicts, failed {plain.failed} untraced, "
                  f"{traced.failed} traced; wrong expectation counted as failed: "
                  f"{wrong.failed == 1} -> {'ok' if ok else 'FAIL'}")
            for problem in plain.problems + traced.problems:
                print("   ", problem)
            status |= not ok
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["team_search", "approx_chain", "proof_check",
                                               "cli_batch"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, False, workdir)
            print("ready", flush=True)
            return 0
        workload = set_up(args.workload, args.seed, False, workdir)
        if args.trace:
            metrics, rounds = trace_run(workload, args.seed, args.seconds, workdir)
            units = PER_LAYER
        else:
            metrics, rounds = measure(workload, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for r in rounds for p in r.problems]
    for problem in problems[:20]:
        print("failed:", problem, file=sys.stderr)
    result = {
        "correct": all(r.failed == 0 for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
