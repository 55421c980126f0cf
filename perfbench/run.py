"""Benchmark of the traintrack command line on three seeded workloads.

One client runs operations back to back in a closed loop, in this process:
each operation is one ``traintrack.cli.main([command, "--json", ...])`` call
on one document fed through stdin, so every operation parses its document
fresh, as the command line does.  A pass runs every operation of the
workload once, in an order drawn from the seed.  A run makes a fixed number
of passes: as many as fit in the given seconds at the nominal pass time, so
that two versions of the program are measured over the same number of
samples.  Latencies are quoted in reference seconds, calibrated against a
fixed loop timed next to each operation (see CALIBRATION_S).  Every report
is checked against an independently known answer (see corpus.py).

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` the seconds are split between an
untraced and a traced half and the metrics are the per-layer ones, from
spans recorded by tracer.py.  The line before it holds the details: per
command timings with sample counts, scaling curves, mismatches and the full
per-function trace.  Run it from the root of a checkout holding ``src/``.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracer  # noqa: E402

SETUP_PROBES = 20
# Seconds one pass takes on a quiet 2-core x86-64 virtual machine (Python
# 3.11): 5.5-6 s on each workload.  A run makes seconds / this many passes,
# at least MIN_PASSES; the constant, not the program's speed, fixes the count.
NOMINAL_PASS_S = 6.0
MIN_PASSES = 3
# A run under heavy host load stops early rather than overrun this many
# times its seconds; the detail line then shows fewer passes than planned.
OVERRUN = 3
# The host's speed changes by up to 2x, in phases from seconds to tens of
# minutes, and a fixed loop of interpreter work slows with it.  Each latency
# is divided by the mean time of that loop run right before and right after
# it, and multiplied by CALIBRATION_S, the loop's time at the speed the
# figures are quoted for.  On the 2-core x86-64 virtual machine the
# benchmark was tuned on, the loop took 0.011 s in fast phases and
# 0.016-0.025 s in slow ones.
CALIBRATION_S = 0.015
COMMAND_METRICS = {
    "check-ct": "check_ct_s",
    "nielsen": "nielsen_s",
    "disintegrate": "disintegrate_s",
    "audit": "audit_s",
    "classify": "classify_s",
    "coords": "coords_s",
    "verify-commute": "verify_commute_s",
}
# Commands whose answer needs a Nielsen catalog of the document's map.
CATALOG_COMMANDS = frozenset(COMMAND_METRICS)

# Functions every operation, and each command, must reach; a zero call count
# for one of them means the trace missed a binding (or the program no longer
# takes that path).
ALWAYS_REACHED = ("cli.main", "cli.parse_document", "paths.tighten")
REACH = {
    "check-ct": ("ct.check_ct", "nielsen.build_catalog", "nielsen.is_nielsen_path",
                 "nielsen.complete_split", "maps.apply", "maps.compose",
                 "maps.filtration", "maps.compute_filtration", "maps.classify_strata"),
    "nielsen": ("nielsen.build_catalog", "nielsen.is_nielsen_path", "maps.apply"),
    "disintegrate": ("disintegrate.disintegrate", "nielsen.build_catalog",
                     "nielsen.qe_split", "nielsen.complete_split", "intlin.kernel_basis"),
    "audit": ("maxrank.rank_audit", "maxrank.stage_ranks", "maps.restrict",
              "disintegrate.disintegrate"),
    "classify": ("maxrank.classify_max_rank", "maxrank.valid_orders"),
    "coords": ("coords.coordinate_system",),
    "verify-commute": ("disintegrate.build_fa", "disintegrate.disintegrate", "maps.apply"),
    "fps": ("maxrank.detect_fps",),
}

# Functions whose calls and self time are per-layer metrics (per traced
# pass), and those whose cumulative time is one too.
LAYER_FUNCTIONS = (
    "cli.parse_document", "paths.tighten", "maps.apply", "maps.compose",
    "maps.restrict", "maps.filtration", "maps.compute_filtration",
    "maps.classify_strata", "nielsen.build_catalog", "nielsen.is_nielsen_path",
    "nielsen.qe_split", "nielsen.complete_split", "ct.check_ct",
    "disintegrate.disintegrate", "disintegrate.build_fa", "intlin.kernel_basis",
    "intlin.pf_eigenvalue", "coords.coordinate_system", "freegroup.is_IA",
    "maxrank.detect_fps", "maxrank.rank_audit", "maxrank.classify_max_rank",
    "maxrank.valid_orders", "maxrank.stage_ranks",
)
CUMULATIVE = ("nielsen.build_catalog", "disintegrate.disintegrate",
              "disintegrate.build_fa", "maxrank.stage_ranks")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    if not (SRC / "traintrack" / "__init__.py").is_file():
        raise BenchError("no traintrack sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    try:
        return importlib.import_module("traintrack.cli")
    except ImportError as exc:
        raise BenchError("cannot import traintrack: %s" % exc)


# -- running operations -------------------------------------------------------------


def run_op(cli, op):
    """Run one operation; returns (seconds, mismatch message or None)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(op.doc)
    crash = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(op.argv())
    except (Exception, SystemExit) as exc:
        crash = "%s: %s" % (type(exc).__name__, exc)
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin = saved
    if crash is not None:
        return elapsed, "crashed: " + crash
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        payload = None
    try:
        return elapsed, op.check(payload)
    except (KeyError, TypeError, AttributeError) as exc:
        # A report without the checked fields, or no JSON report at all.
        return elapsed, "unreadable report (%s: %s): %s" % (
            type(exc).__name__, exc, out.getvalue()[:200] or err.getvalue()[:200])


def calibrate():
    """Seconds that one fixed piece of interpreter work takes right now."""
    start = time.perf_counter()
    counts = {}
    for i in range(40000):
        key = "E%d" % (i % 50)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def pin_to_one_cpu():
    """Run this process and its children on one CPU: the host's CPUs differ
    in speed from moment to moment, and a calibration describes only the
    CPU it ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_passes(cli, ops, rng, count, limit, trace=None, between=None):
    """``count`` passes, fewer only if they overrun ``limit`` seconds;
    ``between`` runs untimed before each pass.  A calibration runs before
    the first operation and after each one, outside its latency.
    Returns [(pass seconds, [(op, seconds, calibration seconds, mismatch)])],
    where an operation's calibration is the mean of the two around it."""
    passes = []
    begin = time.perf_counter()
    while len(passes) < count and time.perf_counter() - begin < limit:
        if between is not None:
            between(len(passes))
        order = list(ops)
        rng.shuffle(order)
        gc.collect()
        start = time.perf_counter()
        records = []
        before = calibrate()
        for op in order:
            if trace is not None:
                trace.begin_op()
            seconds, mismatch = run_op(cli, op)
            after = calibrate()
            records.append((op, seconds, (before + after) / 2, mismatch))
            before = after
        passes.append((time.perf_counter() - start, records))
    return passes


def planned_passes(seconds):
    return max(MIN_PASSES, int(seconds / NOMINAL_PASS_S))


def setup_probe(ops):
    """A callable timing one fresh interpreter that imports traintrack and
    parses every document of the workload once."""
    docs = json.dumps(sorted({op.doc for op in ops}))
    argv = [sys.executable, "-E", "-s", str(HERE / "setup_probe.py"), str(SRC)]

    def once():
        start = time.perf_counter()
        done = subprocess.run(argv, input=docs, capture_output=True, text=True,
                              cwd=str(ROOT), timeout=60)
        took = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchError("set-up probe failed: %s" % done.stderr.strip()[-500:])
        return took
    return once


# -- summaries -------------------------------------------------------------------


def op_samples(passes):
    """Per (command, label): [(latency, calibration)] over the passes."""
    samples = {}
    for _, records in passes:
        for op, seconds, cal, _ in records:
            samples.setdefault((op.command, op.label), []).append((seconds, cal))
    return samples


def reference_s(samples):
    """Median latency in reference seconds (see CALIBRATION_S)."""
    return statistics.median(seconds / cal for seconds, cal in samples) * CALIBRATION_S


def timing_summary(passes):
    """Per command: one pass of its operations, each at its median latency
    in reference seconds, and at its best and median raw latency; per
    document: the same as latency curves."""
    commands, curves = {}, {}
    for (cmd, label), samples in sorted(op_samples(passes).items()):
        raw = [seconds for seconds, _ in samples]
        point = {"ref_s": reference_s(samples), "best_s": min(raw),
                 "median_s": statistics.median(raw), "samples": len(samples)}
        curves.setdefault(cmd, {})[label] = point
        entry = commands.setdefault(cmd, {"ref_s": 0.0, "best_s": 0.0, "median_s": 0.0,
                                          "ops": 0, "samples": len(samples)})
        for key in ("ref_s", "best_s", "median_s"):
            entry[key] += point[key]
        entry["ops"] += 1
    return commands, curves


def failures(passes):
    return [(op.command, op.label, mismatch)
            for _, records in passes for op, _, _, mismatch in records if mismatch]


def ops_per_s(passes):
    """Operations per second over a pass in which every operation takes its
    median latency in reference seconds.  Dividing each latency by the
    calibration next to it takes out the host's phases; the median of these
    ratios was steadier over ten seeds than the raw best or median latency
    (see README.md)."""
    samples = op_samples(passes)
    return len(samples) / sum(reference_s(s) for s in samples.values())


def raw_ops_per_s(passes):
    """The same with each operation at its best raw latency, uncalibrated."""
    samples = op_samples(passes)
    return len(samples) / sum(min(seconds for seconds, _ in s) for s in samples.values())


def layer_metrics(summary, n_passes, commands):
    funcs = summary["functions"]
    counters = summary["counters"]
    zero = {"calls": 0, "self_s": 0.0, "cum_s": 0.0}
    per = {}

    def put(name, value, unit):
        per[name] = {"value": value / n_passes if unit != "ratio" else value, "unit": unit}

    for name in LAYER_FUNCTIONS:
        f = funcs.get(name, zero)
        put(name + ".calls", f["calls"], "count")
        put(name + ".self_s", f["self_s"], "s")
    for name in CUMULATIVE:
        put(name + ".cum_s", funcs.get(name, zero)["cum_s"], "s")
    for name in ("paths.tighten.edges_in", "paths.tighten.edges_out",
                 "maps.apply.edges_out", "maxrank.valid_orders.yielded",
                 "nielsen.build_catalog.computed"):
        put(name, counters.get(name, 0), "count")
    for layer in tracer.LAYERS:
        put("layer.%s.self_s" % layer,
            sum(f["self_s"] for f in funcs.values() if f["layer"] == layer), "s")
    computed = counters.get("nielsen.build_catalog.computed", 0)
    put("nielsen.catalog_hit_ratio",
        _ratio(counters.get("nielsen.build_catalog.entries", 0),
               funcs.get("nielsen.is_nielsen_path", zero)["calls"]), "ratio")
    put("nielsen.build_catalog.repeat_ratio",
        _ratio(counters.get("nielsen.build_catalog.repeats", 0), computed), "ratio")
    put("nielsen.qe_split.repeat_ratio",
        _ratio(counters.get("nielsen.qe_split.repeats", 0),
               funcs.get("nielsen.qe_split", zero)["calls"]), "ratio")
    for cmd, metric in COMMAND_METRICS.items():
        per[metric] = {"value": commands.get(cmd, {}).get("ref_s", 0.0), "unit": "s"}
    return per


def _ratio(num, den):
    return num / den if den else 0.0


# -- the two kinds of run ---------------------------------------------------------


def run_untraced(cli, ops, rng, count, limit):
    # Set-up probes are spread between the passes, so that one burst of
    # host load cannot slow all of them; each is calibrated like an operation.
    probe, setup_samples = setup_probe(ops), []

    def probe_once():
        before = calibrate()
        took = probe()
        setup_samples.append((took, (before + calibrate()) / 2))

    def between(done):
        for _ in range(SETUP_PROBES * (done + 1) // count - SETUP_PROBES * done // count):
            probe_once()

    passes = run_passes(cli, ops, rng, count, limit, between=between)
    while len(setup_samples) < SETUP_PROBES:
        probe_once()
    attempted = sum(len(r) for _, r in passes)
    bad = failures(passes)
    commands, curves = timing_summary(passes)
    metrics = {
        "setup_s": {"value": reference_s(setup_samples), "unit": "s"},
        "ops_per_s": {"value": ops_per_s(passes), "unit": "1/s"},
        "ok_ratio": {"value": (attempted - len(bad)) / attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    detail = {"passes": len(passes), "passes_planned": count, "pass_s": [took for took, _ in passes],
              "ops_per_pass": len(ops),
              "setup_samples_s": [seconds for seconds, _ in setup_samples],
              "setup_raw_median_s": statistics.median(seconds for seconds, _ in setup_samples),
              "ops_per_s_raw": raw_ops_per_s(passes),
              "commands": commands, "curves": curves, "fail_ratio": len(bad) / attempted,
              "mismatches": bad[:20]}
    return attempted, len(bad), metrics, detail, []


def run_traced(cli, ops, rng, count, limit):
    # Each half needs two passes at least, for a median of two samples.
    half = max(2, count // 2)
    problems = cache_check_problems(cli, ops)
    plain = run_passes(cli, ops, rng, half, limit / 2)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = run_passes(cli, ops, rng, half, limit / 2, trace)
    finally:
        trace.uninstall()
    summary = trace.summary()
    passes = plain + traced
    attempted = sum(len(r) for _, r in passes)
    bad = failures(passes)
    commands, curves = timing_summary(plain)
    metrics = layer_metrics(summary, len(traced), commands)
    plain_rate, traced_rate = ops_per_s(plain), ops_per_s(traced)
    metrics["fail_ratio"] = {"value": len(bad) / attempted, "unit": "ratio"}
    metrics["trace.ops_per_s_untraced"] = {"value": plain_rate, "unit": "1/s"}
    metrics["trace.ops_per_s_traced"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.overhead_ratio"] = {"value": plain_rate / traced_rate, "unit": "ratio"}

    need = sum(1 for op in ops if op.command in CATALOG_COMMANDS) * len(traced)
    problems.extend(cold_cache_problems(summary, need))
    calls = {name: f["calls"] for name, f in summary["functions"].items()}
    for name in sorted(reached(ops)):
        if calls.get(name, 0) == 0:
            problems.append("traced %s was never called" % name)
    detail = {"passes_untraced": len(plain), "passes_traced": len(traced),
              "ops_per_pass": len(ops), "spans": summary["spans"],
              "commands": commands, "curves": curves,
              "mismatches": bad[:20], "functions": summary["functions"],
              "counters": summary["counters"]}
    return attempted, len(bad), metrics, detail, problems


def cold_cache_problems(summary, need):
    computed = summary["counters"].get("nielsen.build_catalog.computed", 0)
    if computed < need:
        return ["caches not cold: %d catalogs computed for %d operations that need "
                "one" % (computed, need)]
    return []


def cache_check_problems(cli, ops):
    """The cold-cache check must be able to fail: catalog one document's map
    twice on the same object, which the second time is served from the
    map's cache, and require the check to flag it."""
    doc = min((op.doc for op in ops if op.command in CATALOG_COMMANDS), key=len)
    nielsen = importlib.import_module("traintrack.nielsen")
    trace = tracer.Tracer()
    trace.install()
    try:
        m = cli.parse_document(doc).graph_map
        nielsen.build_catalog(m)
        nielsen.build_catalog(m)
    finally:
        trace.uninstall()
    if not cold_cache_problems(trace.summary(), 2):
        return ["the cold-cache check passes a reused map"]
    return []


def reached(ops):
    names = set(ALWAYS_REACHED)
    for op in ops:
        names.update(REACH.get(op.command, ()))
        names.update(op.reaches)
    return names


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pin_to_one_cpu()
        cli = load_program()
        rng = random.Random(args.seed)
        ops = corpus.WORKLOADS[args.workload](rng)
        count = planned_passes(args.seconds)
        run = run_traced if args.trace else run_untraced
        result = run(cli, ops, rng, count, OVERRUN * args.seconds)
        attempted, failed, metrics, detail, problems = result
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    for problem in problems:
        print("benchmark check failed: %s" % problem, file=sys.stderr)
    for command, label, mismatch in detail["mismatches"]:
        print("mismatch: %s %s: %s" % (command, label, mismatch), file=sys.stderr)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  problems=problems)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
