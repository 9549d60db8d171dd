#!/usr/bin/env python3
"""Benchmark runner for the P# tester reproduction.

Builds the measurement program (perfbench/ocaml) from the checkout's
sources, runs one workload, checks its outputs and prints every metric by
name with its unit. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

    python3 perfbench/run.py --workload table2-hunt --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 0 only when every output check passes.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

WORKLOADS = ("table2-hunt", "lin-short", "fuzz-observed")
SETUP_RUNS = 31
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
EXE = os.path.join("default", "perfbench", "ocaml", "bench.exe")


class BenchError(Exception):
    """The benchmark could not run: nothing is measured, no result line."""


# --- statistics --------------------------------------------------------------


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (p in (0, 100])."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def highest_percentile(n, ladder=PERCENTILE_LADDER):
    """The highest percentile of the ladder with at least 10 of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in ladder:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def words_per_step(words, steps):
    """GC words allocated per scheduling step."""
    if steps <= 0:
        raise ValueError("no steps")
    return words / steps


def valid_name(name):
    return bool(NAME_RE.match(name))


# --- running the measurement program -----------------------------------------


def build(root):
    """Builds bench.exe with dune under the checkout's build directory."""
    for needed in ("dune-project", "lib", os.path.join("perfbench", "ocaml")):
        if not os.path.exists(os.path.join(root, needed)):
            raise BenchError("not a checkout of the tester: %s is missing" % needed)
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "dune"
    )
    os.makedirs(build_dir, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir,
         "--profile", "release", "./perfbench/ocaml/bench.exe"],
        cwd=root, env=env, capture_output=True, text=True, timeout=880,
    )
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stderr[-4000:])
    return os.path.join(build_dir, EXE)


def run_exe(exe, args, timeout):
    """Runs bench.exe from its own directory, so that its argv, and with it
    the allocation the counters see, does not depend on the checkout path."""
    return subprocess.run(
        ["./" + os.path.basename(exe)] + args, cwd=os.path.dirname(exe),
        capture_output=True, text=True, timeout=timeout,
    )


def setup_seconds(exe, workload, seed):
    """Median wall time of SETUP_RUNS processes that each start, build the
    workload and run one warm-up execution per harness."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = run_exe(exe, ["setup", "--workload", workload,
                             "--seed", str(seed)], timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError("set-up failed:\n" + proc.stderr[-4000:])
    return statistics.median(times)


def measure(exe, workload, seed, seconds, trace):
    proc = run_exe(exe, ["run", "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)],
                   timeout=seconds + 150)
    if proc.returncode != 0:
        raise BenchError("measurement failed:\n" + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- metrics -----------------------------------------------------------------


def hunt_counts(raw):
    """(operations, operations with the expected outcome). An operation is
    one hunt; a fixed-harness run counts as one hunt that must stay clean."""
    hunts = sum(j["hunts"] for j in raw["jobs"])
    ok = sum(
        j["found"] if j["expect"] == "bug" else j["hunts"] - j["found"]
        for j in raw["jobs"]
    )
    return hunts, ok


def pass_rows(raw):
    """The execution times split into one row per pass, or None when the
    passes did not all run the same number of executions."""
    passes, samples = raw["passes"], raw["exec_ns"]
    n = passes[0]["execs"]
    if any(p["execs"] != n for p in passes) or len(samples) != n * len(passes):
        return None
    return [samples[i * n:(i + 1) * n] for i in range(len(passes))]


def quickest(rows, walls_ns):
    """(each execution's fastest time, the fastest pass's time outside its
    executions). All passes of a run make the same executions in the same
    order; on a shared machine the fastest reading of each is the one least
    slowed by other tenants, who slow whole passes at times."""
    per_exec = [min(col) for col in zip(*rows)]
    outside = min(w - sum(r) for w, r in zip(walls_ns, rows))
    return per_exec, outside


def end_to_end(raw, setup_s):
    passes = raw["passes"]
    first = passes[0]
    # Passes that differ fail a check; their times then come whole.
    rows = pass_rows(raw) or [[p["wall_ns"]] for p in passes]
    per_exec, outside = quickest(rows, [p["wall_ns"] for p in passes])
    wall_s = (sum(per_exec) + outside) / 1e9
    samples = sorted(per_exec)
    hunts, ok = hunt_counts(raw)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "execs_per_s": (first["execs"] / wall_s, "1/s"),
        "steps_per_s": (first["steps"] / wall_s, "1/s"),
        "exec_us_p50": (percentile(samples, 50) / 1e3, "us"),
        "exec_us_p99": (percentile(samples, 99) / 1e3, "us"),
        "minor_words_per_step":
            (words_per_step(first["minor_words"], first["steps"]), "words"),
        "promoted_words_per_step":
            (words_per_step(first["promoted_words"], first["steps"]), "words"),
        "ok_frac": (ok / hunts, "frac"),
    }


def per_layer(raw):
    t = raw["traced"]
    n_passes = len(t["walls_ns"])
    execs, steps = t["execs"], t["steps"]
    calls = t["picks"] + t["draws"]
    # Each wrapped pick or draw adds wrap_ns to the runtime span; its own
    # span reads floor_ns more than the call takes.
    strategy_ns = t["strategy_ns"] - calls * t["floor_ns"]
    runtime_self_ns = t["runtime_ns"] - calls * t["wrap_ns"] - strategy_ns
    untraced_ns = min(p["wall_ns"] for p in raw["passes"])
    # Engine self time: the fastest untraced pass minus the time inside the
    # engine's calls in the fastest spans-only pass, which wraps no pick or
    # draw.
    light = raw["light"]
    light_ns = light["spans_ns"][
        min(range(len(light["walls_ns"])), key=light["walls_ns"].__getitem__)]
    per_exec_us = lambda ns: ns / execs / 1e3
    return {
        "runtime.ns_per_step": (runtime_self_ns / steps, "ns"),
        "runtime.self_us_per_exec": (per_exec_us(runtime_self_ns), "us"),
        "runtime.minor_words_per_step":
            (words_per_step(t["runtime_minor_words"], steps), "words"),
        "runtime.promoted_words_per_step":
            (words_per_step(t["runtime_promoted_words"], steps), "words"),
        "runtime.minor_words_per_exec":
            (t["runtime_minor_words"] / execs, "words"),
        "runtime.trace_choices_per_step": (t["choices"] / steps, "count"),
        "runtime.steps_per_exec": (steps / execs, "count"),
        "strategy.picks": (t["picks"] / n_passes, "count"),
        "strategy.draws": (t["draws"] / n_passes, "count"),
        "strategy.ns_per_call": (strategy_ns / calls, "ns"),
        "strategy.fresh_us_per_exec": (per_exec_us(t["fresh_ns"]), "us"),
        "strategy.feedback_us_per_exec": (per_exec_us(t["feedback_ns"]), "us"),
        "coverage.fingerprint_us_per_exec":
            (per_exec_us(t["cov_fingerprint_ns"]), "us"),
        "coverage.absorb_us_per_exec": (per_exec_us(t["absorb_ns"]), "us"),
        "coverage.novel_exec_frac": (t["novel_core"] / execs, "frac"),
        "coverage.triples": (t["triples"] / n_passes, "count"),
        "hb.fingerprint_us_per_exec": (per_exec_us(t["hb_fingerprint_ns"]), "us"),
        "hb.novel_exec_frac": (t["novel_hb"] / execs, "frac"),
        "hb.partial_orders_per_exec": (t["partial_orders"] / execs, "count"),
        "hb.happenings_per_exec": (t["happenings"] / execs, "count"),
        "linearizability.check_us_per_exec": (per_exec_us(t["lin_ns"]), "us"),
        "linearizability.ops_per_exec": (t["lin_ops"] / execs, "count"),
        "fault.injected_per_exec": (t["faults"] / execs, "count"),
        "clock.vtime_per_exec": (t["vtime"] / execs, "count"),
        "engine.self_us_per_exec":
            ((untraced_ns - light_ns) / (execs / n_passes) / 1e3, "us"),
        "engine.exec_samples": (len(raw["exec_ns"]), "count"),
        "gc.heap_peak_mb":
            (raw["heap_peak_words"] * raw["word_bytes"] / 2**20, "MB"),
        "trace.overhead_frac":
            (min(t["walls_ns"]) / untraced_ns - 1.0, "frac"),
    }


def checks(raw, metrics, declared, trace):
    """Output checks; each returns a message when it fails."""
    failures = list(raw["problems"])
    rows = pass_rows(raw)
    if rows is None:
        failures.append("passes differ in their executions or samples")
    n = len(rows[0]) if rows else 0
    top = highest_percentile(n)
    if top is None or top < 99.0:
        failures.append("only %d executions per pass: p99 has fewer than 10 beyond it" % n)
    names = set(metrics)
    if names != set(declared):
        failures.append("metrics %s differ from BENCHMARK.json %s"
                        % (sorted(names), sorted(declared)))
    for name, (value, unit) in metrics.items():
        if not valid_name(name):
            failures.append("bad metric name %r" % name)
        if not math.isfinite(value):
            failures.append("%s is not finite" % name)
        elif trace == 0 and value <= 0:
            failures.append("%s is not positive" % name)
        if declared.get(name, unit) != unit:
            failures.append("%s has unit %s, BENCHMARK.json says %s"
                            % (name, unit, declared[name]))
    return failures


def print_report(raw, metrics):
    passes = raw["passes"]
    print("workload %s, seed %s: %d pass(es) of %d executions, %d steps; "
          "times are each execution's fastest over the passes"
          % (raw["workload"], raw["seed"], len(passes), passes[0]["execs"],
             passes[0]["steps"]))
    rows = pass_rows(raw)
    if rows:
        samples = sorted(quickest(rows, [p["wall_ns"] for p in passes])[0])
        top = highest_percentile(len(samples))
        if top is not None:
            print("execution host time: highest percentile with >= 10 samples "
                  "beyond it is p%g = %.1f us (%d samples)"
                  % (top, percentile(samples, top) / 1e3, len(samples)))
    if any(j["expect"] == "bug" for j in raw["jobs"]):
        print("first hunt of each job (Table 2 rows):")
        print("  %-38s %-6s %-7s %10s %6s %9s" %
              ("bug", "strat", "result", "executions", "#NDC", "seconds"))
        for j in raw["jobs"]:
            print("  %-38s %-6s %-7s %10d %6d %9.4f" %
                  (j["bug"], j["strategy"], j["result"], j["executions"],
                   j["ndc"], j["seconds"]))
    print("hunts: " + json.dumps(raw["jobs"]))
    for name, (value, unit) in metrics.items():
        print("%-36s %16.6g %s" % (name, value, unit))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        section = "per_layer" if args.trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in spec[section]}
        exe = build(root)
        raw = measure(exe, args.workload, args.seed, args.seconds, args.trace)
        setup_s = setup_seconds(exe, args.workload, args.seed)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("benchmark could not run: %s" % e, file=sys.stderr)
        return 2
    metrics = per_layer(raw) if args.trace else end_to_end(raw, setup_s)
    failures = checks(raw, metrics, declared, args.trace)
    print_report(raw, metrics)
    for msg in failures:
        print("CHECK FAILED: " + msg)
    attempted = sum(p["execs"] for p in raw["passes"])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
