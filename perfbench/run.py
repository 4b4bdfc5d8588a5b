"""Benchmark of the dihedralinv verifier: time to verdict on three workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the root of a checkout; it runs the package from ./src.

With --trace 0 it times cold operations, one at a time, until --seconds
have passed.  An operation is one fresh `python -m dihedralinv.cli ...`
process for kernel-dim and paper, and one fresh library session for
gl-tables.  Every answer is checked against reference.py, which does not
import the package; a non-zero exit or a wrong answer counts as a failed
operation.  wall_s and cpu_s are those of the run's second-slowest
operation.  Before each operation it times set-up (import plus building the
workload's algebras) in a fresh process of its own; setup_s is their median.

With --trace 1 it alternates an untraced operation with a traced one, where
a child process wraps the package's public calls (tracer.py), and reports
the per-layer metrics named in BENCHMARK.json, the tracing overhead, and
whether the traced answers equal the untraced ones.

A pure-Python probe loop is timed at the start and the end of every run, so
a change in machine speed can be told apart from a change in the program.
The last line of standard output is the JSON result; a record of every
sample goes to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
from tracer import TARGETS
from workloads import CLI_ARGS, WORKLOADS, op_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 5  # at least this many per run

# each traced span name must have calls on the workload named here, so a
# wrapper that never fires (a binding missed by the patching) is caught
REQUIRED_CALLS = {
    "kernel-dim": ["freealgebra.enumerate", "freealgebra.phi",
                   "freealgebra.transport", "linalg.nullspace",
                   "linalg.eliminate", "linalg.scale_row", "rings.poly_mul",
                   "dihedral.xy_monomials", "kernelcalc.kernel_basis",
                   "cli.command", "cli.emit"],
    "paper": ["freealgebra.saturation", "freealgebra.gl_act",
              "linalg.space_insert", "kernelcalc.mingens",
              "dihedral.invariant_basis", "dihedral.cyclic_basis",
              "kernelcalc.ideal_slice", "kernelcalc.spanning_polys",
              "kernelcalc.hironaka", "kernelcalc.gl_generation"],
    "gl-tables": ["gltheory.kostka", "gltheory.schur_dim", "gltheory.pieri",
                  "gltheory.tables"],
}
assert ({t[0] for t in TARGETS} | {"cli.command"}
        == {name for names in REQUIRED_CALLS.values() for name in names})


# ---------------------------------------------------------------------------
# reference checks: each returns a list of problems, empty when correct


def _rows(doc, table):
    for t in doc["tables"]:
        if t["name"] == table:
            return t["rows"]
    return None


def check_kernel_dim(doc):
    want = reference.kernel_dimensions(6, 3, 14)
    rows = [{"degree": d, "dimension": c} for d, c in sorted(want.items())]
    if _rows(doc, "kernel_dimensions") != rows:
        return ["kernel dimensions differ from the counting reference"]
    return []


def check_paper(doc):
    problems = []
    verdicts = doc["verdicts"]
    if len(verdicts) != 11 or any(v["status"] != "ok" for v in verdicts):
        problems.append("not every verdict is ok")
    for m in (2, 3):
        want = reference.minimal_generator_counts(4, m, 10)
        if want != reference.PAPER_MINGENS[m]:
            problems.append("Weyl reference disagrees with the paper, m=%d"
                            % m)
        rows = [{"degree": d, "count": c} for d, c in sorted(want.items())]
        if _rows(doc, "minimal_generators_m%d" % m) != rows:
            problems.append("minimal generators differ, m=%d" % m)
        kernel = reference.kernel_dimensions(4, m, 10)
        rows = [{"degree": d, "ideal_dim": c, "kernel_dim": c}
                for d, c in sorted(kernel.items())]
        if _rows(doc, "gl_generation_m%d" % m) != rows:
            problems.append("GL-generation dimensions differ, m=%d" % m)
    components = {m: sum(reference.partitions_count(t, m) for t in range(17))
                  for m in (2, 3)}
    hironaka = [[lstar, components[m]] for lstar, m
                in zip(reference.PAPER_SECONDARIES, (2, 3, 3))]
    if [v["witness_dims"] for v in verdicts[6:9]] != hironaka:
        problems.append("Hironaka secondaries or component counts differ")
    return problems


def check_gl_tables(queries):
    problems = []
    for q in queries:
        n, m, D = q["n"], q["m"], q["D"]
        weyl = [0] * (D + 1)
        for t, lam, mult in q["entries"]:
            weyl[t] += mult * reference.weyl_dim(lam, m)
        if q["dims"] != weyl:
            problems.append("%s(%d, %d): total_dim differs from the Weyl "
                            "sum" % (q["kind"], n, m))
        if q["kind"] == "invariants_truncated":
            orbits = reference.invariant_dimensions(n, m, D)
            if q["dims"] != [orbits[t] for t in range(D + 1)]:
                problems.append("invariants(%d, %d): dimensions differ from "
                                "the orbit count" % (n, m))
    return problems


CHECKS = {"kernel-dim": check_kernel_dim, "paper": check_paper,
          "gl-tables": check_gl_tables}


def check(workload, answer):
    """Problems with one answer; None stands for a failed process."""
    if answer is None:
        return ["the process failed or printed no answer"]
    try:
        return CHECKS[workload](answer)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return ["malformed answer: %r" % exc]


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("DIHEDRALINV_RESOURCE_CAP", None)
    return env


def spawn(argv, log):
    """Run one process to completion: (exit code, stdout, wall, rusage)."""
    with open(log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage


def child(*args):
    return [sys.executable, str(HERE / "child.py"), *map(str, args)]


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def measure_setup(workload, count):
    samples = []
    for _ in range(count):
        code, out, _, _ = spawn(child("setup", workload),
                                OUT / "setup.stderr")
        result = last_json(out) if code == 0 else None
        if result is None:
            raise RuntimeError("set-up process failed with exit code %d"
                               % code)
        module = Path(result["module"]).resolve()
        if ROOT / "src" not in module.parents:
            raise RuntimeError("dihedralinv was imported from %s, not from "
                               "this checkout" % module)
        samples.append(result["setup_s"])
    return samples


def run_op(workload, seed):
    """One untraced operation: its sample and its answer (None if failed)."""
    if workload == "gl-tables":
        argv = child("session", seed)
    else:
        argv = [sys.executable, "-m", "dihedralinv.cli",
                *CLI_ARGS[workload], "--format", "json"]
    code, out, wall, usage = spawn(argv, OUT / ("%s.stderr" % workload))
    sample = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
              "rss_mb": usage.ru_maxrss / 1024, "code": code}
    answer = None
    if code == 0:
        try:
            if workload == "gl-tables":
                answer = last_json(out)["answer"]
                sample["query_s"] = [q["s"] for q in answer]
            else:
                answer = json.loads(out)
        except (ValueError, KeyError, TypeError):
            answer = None
    return sample, answer


def untimed(answer):
    """The answer without the per-query times of a gl-tables session."""
    if isinstance(answer, list):
        return [{k: v for k, v in q.items() if k != "s"} for q in answer]
    return answer


def run_traced(workload, seed):
    spans = OUT / ("spans-%s.json" % workload)
    code, out, wall, _ = spawn(child("trace", workload, seed, spans),
                               OUT / ("%s-trace.stderr" % workload))
    result = last_json(out) if code == 0 else None
    if result is None or result["code"] != 0:
        return wall, None, None
    answer = result["answer"]
    if workload != "gl-tables":
        answer = json.loads(answer)
    return wall, answer, result


def probe():
    """Time a fixed pure-Python loop (about 0.2 s on a 2 GHz Xeon)."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    return perf_counter() - start


# ---------------------------------------------------------------------------
# runs


def second_slowest(values):
    """Shared hosts can switch between a fast and a slow state for seconds
    to minutes at a time, and can pause a process now and then.  A run's
    median flips with the share of time spent in the fast state, and its
    slowest operation may be one that was paused; the second slowest is
    steady under both."""
    return sorted(values)[-2] if len(values) > 1 else values[0]


def untraced_run(workload, seed, seconds, record):
    # set-up is sampled before every operation, so its samples see the same
    # machine speed as the operations do
    setup, samples = [], []
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        setup += measure_setup(workload, 1)
        sample, answer = run_op(workload, op_seed(seed, len(samples)))
        sample["problems"] = check(workload, answer)
        samples.append(sample)
    setup += measure_setup(workload, SETUP_SAMPLES - len(setup))
    metrics = {
        "wall_s": second_slowest([s["wall_s"] for s in samples]),
        "cpu_s": second_slowest([s["cpu_s"] for s in samples]),
        "peak_rss_mb": max(s["rss_mb"] for s in samples),
        "setup_s": statistics.median(setup),
    }
    queries = [q for s in samples for q in s.get("query_s", [])]
    if queries:
        # not gated: pooled query times flip with the host state
        deciles = statistics.quantiles(queries, n=10, method="inclusive")
        record["query_p50_ms"] = 1000 * deciles[4]
        record["query_p90_ms"] = 1000 * deciles[8]
    record.update(setup_s=setup, samples=samples)
    failed = sum(1 for s in samples if s["problems"])
    return metrics, len(samples), failed


def traced_run(workload, seed, seconds, record):
    measure_setup(workload, 1)
    pairs = []
    calls = {}
    start = perf_counter()
    while not pairs or perf_counter() - start < seconds:
        i = op_seed(seed, len(pairs))
        sample, answer = run_op(workload, i)
        wall, traced_answer, result = run_traced(workload, i)
        problems = check(workload, answer)
        if untimed(traced_answer) != untimed(answer):
            problems.append("traced answer differs from untraced")
        if result:
            wall -= result["after_s"]
            calls = result["calls"]
        pairs.append({"untraced_s": sample["wall_s"], "traced_s": wall,
                      "metrics": result and result["metrics"],
                      "problems": problems})
    for name in REQUIRED_CALLS[workload]:
        if not calls.get(name):
            pairs[-1]["problems"].append("no calls traced for %s" % name)
    good = [p["metrics"] for p in pairs if p["metrics"]]
    metrics = {name: statistics.median_low(m[name] for m in good)
               for name in (good[0] if good else {})}
    untraced = statistics.median(p["untraced_s"] for p in pairs)
    traced = statistics.median(p["traced_s"] for p in pairs)
    metrics.update({"trace.wall_s": traced, "trace.untraced_wall_s": untraced,
                    "trace.overhead_s": traced - untraced,
                    "trace.overhead_ratio": traced / untraced - 1})
    record.update(pairs=pairs, calls=calls)
    failed = sum(1 for p in pairs if p["problems"])
    return metrics, len(pairs), failed


def run_workload(workload, seed, seconds, trace, spec):
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "probe_start_s": probe()}
    runner = traced_run if trace else untraced_run
    metrics, attempted, failed = runner(workload, seed, seconds, record)
    record["probe_end_s"] = probe()
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              # a metric that only failed operations would have given reads 0
              "metrics": {m["name"]: {"value": metrics[m["name"]]
                                      if not failed else
                                      metrics.get(m["name"], 0),
                                      "unit": m["unit"]} for m in wanted}}
    record["result"] = result
    with open(OUT / ("%s-seed%d-trace%d.json" % (workload, seed, trace)),
              "w") as f:
        json.dump(record, f, indent=1)
    print("%s seed %d: %d operations, %d failed, probe %.4f s -> %.4f s"
          % (workload, seed, attempted, failed, record["probe_start_s"],
             record["probe_end_s"]))
    if "query_p50_ms" in record:
        print("  queries: p50 %.3f ms, p90 %.3f ms (not gated)"
              % (record["query_p50_ms"], record["query_p90_ms"]))
    for name, m in result["metrics"].items():
        print("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    for item in record.get("samples", record.get("pairs", [])):
        for problem in item["problems"]:
            print("  FAILED: %s" % problem)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dihedralinv" / "cli.py").is_file():
        sys.exit("perfbench: no src/dihedralinv in %s; run from the root of "
                 "a dihedralinv checkout" % ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace, spec)
               for w in names}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
