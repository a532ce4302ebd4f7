#!/usr/bin/env python3
"""The repository benchmark: studies and reproductions of the FX/8 simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-fx8-pooled --seed 0 \\
        --seconds 20 --trace 0

The first call builds the simulator's libraries and perfbench_driver
under .bench_build/ with the repository's own CMake lists; later calls
rebuild incrementally. Workloads, metrics and the correctness gate are
described in perfbench/README.md.

With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json, measured untraced; with --trace 1 it holds the per-layer
metrics of a separate serial run that times public calls from outside.
The line before it gives the per-operation spread and the host context.

    python3 perfbench/run.py --record-reference

recomputes perfbench/reference.json (the digests the gate compares
against) from the current build.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "fx8" / "perfbench" / "perfbench_driver"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("study-fx8-pooled", "study-fx64-serial", "report-cold",
             "report-warm")
STUDIES = WORKLOADS[:2]
# Worker count of the pooled study and both reports, and the other count
# the fallback reference of an unrecorded seed is computed at.
THREADS = {"study-fx8-pooled": 2, "study-fx64-serial": 1}
CROSS_THREADS = {"study-fx8-pooled": 1, "study-fx64-serial": 2}
SETUP_PROBES = 15
RECORDED_SEEDS = range(16)
# The shared-input audit of a cold report: study, transition, private runs.
COLD_RUN_COUNTS = (1, 1, 65)


class BenchError(Exception):
    """The benchmark could not run (build failure, driver crash)."""


def build():
    """Configure once, then build perfbench_driver incrementally."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "fx8" / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD / "fx8"),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                     f"-DCMAKE_PROJECT_INCLUDE={HERE / 'perfbench.cmake'}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD / "fx8"),
                  "--target", "perfbench_driver", "-j", "4"])
    with open(log, "w", encoding="utf-8") as out:
        for step in steps:
            try:
                code = subprocess.run(step, cwd=ROOT, stdout=out,
                                      stderr=subprocess.STDOUT,
                                      timeout=840).returncode
            except subprocess.TimeoutExpired as error:
                raise BenchError(f"build timed out: {step}") from error
            if code != 0:
                shutil.rmtree(BUILD / "fx8", ignore_errors=True)
                raise BenchError(f"build failed (see {log}): {' '.join(step)}")


def driver(mode, timeout, **flags):
    """Run perfbench_driver and return its JSON lines."""
    command = [str(DRIVER), mode]
    for flag, value in flags.items():
        command += [f"--{flag}", str(value)]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"driver timed out: {' '.join(command)}") from error
    if done.returncode != 0:
        raise BenchError(f"driver failed ({done.returncode}): "
                         f"{' '.join(command)}\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines() if line]


def setup_probe(workload, seed, work):
    """Seconds from process start to the workload's first timed call."""
    shutil.rmtree(work / "cold-setup", ignore_errors=True)
    start = time.monotonic()
    end = driver("setup", 60, workload=workload, seed=seed, dir=work)[-1]
    return end["setup_end_s"] - start


def spread(values):
    """Median, quartiles and count; p90 once ten samples lie above it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def expected_digests(workload, seed, reference, work):
    """The digest each operation must reproduce, by family member.

    Reports do not depend on the seed (their inputs are the repository's
    presets). A study seed without recorded digests is checked against
    the same studies at the other worker count, which the engine
    promises is bit-identical.
    """
    if workload not in STUDIES:
        return [reference["report"]]
    recorded = reference["study"][workload].get(str(seed))
    if recorded is not None:
        return recorded
    cross = driver("digest", 170, workload=workload, seed=seed,
                   threads=CROSS_THREADS[workload], dir=work)[-1]
    return cross["digests"] if not cross["problem"] else []


def measure(workload, seed, seconds, reference, work):
    """The untraced run: end-to-end metrics, ops attempted and failed."""
    expected = expected_digests(workload, seed, reference, work)
    if workload == "report-warm":
        # Untimed: the cold reproduction that writes the store replays read.
        driver("prepare", 170, dir=work)
    lines = driver("run", seconds + 60, workload=workload, seed=seed,
                   seconds=seconds, dir=work)
    ops, tail = lines[:-1], lines[-1]
    failed = [op for op in ops if op["problem"]
              or op["member"] >= len(expected)
              or op["digest"] != expected[op["member"]]]
    setups = [setup_probe(workload, seed, work) for _ in range(SETUP_PROBES)]
    walls = [op["wall_s"] for op in ops]
    cpus = [op["cpu_s"] for op in ops]
    calib = driver("calib", 60)[-1]
    detail = {
        "wall_s": spread(walls), "cpu_s": spread(cpus),
        "setup_s": spread(setups),
        "host": {"calib_spin_s.t1": calib["calib_spin_s.t1"],
                 "calib_spin_s.t2": calib["calib_spin_s.t2"],
                 "cpu_util": sum(cpus) / sum(walls)},
        "first_failure": failed[0] if failed else None,
    }
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": tail["peak_rss_mb"],
    }
    return metrics, len(ops), len(failed), detail


def trace(seed, work):
    """The traced serial run: per-layer metrics and their own gate."""
    metrics = {line["metric"]: line["value"]
               for line in driver("trace", 170, seed=seed, dir=work)}
    problems = []
    runs = tuple(metrics.get(f"artifacts.{key}_runs")
                 for key in ("study", "transition", "private"))
    if runs != COLD_RUN_COUNTS:
        problems.append(f"run-count audit {runs}")
    for key in ("misses", "corrupt_misses"):
        if metrics.get(f"artifacts.result_store.{key}") != 0:
            problems.append(f"store {key} on read-back")
    if metrics.get("instr.decomposition_exact") != 1:
        problems.append("replicates rebuilt from outside do not sum "
                        "to the study")
    return metrics, problems


def select(declared, measured):
    """Exactly the declared metrics, with their units; names missing."""
    out = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
           for m in declared if m["name"] in measured}
    return out, [m["name"] for m in declared if m["name"] not in measured]


def record_reference(work):
    reference = {"report": None,
                 "study": {workload: {} for workload in STUDIES}}
    for workload in STUDIES:
        for seed in RECORDED_SEEDS:
            line = driver("digest", 170, workload=workload, seed=seed,
                          threads=THREADS[workload], dir=work)[-1]
            if line["problem"]:
                raise BenchError(f"{workload} seed {seed}: {line['problem']}")
            reference["study"][workload][str(seed)] = line["digests"]
    line = driver("prepare", 170, dir=work)[-1]
    if line["problem"]:
        raise BenchError(f"report: {line['problem']}")
    reference["report"] = line["digest"]
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="digests to gate against (default: %(default)s)")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
        work = BUILD / "work" / (args.workload or "reference")
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if args.record_reference:
                record_reference(work)
                return 0
            spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
            if args.trace:
                measured, problems = trace(args.seed, work)
                metrics, missing = select(spec["per_layer"], measured)
                attempted, failed = 1, int(bool(problems or missing))
                detail = {"problems": problems, "missing": missing}
            else:
                reference = json.loads(args.reference.read_text("utf-8"))
                measured, attempted, failed, detail = measure(
                    args.workload, args.seed, args.seconds, reference, work)
                metrics, missing = select(spec["end_to_end"], measured)
                if missing:
                    raise BenchError(f"metrics not measured: {missing}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, KeyError, ValueError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
