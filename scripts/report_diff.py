#!/usr/bin/env python3
"""Compare two fx8bench JSON reports modulo timing/cache bookkeeping.

The persistent result cache (docs/benchmarks.md, "The result cache")
promises that a warm `fx8bench --all` reproduces the cold run's report
byte-for-byte *except* for fields that describe the run itself rather
than the measured results:

  - `summary.total_seconds` and each artifact's `seconds` (wall clock),
  - `experiment_runs` (a warm run executes zero engines),
  - `cache` (hit/miss counters obviously differ between cold and warm).

This script strips exactly those fields from both reports and then
compares the rest byte-for-byte (via a canonical JSON dump). CI uses it
to gate the cold-then-warm `artifact-report` job; it is equally handy
locally:

    python3 scripts/report_diff.py cold.json warm.json

Two *separate renders* (two cold runs, say at different FX8_THREADS)
also differ in what the renders measure off their own wall clock and in
the worker count they were configured with. `--across-runs` strips
those too: metrics and checks named `*_per_sec` or `*_speedup`
(perf_simulator's rates) and `study_engine.threads`.

    python3 scripts/report_diff.py --across-runs serial.json pooled.json

Exit code 0 when the normalized reports match, 1 when they differ (a
unified diff is printed), 2 on usage/IO errors.
"""

import difflib
import json
import sys

# Fields that legitimately differ between a cold and a warm run.
VOLATILE_TOP_LEVEL = ("experiment_runs", "cache")
# Name suffixes of values a render measures off its own wall clock.
WALL_CLOCK_SUFFIXES = ("_per_sec", "_speedup")


def wall_clock(name) -> bool:
    return isinstance(name, str) and name.endswith(WALL_CLOCK_SUFFIXES)


def normalize(report: dict, across_runs: bool) -> dict:
    for key in VOLATILE_TOP_LEVEL:
        report.pop(key, None)
    if isinstance(report.get("summary"), dict):
        report["summary"].pop("total_seconds", None)
    if across_runs and isinstance(report.get("study_engine"), dict):
        report["study_engine"].pop("threads", None)
    for artifact in report.get("artifacts", []):
        if not isinstance(artifact, dict):
            continue
        artifact.pop("seconds", None)
        if not across_runs:
            continue
        if isinstance(artifact.get("metrics"), dict):
            artifact["metrics"] = {k: v for k, v in artifact["metrics"].items()
                                   if not wall_clock(k)}
        if isinstance(artifact.get("checks"), list):
            artifact["checks"] = [c for c in artifact["checks"]
                                  if not (isinstance(c, dict)
                                          and wall_clock(c.get("name")))]
    return report


def canonical(path: str, across_runs: bool) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    return json.dumps(normalize(report, across_runs), indent=2,
                      sort_keys=True) + "\n"


def main(argv: list) -> int:
    across_runs = "--across-runs" in argv[1:]
    paths = [arg for arg in argv[1:] if arg != "--across-runs"]
    if len(paths) != 2:
        print(f"usage: {argv[0]} [--across-runs] <a.json> <b.json>",
              file=sys.stderr)
        return 2
    try:
        a, b = canonical(paths[0], across_runs), canonical(paths[1],
                                                           across_runs)
    except (OSError, json.JSONDecodeError) as error:
        print(f"report_diff: {error}", file=sys.stderr)
        return 2
    if a == b:
        print("report_diff: reports identical modulo timing/cache fields")
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            a.splitlines(keepends=True),
            b.splitlines(keepends=True),
            fromfile=paths[0],
            tofile=paths[1],
        )
    )
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
