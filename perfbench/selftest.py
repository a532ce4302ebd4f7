#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs two short workloads twice: against perfbench/reference.json, where
every operation must pass, and against a copy with every digest altered,
where every operation must count as failed (not crash). Exits 0 when the
gate behaves both ways, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WRONG = ROOT / ".bench_build" / "selftest-reference.json"


def wrong(digest):
    """The same digest with its last hex digit changed."""
    return digest[:-1] + ("0" if digest[-1] != "0" else "1")


def run(workload, reference):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "2", "--trace", "0",
               "--reference", str(reference)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    reference = json.loads((HERE / "reference.json").read_text("utf-8"))
    altered = {"report": wrong(reference["report"]),
               "study": {workload: {seed: [wrong(d) for d in digests]
                                    for seed, digests in seeds.items()}
                         for workload, seeds in reference["study"].items()}}
    WRONG.parent.mkdir(exist_ok=True)
    WRONG.write_text(json.dumps(altered), "utf-8")
    ok = True
    for workload in ("study-fx8-pooled", "report-warm"):
        good = run(workload, HERE / "reference.json")
        bad = run(workload, WRONG)
        passes = good["correct"] and good["failed"] == 0
        fires = (not bad["correct"] and bad["attempted"] >= 1
                 and bad["failed"] == bad["attempted"])
        print(f"{workload}: true reference "
              f"{'passes' if passes else 'FAILS'} "
              f"({good['attempted']} ops), wrong reference "
              f"{'fails every op' if fires else 'DOES NOT FIRE'} "
              f"({bad['failed']}/{bad['attempted']})")
        ok = ok and passes and fires
    WRONG.unlink()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
