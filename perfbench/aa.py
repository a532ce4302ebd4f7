#!/usr/bin/env python3
"""A/A steadiness check: two interleaved sets of runs of the same build.

    python3 perfbench/aa.py --rounds 10 --out perfbench/aa/record.json

Round r runs every workload once for set A (seed r) and once for set B
(seed r + 100), alternating which set goes first. For every end-to-end
metric of BENCHMARK.json the record keeps each set's ten values, their
median and quartile spread (IQR as a share of the median), and how far
B's median sits from A's. A metric is steady when both spreads, except
setup_s's, stay within a third of its bound and the medians agree within
the bound. With --summary the record is read back and printed.

The summary also gives, per workload, the correlation between the host
spin (host.calib_spin_s, 1 thread) and wall_s across all twenty runs,
and the IQR wall_s would have if divided by the spin. Both are
diagnostics: the benchmark never divides by the spin.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_OFFSET = {"A": 0, "B": 100}


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: gate failed: {detail}")
    return {"seed": seed, "metrics": {name: m["value"] for name, m
                                      in result["metrics"].items()},
            "host": detail["host"], "attempted": result["attempted"],
            "wall_s_spread": detail["wall_s"]}


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median}


def summarize(record, spec):
    lines = []
    for workload, sets in record["runs"].items():
        lines.append(f"{workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = stats([run["metrics"][name] for run in sets["A"]])
            b = stats([run["metrics"][name] for run in sets["B"]])
            drift = b["median"] / a["median"] - 1.0
            spread_ok = name == "setup_s" or max(
                a["iqr_share"], b["iqr_share"]) <= bound / 3
            steady = spread_ok and abs(drift) <= bound
            verdict = "ok" if steady else "NOT STEADY"
            lines.append(
                f"  {name:12s} A {a['median']:.6g} (IQR {a['iqr_share']:6.1%})"
                f"  B {b['median']:.6g} (IQR {b['iqr_share']:6.1%})"
                f"  B/A {drift:+6.1%}  bound {bound:.0%}  {verdict}")
        runs = sets["A"] + sets["B"]
        spin = [run["host"]["calib_spin_s.t1"] for run in runs]
        wall = [run["metrics"]["wall_s"] for run in runs]
        divided = stats([w / s for w, s in zip(wall, spin)])
        r = statistics.correlation(spin, wall)
        lines.append(f"  host spin vs wall_s: r = {r:.2f}; wall_s / spin "
                     f"would have IQR {divided['iqr_share']:.1%}")
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if args.summary:
        print(summarize(json.loads(args.out.read_text("utf-8")), spec))
        return 0
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    record = {"rounds": args.rounds, "seconds": seconds,
              "runs": {w: {"A": [], "B": []} for w in workloads}}
    for r in range(1, args.rounds + 1):
        for workload in workloads:
            order = ("A", "B") if r % 2 else ("B", "A")
            for label in order:
                run = run_once(workload, r + SEED_OFFSET[label], seconds)
                record["runs"][workload][label].append(run)
                print(f"round {r} {workload} {label}: {run['metrics']}",
                      flush=True)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    print(summarize(record, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
