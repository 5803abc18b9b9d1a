"""Steadiness check: every workload in SETS separate sets of RUNS seeded runs.

    python3 perfbench/steady.py [--record PATH]

Runs every workload of BENCHMARK.json with its `run_seconds`; every run
uses a fresh seed (set k, run i gets FIRST_SEED + k*RUNS + i).  For every
end-to-end metric and set it reports the median and the spread: the
distance between the first and third quartile (`statistics.quantiles(values,
n=4)`) as a share of the median.  A metric is steady when each set's spread
is within the metric's bound and no set's median is worse than the first
set's by more than the bound.  `--record` also makes one traced run of
every workload (seed FIRST_SEED) and writes the runs (with their raw,
uncalibrated times and reference-loop medians), the medians, the traced
runs' per-layer metrics and the environment as JSON, the start of the bench
trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload, seed, seconds, trace=0):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-400:]}")

    def field(prefix):
        return next(ln.split(prefix, 1)[1] for ln in lines if ln.startswith(prefix))

    return json.loads(lines[-1]), json.loads(field("  raw: ")), field("  env: ")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse(first, later, better):
    """Relative worsening of `later` against `first` (negative: better)."""
    return (later - first) / first if better == "lower" else (first - later) / first


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--record", type=Path)
    args = ap.parse_args(argv)

    metrics = bench["end_to_end"]
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    all_steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = FIRST_SEED + k * RUNS + i
                result, raw, env = run_once(workload, seed, bench["run_seconds"])
                record["env"] = env
                runs.append({"seed": seed, **result, "raw": raw})
                values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                                  for m in metrics)
                print(f"{workload} set {k + 1} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
            sets.append(runs)
        summary = {}
        print(f"\n{workload}: {SETS} sets x {RUNS} runs")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            shifts = [worse(medians[0], med, m["better"]) for med in medians[1:]]
            ok = all(s <= bound for s in spreads + shifts)
            all_steady &= ok
            summary[name] = {"unit": m["unit"], "bound": bound, "medians": medians,
                             "spreads": spreads, "worse_than_first": shifts, "steady": ok}
            print(f"  {name:14s} bound {bound:.2f}  medians "
                  + " ".join(f"{x:.6g}" for x in medians)
                  + "  spreads " + " ".join(f"{s:.3f}" for s in spreads)
                  + "  worse " + " ".join(f"{s:+.3f}" for s in shifts)
                  + ("  ok" if ok else "  NOT STEADY"))
        raw = {key: [statistics.median(r["raw"][key] for r in runs) for runs in sets]
               for key in sets[0][0]["raw"] if sets[0][0]["raw"][key] is not None}
        print("  raw (uncalibrated) medians: " + "  ".join(
            f"{key} " + " ".join(f"{x:.6g}" for x in vals) for key, vals in raw.items()))
        correct = all(r["correct"] for runs in sets for r in runs)
        all_steady &= correct
        print(f"  all outputs correct: {correct}\n")
        record["workloads"][workload] = {"summary": summary, "raw_medians": raw, "sets": sets}
    if args.record:
        record["traced"] = {}
        for workload in record["workloads"]:
            result, raw, _ = run_once(workload, FIRST_SEED, bench["run_seconds"], trace=1)
            all_steady &= result["correct"]
            record["traced"][workload] = {"seed": FIRST_SEED, **result, "raw": raw}
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("steady" if all_steady else "NOT steady")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
