"""Benchmark of `ahilb`: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload compute-large --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout holding `src/ahilb`; nothing needs to
be installed.  Workloads (inputs from `inputs.py`, made from `--seed`):

  compute-large  `ahilb compute SPEC --json --svg --quiver-svg`, one fresh
                 process per call, a cyclic group of order 401
  fan-heavy      `ahilb check SPEC --check fan`, one fresh process per
                 call, 1/r(1,1,r-2) with r near 300
  sweep-small    one process calling `run_pipeline` on 607 small groups

A CLI call runs `worker.py cli`, which calls `ahilb.cli.main` as
`python -m ahilb.cli` would, beside the speed sampler described at
REF_LOOP_S.

Each workload is a closed loop with a single caller: the next call starts
when the previous one has ended.  Calls repeat until the next one would end
after `--seconds` of real time (at least three calls of the CLI workloads,
one sweep pass).  Every output is checked: exit code 0 and a passing
report; each group's order, triangle count, b2 and b4 against counts the
generator computes without `ahilb` (on the CLI workloads, as the console
summary prints them, with every check it lists passing); on compute-large
also the JSON's sha256 against `digests.json`.

`--trace 0` prints the end-to-end metrics; times are calibrated to a
reference speed (see REF_LOOP_S).  The raw times and the reference loop's
medians, in the measured process and in this quiet one, are printed on the
`raw:` line and recorded beside them.
`--trace 1` makes one untraced and one traced call and prints the
per-layer metrics of the traced call (raw span times from `tracer.py`,
written to `perfbench/out/`), with the tracing overhead: calibrated traced
wall time minus calibrated untraced.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Each
result is also appended to `perfbench/out/results.jsonl` with the git SHA,
nproc, Python version, CPU model and src line count.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from worker import reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PY = sys.executable

SETUP_SAMPLES = 21
CHILD_TIMEOUT_S = 170
MIN_CALLS = {"compute-large": 3, "fan-heavy": 3, "sweep-small": 1}

# Calibration.  On a shared host each CPU can swing between a quiet and a
# busy speed (1.7x apart, every few seconds, independently per CPU, on a
# 2-vCPU Xeon 2.1 GHz guest), so the raw time of one call moves by up to a
# third between runs.  The benchmark pins itself and its children to one
# CPU, and a `worker.SpeedSampler` thread in the measured process times
# `worker.reference_loop`, which allocates nothing, on that CPU about twenty
# times a second.  A calibrated time is the raw time multiplied by
# REF_LOOP_S / (sampled loop time, a running median of SMOOTH samples),
# averaged over the samples taken during the call: the time the call would
# take where the loop takes REF_LOOP_S, a fixed scale: the loop's median in
# a quiet process over 15 runs on that guest (per-run medians move from 0.17
# to 0.41 ms with the host's speed).  Set-up is scaled by samples taken
# in this process just before and after each probe.  This process also
# times the loop just before and after each call (QUIET_LOOPS each), so
# every run records the loop's median in the measured process next to its
# median in a quiet one; their ratio shows whether the program's own state
# slows the loop.
REF_LOOP_S = 0.22e-3
QUIET_LOOPS = 5
SMOOTH = 9

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "groups_per_s": "1/s",
    "group_p50_ms": "ms",
    "group_tail_ms": "ms",
}

# per-layer metric -> span name; the value is the span's inclusive time,
# summed over its calls
SPAN_TIMES = {
    "group.build_s": "group.build",
    "fan.triangulate_s": "fan.triangulate",
    "fan.knockout_s": "fan.knockout",
    "fan.corner_fan_s": "fan.corner_fan",
    "charts.chartset_s": "charts.chartset",
    "recipe.decorate_s": "recipe.decorate",
    "recipe.quiver_s": "recipe.quiver",
    "recipe.regions_s": "recipe.regions",
    "relations.derive_s": "relations.derive",
    "relations.verify_s": "relations.verify",
    "cohomology.surfaces_s": "cohomology.surfaces",
    "cohomology.bundle_degrees_s": "cohomology.bundle_degrees",
    "cohomology.duality_s": "cohomology.duality",
    "cohomology.h2_s": "cohomology.h2",
    "cohomology.certificate_s": "cohomology.certificate",
    "intmat.solve_int_s": "intmat.solve_int",
    "intmat.hnf_s": "intmat.hnf",
    "intmat.zspan_s": "intmat.zspan_insert",
    "serialize.to_json_s": "serialize.to_json",
    "render.svg_s": "render.svg",
    "pipeline.run_s": "pipeline.run",
    "cli.main_s": "cli.main",
}
SPAN_CALLS = {
    "charts.degree_calls": "charts.degree_on_curve",
    "cohomology.c2_pairings": "cohomology.c2_pairing",
    "intmat.solve_int_calls": "intmat.solve_int",
    "intmat.hnf_calls": "intmat.hnf",
    "intmat.zspan_inserts": "intmat.zspan_insert",
}
COUNTS = {
    "fan.lines": "count",
    "fan.regular_triangles": "count",
    "charts.table_entries": "count",
    "relations.count": "count",
    "serialize.json_bytes": "bytes",
    "render.svg_bytes": "bytes",
}
LAYERS = ("group", "fan", "charts", "recipe", "relations", "cohomology", "intmat",
          "serialize", "render", "pipeline", "cli")
STAGES = ("euler", "basic", "ratios", "decoration", "partition", "quiver", "relations",
          "completeness", "duality", "h2_basis", "certificate")
# the checks each CLI workload's console summary lists
SUMMARY_CHECKS = {"compute-large": STAGES, "fan-heavy": ("euler", "basic", "ratios")}


def per_layer_units() -> dict:
    units = {name: "s" for name in SPAN_TIMES}
    units.update({name: "count" for name in SPAN_CALLS})
    units.update(COUNTS)
    units["charts.degree_hit_ratio"] = "ratio"
    units["pipeline.requested_share"] = "ratio"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"pipeline.stage.{stage}_s": "s" for stage in STAGES})
    units["trace.overhead_s"] = "s"
    units["trace.wrapped_calls"] = "count"
    return units


class BenchError(Exception):
    """The benchmark cannot run here (no program to run, or it cannot start)."""


# -- child processes ----------------------------------------------------------


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def _spawn(argv, tag):
    """Run one child to completion: wall s, CPU s, peak RSS MB, exit code, stdout, stderr."""
    out_path = OUT / f"stdout-{tag}-{os.getpid()}.txt"
    err_path = OUT / f"stderr-{tag}-{os.getpid()}.txt"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    out_path.unlink()
    err_path.unlink()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "rc": proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
    }


def _loop_time():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def _spawn_calibrated(argv, tag):
    """`_spawn`, with QUIET_LOOPS loop times in this process before and after it."""
    quiet = [_loop_time() for _ in range(QUIET_LOOPS)]
    child = _spawn(argv, tag)
    quiet += [_loop_time() for _ in range(QUIET_LOOPS)]
    child["quiet_loop_s"] = statistics.median(quiet)
    return child


def _loop_median(samples):
    """Median loop time of a worker's sampler readings (None without readings)."""
    return statistics.median(d for _, d in samples) if samples else None


def speed_scale(samples):
    """(time, factor) per sampler reading; factor = REF_LOOP_S / running median."""
    loop = [d for _, d in samples]
    half = SMOOTH // 2
    return [(t, REF_LOOP_S / statistics.median(loop[max(0, i - half):i + half + 1]))
            for i, (t, _) in enumerate(samples)]


def scale_between(scale, times, start, end):
    """Mean factor of the readings in [start, end], else of the nearest reading."""
    if not scale:
        return 1.0
    lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
    if lo < hi:
        return statistics.fmean(f for _, f in scale[lo:hi])
    near = min((i for i in (lo - 1, lo) if 0 <= i < len(scale)),
               key=lambda i: abs(times[i] - (start + end) / 2))
    return scale[near][1]


def measure_setup() -> tuple:
    """Seconds from spawning a fresh interpreter until `import ahilb` returns.

    Returns calibrated and raw samples.
    """
    code = "import time, ahilb; print(time.perf_counter(), ahilb.__file__)"
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        loops = [_loop_time() for _ in range(5)]
        start = time.perf_counter()
        out = subprocess.run([PY, "-c", code], cwd=ROOT, env=_env(), capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            raise BenchError(f"cannot import ahilb from {SRC}: {out.stderr.strip()[-400:]}")
        stamp, path = out.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"ahilb imported from {path}, not from {SRC}")
        loops += [_loop_time() for _ in range(5)]
        raw.append(float(stamp) - start)
        samples.append(raw[-1] * REF_LOOP_S / statistics.median(loops))
    return samples, raw


# -- one call of each workload ------------------------------------------------


def summary_problem(spec, stdout, checks):
    """What is wrong with the console summary `ahilb` printed for `spec`, or None.

    The first line must give the generator's counts; the check lines that
    follow must name exactly `checks`, each passing.
    """
    want = inputs.expected_counts(spec)
    head = (f"{spec}: |A|={want['order']} triangles={want['order']} "
            f"b2={want['junior']} b4={want['age2']}")
    lines = stdout.splitlines()
    if not lines or lines[0] != head:
        return f"summary {lines[:1]} != [{head!r}]"
    listed = {}
    for line in lines[1:]:
        name, _, status = line.strip().partition(" ")
        if name == "time":
            break
        listed[name] = status.strip()
    if listed != {name: "pass" for name in checks}:
        return f"summary checks {listed}, want {list(checks)} passing"
    return None


def cli_call(workload, spec, digests, traced):
    files = {}
    if workload == "compute-large":
        files = {k: OUT / f"{k}-{os.getpid()}.{ext}"
                 for k, ext in (("json", "json"), ("svg", "svg"), ("quiver", "svg"))}
        args = ["compute", spec, "--json", str(files["json"]), "--svg", str(files["svg"]),
                "--quiver-svg", str(files["quiver"])]
    else:
        args = ["check", spec, "--check", "fan"]
    trace_path = OUT / f"trace-{workload}.json"
    result_path = OUT / f"cli-result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    argv = [PY, str(HERE / "worker.py"), "cli", str(result_path),
            *([str(trace_path)] if traced else []), "--", *args]
    child = _spawn_calibrated(argv, workload)
    samples = []
    if result_path.is_file():
        samples = json.loads(result_path.read_text(encoding="utf-8"))["samples"]
        result_path.unlink()
    factor = statistics.fmean(f for _, f in speed_scale(samples)) if samples else 1.0
    problem = None
    if child["rc"] != 0:
        problem = f"exit code {child['rc']}: {child['stderr'].strip()[-400:]}"
    elif child["stderr"]:
        problem = f"unexpected stderr: {child['stderr'].strip()[-400:]}"
    else:
        problem = summary_problem(spec, child["stdout"], SUMMARY_CHECKS[workload])
    if problem is None and workload == "compute-large":
        digest = hashlib.sha256(files["json"].read_bytes()).hexdigest()
        if digests.get(spec) != digest:
            problem = f"JSON sha256 {digest} != recorded {digests.get(spec)}"
        elif not all(files[k].stat().st_size for k in ("svg", "quiver")):
            problem = "empty SVG output"
    for path in files.values():
        path.unlink(missing_ok=True)
    trace = None
    if traced and child["rc"] == 0:
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
    return {
        "wall_s": child["wall_s"] * factor,
        "cpu_s": child["cpu_s"] * factor,
        "raw_wall_s": child["wall_s"],
        "raw_cpu_s": child["cpu_s"],
        "worker_loop_s": _loop_median(samples),
        "quiet_loop_s": child["quiet_loop_s"],
        "rss_mb": child["rss_mb"],
        "group_s": [child["wall_s"] * factor],
        "attempted": 1,
        "failed": int(problem is not None),
        "problems": [problem] if problem else [],
        "trace": trace,
    }


def sweep_call(specs, traced):
    tag = os.getpid()
    specs_path = OUT / f"sweep-specs-{tag}.json"
    result_path = OUT / f"sweep-result-{tag}.json"
    specs_path.write_text(json.dumps(specs), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    argv = [PY, str(HERE / "worker.py"), "sweep", str(specs_path), str(result_path)]
    if traced:
        argv.append(str(OUT / "trace-sweep-small.json"))
    child = _spawn_calibrated(argv, "sweep")
    specs_path.unlink()
    if child["rc"] != 0 or not result_path.is_file():
        return {"wall_s": child["wall_s"], "cpu_s": child["cpu_s"], "raw_wall_s": child["wall_s"],
                "raw_cpu_s": child["cpu_s"], "worker_loop_s": None,
                "quiet_loop_s": child["quiet_loop_s"], "rss_mb": child["rss_mb"], "group_s": [],
                "attempted": len(specs), "failed": len(specs),
                "problems": [f"sweep worker exit code {child['rc']}: {child['stderr'][-400:]}"],
                "trace": None}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result_path.unlink()
    problems = []
    for spec, group in zip(specs, result["groups"]):
        want = inputs.expected_counts(spec)
        want = {"order": want["order"], "triangles": want["order"],
                "b2": want["junior"], "b4": want["age2"]}
        if not group["passed"] or group.get("counts") != want:
            problems.append(f"{spec}: passed={group['passed']} counts={group.get('counts')} "
                            f"want {want} {group.get('error', '')}")
    problems += [f"{spec}: not run" for spec in specs[len(result["groups"]):]]
    groups = result["groups"]
    scale = speed_scale(result["samples"])
    times = [t for t, _ in scale]
    factors = [scale_between(scale, times, g["start"], g["end"]) for g in groups]
    group_s = [(g["end"] - g["start"]) * f for g, f in zip(groups, factors)]
    return {
        "wall_s": sum(group_s),
        "cpu_s": sum(g["cpu_s"] * f for g, f in zip(groups, factors)),
        "raw_wall_s": sum(g["end"] - g["start"] for g in groups),
        "raw_cpu_s": sum(g["cpu_s"] for g in groups),
        "worker_loop_s": _loop_median(result["samples"]),
        "quiet_loop_s": child["quiet_loop_s"],
        "rss_mb": child["rss_mb"],
        "group_s": group_s,
        "attempted": len(specs),
        "failed": len(problems),
        "problems": problems,
        "trace": result.get("trace"),
    }


def call(workload, specs, digests, traced=False):
    if workload == "sweep-small":
        return sweep_call(specs, traced)
    return cli_call(workload, specs[0], digests, traced)


# -- metrics ------------------------------------------------------------------


def tail(values):
    """(percentile, value) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it; the maximum
    (p100) is reported instead.
    """
    v = sorted(values)
    if len(v) <= 10:
        return 100.0, v[-1]
    k = len(v) - 11
    return 100.0 * (k + 1) / len(v), v[k]


def end_to_end(calls, setup):
    walls = [c["wall_s"] for c in calls]
    group_ms = [1000.0 * s for c in calls for s in c["group_s"]] or [1000.0 * w for w in walls]
    samples = {
        "wall_s": walls,
        "cpu_s": [c["cpu_s"] for c in calls],
        "peak_rss_mb": [c["rss_mb"] for c in calls],
        "setup_s": setup,
        "group_p50_ms": group_ms,
    }
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    metrics["groups_per_s"] = len(group_ms) / sum(walls)
    pct, metrics["group_tail_ms"] = tail(group_ms)
    samples["group_tail_ms"] = group_ms
    notes = {name: f"median; p{tail(vals)[0]:.1f} {tail(vals)[1]:.6g}; n={len(vals)}"
             for name, vals in samples.items() if name != "group_tail_ms"}
    notes["group_tail_ms"] = f"p{pct:.1f} of n={len(group_ms)} groups"
    notes["groups_per_s"] = f"{len(group_ms)} groups in {sum(walls):.3f} s"
    return metrics, notes


def raw_medians(calls, raw_setup):
    """Uncalibrated medians, and the reference loop's in the worker and in this process."""
    worker = [c["worker_loop_s"] for c in calls if c["worker_loop_s"] is not None]
    raw = {
        "raw_wall_s": statistics.median(c["raw_wall_s"] for c in calls),
        "raw_cpu_s": statistics.median(c["raw_cpu_s"] for c in calls),
        "raw_setup_s": statistics.median(raw_setup),
        "worker_loop_ms": 1000.0 * statistics.median(worker) if worker else None,
        "quiet_loop_ms": 1000.0 * statistics.median(c["quiet_loop_s"] for c in calls),
    }
    if worker:
        raw["loop_ratio"] = raw["worker_loop_ms"] / raw["quiet_loop_ms"]
    return raw


def per_layer(trace, overhead):
    stats, counts, layer_self = trace["stats"], trace["counts"], trace["layer_self_s"]

    def total(span):
        return stats.get(span, {}).get("total_s", 0.0)

    def calls(span):
        return stats.get(span, {}).get("calls", 0)

    metrics = {name: total(span) for name, span in SPAN_TIMES.items()}
    metrics.update({name: calls(span) for name, span in SPAN_CALLS.items()})
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    degree_calls = calls("charts.degree_on_curve")
    metrics["charts.degree_hit_ratio"] = (
        counts.get("charts.degree_hits", 0) / degree_calls if degree_calls else 0.0
    )
    run_s = total("pipeline.run")
    metrics["pipeline.requested_share"] = (
        counts.get("pipeline.requested_stage_s", 0.0) / run_s if run_s else 0.0
    )
    metrics.update({f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS})
    metrics.update({f"pipeline.stage.{stage}_s": counts.get(f"pipeline.stage.{stage}_s", 0.0)
                    for stage in STAGES})
    metrics["trace.overhead_s"] = overhead
    metrics["trace.wrapped_calls"] = sum(s["calls"] for s in stats.values())
    return metrics


# -- the run --------------------------------------------------------------------


def environment():
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if out.returncode == 0:
            sha = out.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "ahilb").glob("*.py")))
    return {"git_sha": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "src_lines": src_lines}


def run(workload, seed, seconds, trace):
    if not (SRC / "ahilb" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'ahilb'} is missing")
    OUT.mkdir(exist_ok=True)
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        digests = json.load(fh)
    specs = inputs.specs_for(workload, seed)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    setup, raw_setup = measure_setup()

    if trace:
        plain = call(workload, specs, digests)
        traced = call(workload, specs, digests, traced=True)
        calls = [plain, traced]
        if traced["trace"] is None:
            raise BenchError("the traced call wrote no trace: " + "; ".join(traced["problems"]))
        metrics = per_layer(traced["trace"], traced["wall_s"] - plain["wall_s"])
        units = per_layer_units()
        notes = {"trace.overhead_s": f"traced {traced['wall_s']:.4f} s - untraced "
                                     f"{plain['wall_s']:.4f} s (calibrated)"}
    else:
        calls = []
        start = time.perf_counter()
        while True:
            calls.append(call(workload, specs, digests))
            elapsed = time.perf_counter() - start
            if len(calls) >= MIN_CALLS[workload] and elapsed + calls[-1]["raw_wall_s"] > seconds:
                break
        metrics, notes = end_to_end(calls, setup)
        units = END_TO_END

    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    problems = [p for c in calls for p in c["problems"]]
    env = environment()
    label = specs[0] if len(specs) == 1 else f"{len(specs)} groups, {specs[0]} .. {specs[-1]}"
    print(f"perfbench {workload} seed={seed} trace={trace}: {label}")
    print(f"  why: {inputs.WORKLOADS[workload]}")
    print(f"  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  calls={len(calls)} attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6g}")
    for p in problems[:10]:
        print(f"  FAILED {p}")
    for name in units:
        print(f"  {name:32s} {metrics[name]:>14.6f} {units[name]:6s} {notes.get(name, '')}")
    raw = raw_medians(calls, raw_setup)
    print(f"  raw: {json.dumps(raw)}")

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "attempted": attempted, "failed": failed, "metrics": metrics, "raw": raw,
              "call_wall_s": [c["wall_s"] for c in calls],
              "call_raw_wall_s": [c["raw_wall_s"] for c in calls],
              "notes": notes, "problems": problems}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
