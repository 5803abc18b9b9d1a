"""Child process of the benchmark: one sweep pass or one CLI call.

    python3 perfbench/worker.py sweep SPECS_JSON RESULT_JSON [TRACE_JSON]
    python3 perfbench/worker.py cli RESULT_JSON [TRACE_JSON] -- ahilb-arguments...

`sweep` calls `run_pipeline` on every spec in order and writes per-group
start, end, CPU time, pass/fail and report counts.  `cli` runs
`ahilb.cli.main` on the arguments, exactly as `python -m ahilb.cli` would,
and exits with its code.

In both modes a `SpeedSampler` thread times `reference_loop` on this
process's CPU about twenty times a second and writes the samples to
RESULT_JSON; the harness scales measured times by them (see `run.py`).
With TRACE_JSON the tracer is installed before the first call and its spans
are written when the work ends.  `ahilb` must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import sys
import threading
import time

SAMPLE_PERIOD_S = 0.05


def reference_loop():
    """Fixed pure-Python work of about 0.25 ms that allocates nothing.

    Integer arithmetic on locals whose values all stay below 256, so CPython
    uses its cached small ints and no object is made: the loop can neither
    start a garbage collection nor touch the allocator, and its speed does
    not follow the heap of the process it runs in.
    """
    x = 0
    a = 0
    while a < 64:
        b = 0
        while b < 64:
            x = (x + a ^ b) & 127
            b += 1
        a += 1
    return x


class SpeedSampler(threading.Thread):
    """Times `reference_loop` every SAMPLE_PERIOD_S seconds.

    The thread shares the interpreter lock and, with the process pinned to
    one CPU, the CPU of the work it samples, so each sample reads how fast
    that CPU runs Python right then.  The loop takes about 0.5% of the time.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []  # (end of the sample on the perf_counter clock, seconds)
        self._done = threading.Event()

    def run(self):
        while not self._done.wait(SAMPLE_PERIOD_S):
            start = time.perf_counter()
            reference_loop()
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def stop(self):
        self._done.set()
        self.join()
        return self.samples


def _tracer(trace_path):
    if not trace_path:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _write(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def sweep(specs_path, result_path, trace_path=None):
    import ahilb.pipeline

    with open(specs_path, encoding="utf-8") as fh:
        specs = json.load(fh)
    tracer = _tracer(trace_path)
    sampler = SpeedSampler()
    sampler.start()
    groups = []
    for i, spec in enumerate(specs):
        if tracer:
            tracer.run_id = i
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            art = ahilb.pipeline.run_pipeline(spec)
        except Exception as exc:  # recorded as a failed group; the sweep goes on
            group = {"passed": False, "error": repr(exc)}
        else:
            c = art.report.counts
            group = {"passed": art.report.passed,
                     "counts": {k: c.get(k) for k in ("order", "triangles", "b2", "b4")}}
        group["end"] = time.perf_counter()
        group["start"] = start
        group["cpu_s"] = time.process_time() - cpu
        groups.append(group)
    result = {"groups": groups, "samples": sampler.stop()}
    if tracer:
        result["trace"] = tracer.summary()
        tracer.dump(trace_path)
    _write(result_path, result)
    return 0


def cli(result_path, trace_path, argv):
    import ahilb.cli

    tracer = _tracer(trace_path)
    if tracer:
        tracer.run_id = "cli"
    sampler = SpeedSampler()
    sampler.start()
    try:
        rc = ahilb.cli.main(argv)
    finally:
        _write(result_path, {"samples": sampler.stop()})
    if tracer:
        tracer.dump(trace_path)
    return rc


def main(argv):
    if len(argv) >= 3 and argv[0] == "sweep":
        return sweep(*argv[1:4])
    if "--" in argv and argv[0] == "cli" and argv.index("--") in (2, 3):
        sep = argv.index("--")
        return cli(argv[1], argv[2] if sep == 3 else None, argv[sep + 1:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
