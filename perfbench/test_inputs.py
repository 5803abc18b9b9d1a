"""Tests of the benchmark's own inputs, output check, calibration and metric table.

    python3 -m pytest perfbench/test_inputs.py
"""

import gc
import json
import tracemalloc
from pathlib import Path

import inputs
import run
import worker

HERE = Path(__file__).resolve().parent


def test_same_seed_same_specs():
    for workload in inputs.WORKLOADS:
        for seed in (0, 1, 17):
            assert inputs.specs_for(workload, seed) == inputs.specs_for(workload, seed)


def test_seed_varies_specs():
    assert inputs.sweep_small_specs(1) != inputs.sweep_small_specs(2)
    assert len({inputs.compute_large_spec(s) for s in range(20)}) > 1


def test_default_seed_is_the_ladder_spec():
    assert inputs.compute_large_spec(0) == "1/401(1,7,393)"


def test_sweep_family_is_exhaustive_up_to_symmetry():
    specs = inputs.sweep_small_specs(0)
    assert len(inputs.cyclic_family_up_to(30)) == 553
    assert len(specs) == 553 + inputs.SWEEP_RANDOM_CYCLIC + inputs.SWEEP_PRODUCTS
    assert len(set(specs)) == len(specs)


def test_expected_counts_of_the_worked_examples():
    assert inputs.expected_counts("1/11(1,2,8)") == {"order": 11, "junior": 5, "age2": 5}
    assert inputs.expected_counts("1/30(25,2,3)") == {"order": 30, "junior": 18, "age2": 11}
    assert inputs.expected_counts("1/3(1,2,0);1/3(0,1,2)")["order"] == 9


def test_every_compute_large_spec_has_a_digest():
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    for seed in range(len(inputs.COMPUTE_LARGE_B)):
        assert inputs.compute_large_spec(seed) in digests


def test_metric_table_matches_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in bench["workloads"]} == set(inputs.WORKLOADS)


def test_tail_has_ten_samples_beyond():
    values = list(range(100))
    pct, value = run.tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0
    assert run.tail([3, 1, 2]) == (100.0, 3)


def test_calibration_scales_by_the_sampled_speed():
    slow = [(float(t), 2 * run.REF_LOOP_S) for t in range(10)]
    scale = run.speed_scale(slow)
    assert all(f == 0.5 for _, f in scale)
    times = [t for t, _ in scale]
    assert run.scale_between(scale, times, 2.0, 5.0) == 0.5
    assert run.scale_between(scale, times, 2.2, 2.4) == 0.5  # no reading inside: nearest
    assert run.scale_between([], [], 0.0, 1.0) == 1.0


def test_reference_loop_allocates_nothing():
    worker.reference_loop()
    gc_before = gc.get_count()
    tracemalloc.start()
    try:
        worker.reference_loop()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak == 0
    assert gc.get_count() == gc_before


def test_summary_check_reads_the_generators_counts():
    spec = "1/11(1,2,8)"
    good = f"{spec}: |A|=11 triangles=11 b2=5 b4=5\n  euler         pass\n  time 0.1s\n"
    assert run.summary_problem(spec, good, ("euler",)) is None
    assert run.summary_problem(spec, good.replace("b4=5", "b4=4"), ("euler",))
    assert run.summary_problem(spec, good.replace("pass", "fail"), ("euler",))
    assert run.summary_problem(spec, good, ("euler", "basic"))
    assert run.summary_problem(spec, "", ("euler",))
