"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` (about 30 s)."""

import json
from pathlib import Path

import pytest

import run
import workloads as wl

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_inputs_repeat_for_a_seed_and_change_with_it():
    for workload in ("protocol-cli", "run-reuse"):
        assert wl.protocol_inputs(workload, 7) == wl.protocol_inputs(workload, 7)
        assert wl.protocol_inputs(workload, 7) != wl.protocol_inputs(workload, 8)
    assert wl.sweep_ranges(7) == wl.sweep_ranges(7) != wl.sweep_ranges(8)
    order, again = wl.op_order("protocol-cli", 7, 12), wl.op_order("protocol-cli", 7, 12)
    first = [next(order) for _ in range(24)]
    assert first == [next(again) for _ in range(24)]
    assert sorted(first[:12]) == list(range(12))  # each round visits every input


def test_committed_references_pass_the_closed_forms():
    refs = json.loads(run.REFERENCE.read_text())
    for workload in ("protocol-cli", "run-reuse"):
        inputs = wl.protocol_inputs(workload, wl.DEFAULT_SEED)
        assert sorted(refs[workload]) == sorted(wl.input_key(i) for i in inputs)
        for inp in inputs:
            assert wl.check_protocol_output(refs[workload][wl.input_key(inp)], inp) is None
    sweep = refs["sweep-grid"]
    assert list(sweep) == [wl.sweep_key(wl.DEFAULT_SEED)]
    assert wl.check_sweep_output(sweep[wl.sweep_key(wl.DEFAULT_SEED)]) is None


def test_closed_form_checks_reject_a_wrong_fidelity():
    inp = wl.protocol_inputs("protocol-cli", 0)[0]
    good = json.loads(json.loads(run.REFERENCE.read_text())["protocol-cli"][wl.input_key(inp)])
    bad = dict(good, fidelity=good["fidelity"] - 0.01)
    assert wl.check_protocol_output(json.dumps(bad), inp) is not None


def test_benchmark_json_names_what_the_driver_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("n, value, percentile, windows", [
    (5, 5.0, 100.0, 1),            # fewer than 11 samples: the maximum
    (24, 14.0, 100 * 14 / 24, 1),  # the 11th largest keeps ten beyond it
    (1000, 190.0, 95.0, 5),        # windows of 200: the median window tail
])
def test_tail_keeps_ten_samples_beyond_it(n, value, percentile, windows):
    samples = [float(i % 200 + 1) if n == 1000 else float(i + 1) for i in range(n)]
    assert run.op_tail(samples) == (value, pytest.approx(percentile), windows)


def _exact(trace):
    metrics = trace.metrics()
    return {name: metrics[name] for name in run.EXACT_COUNTS}


def test_exact_counts_repeat_between_traced_runs():
    env = run.child_env()
    _, refs = run.prepare(["protocol-cli", "run-reuse"], wl.DEFAULT_SEED, env)
    inputs = [i for i in wl.protocol_inputs("protocol-cli", wl.DEFAULT_SEED)
              if (i["protocol"], i["engine"]) in {("bell", "effective"), ("sixdim", "full")}]
    passes = []
    for _ in range(2):
        counts = {}
        tally, trace = run.trace_protocol_cli(wl.DEFAULT_SEED, env, refs["protocol-cli"], inputs)
        assert tally.failed == 0, tally.errors
        counts["protocol-cli"] = _exact(trace)
        tally, trace = run.trace_sweep_grid(wl.DEFAULT_SEED, env, {}, counts=(2, 2))
        assert tally.failed == 0, tally.errors
        counts["sweep-grid"] = _exact(trace)
        tally, trace = run.trace_run_reuse(wl.DEFAULT_SEED, env, refs["run-reuse"], rounds=1)
        assert tally.failed == 0, tally.errors
        counts["run-reuse"] = _exact(trace)
        passes.append(counts)
    assert passes[0] == passes[1]
    assert passes[0]["sweep-grid"]["model.build_hamiltonian.calls"] > 0
    assert passes[0]["run-reuse"]["linalg.eig_calls"] > 0
