"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from harness import END_TO_END, PER_LAYER, Clock, probe_readings, run_workload  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import WORKLOADS, InferWide, SampleBig, top1_mismatches  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, trace, tmp_path):
    report, result = run_workload(name, seed=1, seconds=0, trace=trace, size="tiny",
                                  workdir=str(tmp_path))
    assert report["check_failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    written = os.listdir(tmp_path)
    if trace:
        share = report["trace"]["self_time_share"]
        assert sum(share.values()) == pytest.approx(1.0)
        with open(report["spans_file"]) as fh:
            spans = [json.loads(line) for line in fh]
        assert written == [os.path.basename(report["spans_file"])]
        ops = [s for s in spans if s["name"] == "op"]
        assert len(ops) == report["trace"]["traced_ops"]
        assert all(s["parent"] is not None for s in spans if s["name"] != "op")
    else:
        assert written == []


def test_train_attr_reports_the_train_bilinear_probe(tmp_path):
    report, _ = run_workload("train-attr", seed=1, seconds=0, trace=False, size="tiny",
                             workdir=str(tmp_path))
    probe = report["train_bilinear_probe"]
    assert probe.startswith("error: ") or probe in ("matches loop", "differs from loop")
    assert 0.0 <= report["unseen_top1"] <= 1.0


def test_an_op_that_raises_is_counted_and_recorded(tmp_path, monkeypatch):
    def broken(self, traced, tick):
        raise RuntimeError("boom")

    monkeypatch.setattr(SampleBig, "op", broken)
    report, result = run_workload("sample-big", seed=1, seconds=0, trace=False, size="tiny",
                                  workdir=str(tmp_path))
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert report["op_errors"] == ["op 1: RuntimeError: boom"]
    assert not result["correct"] and result["metrics"] == {}


def test_infer_wide_reference_rejects_a_permuted_ranking(tmp_path):
    w = InferWide(seed=1, size="tiny", tracer=None, workdir=str(tmp_path))
    _, (reps, top1, result) = w.op(False, lambda: None)
    assert w.check((reps, top1, result), False) == []
    thetas = np.stack([x for x, _ in w.pairs])
    assert top1_mismatches(thetas, top1, w.model.head, reps) == []
    # move every prediction one candidate along: no longer the argmax
    ids = sorted(reps)
    shifted = [ids[(ids.index(p) + 1) % len(ids)] for p in top1]
    bad = top1_mismatches(thetas, shifted, w.model.head, reps)
    assert len(bad) == len(top1)
    assert w.check((reps, shifted, result), False)


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        Span("op", 0.0, 10.0, None, 1),
        Span("aggregators", 1.0, 5.0, 0, 1),
        Span("sampler", 2.0, 3.0, 1, 1),
        Span("sampler", 3.5, 4.0, 1, 1),
        Span("autodiff.backward", 6.0, 9.0, 0, 1),
        Span("op", 20.0, 22.0, None, 2),
        Span("sampler", 20.5, 21.0, 5, 2),
    ]
    own = self_times(spans)
    assert own["op"] == pytest.approx((10.0 - 4.0 - 3.0) + (2.0 - 0.5))
    assert own["aggregators"] == pytest.approx(4.0 - 1.5)
    assert own["sampler"] == pytest.approx(1.0 + 0.5 + 0.5)
    assert own["autodiff.backward"] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(12.0)


def test_clock_rescales_each_stretch_by_the_probes_around_it():
    ref = Clock.REFERENCE_S
    # the probe at index 3 is a hiccup and reads as its neighbours do
    readings = probe_readings([ref, ref, 2 * ref, 9 * ref, 2 * ref, 2 * ref])
    assert readings == pytest.approx([ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref])
    clock = Clock()
    clock.readings = readings
    assert clock.rescale([(1.0, 0)]) == pytest.approx(1.0)
    # stretch 1 runs between a fast and a slow probe, stretch 3 on a slow machine
    assert clock.rescale([(1.5, 1), (2.0, 3)]) == pytest.approx(1.0 + 1.0)


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
