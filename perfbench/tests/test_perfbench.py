"""Tests of the benchmark itself: conv classification, the MAC cross-check,
and reduced-size runs of every workload.

Run from the root of the repository: ``python3 -m pytest -q perfbench/tests``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from vidconv import analysis, model, tensor  # noqa: E402

from perfbench import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _conv_calls(monkeypatch, variant, size):
    """Geometry of every forward conv2d call, with the convs themselves faked."""
    calls = []

    def fake_conv2d(x, weight, bias, spec):
        calls.append((x.shape, weight.shape, spec))
        out = (x.shape[0], weight.shape[0], spec.out_extent(x.shape[2], 0),
               spec.out_extent(x.shape[3], 1))
        return tensor.Tensor(np.zeros(out, dtype=np.float32))

    monkeypatch.setattr(tensor, "conv2d", fake_conv2d)
    m = model.build_model(model.make_config(variant, input_size=size), 0)
    m.forward(np.zeros((m.config.frames, 3) + size, dtype=np.float32), training=False)
    return calls


@pytest.mark.parametrize("variant,size", [("toy", (64, 64)), ("toy", (32, 32)),
                                          ("tiny", (224, 224)), ("tiny", (96, 96)),
                                          ("tiny", (32, 32))])
def test_every_model_conv_is_in_exactly_one_family(monkeypatch, variant, size):
    calls = _conv_calls(monkeypatch, variant, size)
    for call in calls:
        assert len(tracer.conv_family_matches(*call)) == 1, call
    families = [tracer.classify_conv(*call) for call in calls]
    assert set(families) == set(tracer.CONV_FAMILIES)
    cfg = model.make_config(variant)
    assert families.count("conv_dw") == sum(cfg.blocks)
    assert families.count("conv_pw") == 2 * sum(cfg.blocks)
    assert families.count("conv_patchify") == 4
    assert families.count("conv_neck") == 1


def test_unknown_conv_raises_instead_of_binning():
    spec = tensor.ConvSpec(kernel=(3, 3), padding=(1, 1))
    with pytest.raises(tracer.UnclassifiedConv):
        tracer.classify_conv((1, 4, 8, 8), (4, 4, 3, 3), spec)
    tr = tracer.Tracer().install()
    try:
        x = tensor.Tensor(np.ones((1, 4, 8, 8), dtype=np.float32))
        w = tensor.Tensor(np.ones((4, 4, 3, 3), dtype=np.float32))
        with pytest.raises(tracer.UnclassifiedConv):
            tensor.conv2d(x, w, None, spec)
    finally:
        tr.uninstall()
    assert tr.groups["conv_dw"].calls == 0


def _traced_toy_forward():
    m = model.build_model(model.make_config("toy", input_size=(64, 64)), 0)
    clip = np.random.default_rng(0).standard_normal((18, 3, 64, 64), dtype=np.float32)
    tr = tracer.Tracer().install()
    try:
        m.forward(tensor.Tensor(clip), training=False)
    finally:
        tr.uninstall()
    return tr


def test_mac_cross_check_passes_on_the_model():
    tr = _traced_toy_forward()
    assert tr.mac_mismatch() is None
    per_view = analysis.count_flops(model.make_config("toy", input_size=(64, 64))).flops_per_view
    assert tr.macs_seen == 2 * per_view


def test_mac_cross_check_catches_a_plan_that_drifted(monkeypatch):
    plan = analysis.plan_layers
    monkeypatch.setattr(analysis, "plan_layers", lambda *a, **k: plan(*a, **k)[:-1])  # no head
    assert "count_flops" in _traced_toy_forward().mac_mismatch()


def _run(cwd, workload, trace, seconds="1"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", seconds, "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["trace.overhead_ratio"] > 0
        on_eval = workload == "tiny-eval-224"
        assert (metrics["training.adamw_step.ms"] == 0) == on_eval
        assert all((metrics[f"data.{f}.ms"] == 0) == (workload != "toy-train")
                   for f in ("generate_video", "sample_clip", "augment_clip"))
    else:
        assert all(v > 0 for v in metrics.values())
    record = json.loads((BENCH / "out" / f"BENCH_{workload}_trace{trace}.json").read_text())
    env = record["environment"]
    assert {"cpu_model", "nproc", "python", "numpy", "blas", "blas_threads",
            "git_commit", "seed"} <= set(env)
    assert env["seed"] == 1


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_metric_links_name_declared_metrics():
    links = json.loads((BENCH / "links.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for link in links["links"]:
        assert link["per_layer"] in per_layer
        assert link["end_to_end"] in end_to_end
        assert link["workload"] in WORKLOADS
    for metric, per_workload in links["aliases"].items():
        assert metric in end_to_end and set(per_workload) == set(WORKLOADS)


def test_reference_check_tolerates_reordered_sums_only():
    from perfbench.workloads import REFERENCE_RTOL, reference_mismatch

    ref = {"first_step_loss": 2.0, "logits": [0.5, -1.0, 0.25]}
    close = {"first_step_loss": 2.0 * (1 + REFERENCE_RTOL / 10), "logits": [0.5001, -1.0, 0.25]}
    assert reference_mismatch(close, ref) is None
    assert "first_step_loss" in reference_mismatch(dict(close, first_step_loss=2.1), ref)
    assert "logits" in reference_mismatch(dict(close, logits=[0.5, -0.9, 0.25]), ref)
