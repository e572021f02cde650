"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q

They run the benchmark's smoke mode (tiny configs, two jobs per
workload), so they check metric names and units against BENCHMARK.json,
the output gate, and that a traced run yields spans for every module.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(bench.WORKLOADS)
    assert _units("end_to_end") == bench.END_TO_END_UNITS


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_untraced_smoke_reports_end_to_end_metrics(name, tmp_path):
    result = bench.run_workload(name, seed=3, seconds=1, trace=False,
                                smoke=True, work=tmp_path)
    assert result.correct and len(result.jobs) == 2
    assert {k: u for k, (_, u) in result.metrics.items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in result.metrics.values())
    wl = bench.WORKLOADS[name]
    assert ("reload_s" in result.extras) == (wl.command == "invert")
    assert ("psnr_db" in result.extras) == (wl.command != "invert")
    assert result.env["seed"] == 3 and result.env["child_env"]["OMP_NUM_THREADS"] == "1"
    assert not (tmp_path / "job").exists()


def test_traced_smoke_spans_every_module(tmp_path):
    dumps = []
    for name in ("edit_attr", "invert_dump"):
        result = bench.run_workload(name, seed=4, seconds=1, trace=True,
                                    smoke=True, work=tmp_path)
        assert result.correct
        assert {k: u for k, (_, u) in result.metrics.items()} == _units("per_layer")
        traced = [j for j in result.jobs if j.traced]
        assert len(traced) == 1
        dumps += traced[0].dumps
    modules = {s[1].split(".", 1)[0] for d in dumps for s in d["spans"]}
    assert set(tracer.MODULES) <= modules


def test_pool_branch_is_a_child_of_run_denoise(tmp_path):
    result = bench.run_workload("edit_attr", seed=5, seconds=1, trace=True,
                                smoke=True, work=tmp_path)
    [job] = [j for j in result.jobs if j.traced]
    spans = job.dumps[0]["spans"]
    rd = {s[0] for s in spans if s[1] == "pipeline.run_denoise"}
    pooled = [s for s in spans
              if s[1] == "model.denoiser_forward" and s[5] != "MainThread"]
    assert pooled and all(s[4] in rd for s in pooled)


class _ModuleLauncher(bench.Bench):
    """Launches `python -m attnfuse.cli`, as a user might."""

    def job_argv(self, sidecar, traced):
        return [sys.executable, "-m", "attnfuse.cli"]


def test_gate_fails_a_job_that_exits_zero_and_writes_nothing(tmp_path):
    b = _ModuleLauncher(bench.WORKLOADS["edit_attr"], 3, True, tmp_path)
    job = b.run_job(traced=False)
    assert job.returncode == 0
    assert job.failures and "missing outputs" in job.failures[0]


def test_gate_fails_outputs_that_differ_from_the_first_job(tmp_path):
    b = bench.Bench(bench.WORKLOADS["reconstruct_fine"], 3, True, tmp_path)
    b.first_digest = "0" * 64
    job = b.run_job(traced=False)
    assert job.failures == ["outputs differ from the run's first job"]


def test_fidelity_floor_catches_a_poor_reconstruction(tmp_path):
    b = bench.Bench(bench.WORKLOADS["reconstruct_fine"], 3, True, tmp_path)
    noisy = np.clip(b.reference + 40.0, 0, 255)
    psnr, _ = bench.fidelity(noisy, b.reference)
    assert psnr < bench.WORKLOADS["reconstruct_fine"].psnr_floor_db
    assert bench.fidelity(b.reference, b.reference) == (bench.PSNR_CAP_DB, 0.0)


def test_seed_draws_the_input_and_the_config_fixes_the_weights(tmp_path):
    from attnfuse.cli import parse_config
    wl = bench.WORKLOADS["reconstruct_fine"]
    a, b = (bench.Bench(wl, seed, True, tmp_path / str(seed)) for seed in (1, 2))
    assert not np.array_equal(a.reference, b.reference)
    rc = parse_config(a.config)
    assert rc.video_dir == tmp_path / "1" / "input" / "frames"
    assert rc.model == a.rc.model == b.rc.model


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "edit_attr", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_aggregate_keeps_span_ids_of_each_process_apart():
    job = {"spans": [[1, "model.denoiser_forward", 0.0, 4.0, None, "MainThread"],
                     [2, "model.attend", 1.0, 3.0, 1, "MainThread"]],
           "counters": {}}
    reload = {"spans": [[1, "model.denoiser_forward", 0.0, 4.0, None, "MainThread"],
                        [2, "numerics.softmax_lastdim", 0.5, 1.0, 1, "MainThread"]],
              "counters": {}}
    m = tracer.aggregate([job, reload], traced_job_s=5.0)
    assert m["model.denoiser_forward.self_s"] == 2.0 + 3.5
    assert m["model.attend.self_s"] == 2.0
    assert m["trace.coverage"] == 4.0 / 5.0
