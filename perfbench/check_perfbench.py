"""Tests of the benchmark itself (about three minutes; not part of the
package's test suite):

    python3 -m pytest -q perfbench/check_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
from workloads import CLI_DATA_RECORDS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _generated(name: str, seed: int, work: Path) -> dict[str, bytes]:
    work.mkdir()
    workload = WORKLOADS[name]()
    workload.prepare(ROOT, work, seed)
    for round_index in range(2):
        workload.invocations(round_index)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = _generated(name, 11, tmp_path / "a")
    assert first
    assert _generated(name, 11, tmp_path / "b") == first
    other = _generated(name, 12, tmp_path / "c")
    assert other.keys() == first.keys() and other != first


def test_cli_data_has_the_same_record_count_on_every_seed(tmp_path):
    for seed in (11, 12, 13):
        workload = WORKLOADS["cli-data"]()
        workload.prepare(ROOT, tmp_path, seed)
        assert workload.work_counters(0)["records"] == CLI_DATA_RECORDS


def test_bias_check_pools_the_rounds():
    workload = WORKLOADS["sim-ar-heavy"]()

    def umvue_cell(bias):
        return [{"estimator": "umvue_gamma", "n": 1, "replications": 100, "bias": bias, "se_bias": 0.1}]

    assert workload.check_run() == ["no simulate table passed its checks"]
    workload.cells = {1: umvue_cell(0.3), 2: umvue_cell(-0.3)}
    assert workload.check_run() == []
    # each round alone is within 4 se (0.4); pooled, 0.3 exceeds 4 x 0.0707
    workload.cells = {1: umvue_cell(0.3), 2: umvue_cell(0.3)}
    assert len(workload.check_run()) == 1


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_reported_with_its_unit(name, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--seed", "5",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for key, entry in result["metrics"].items():
        value = entry["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), key
        assert math.isfinite(value), key
    if trace and name.startswith("sim-"):
        replications = WORKLOADS[name]().replications
        assert result["metrics"]["streams.replicate_stream.calls"]["value"] == replications


def test_tracer_rebinds_imported_names_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    from recsel import montecarlo, stationarity, streams

    originals = (streams.replicate_stream, montecarlo.replicate_stream,
                 stationarity.substream, montecarlo.ThetaStream.take)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert montecarlo.replicate_stream is streams.replicate_stream
        assert montecarlo.replicate_stream is not originals[0]
        montecarlo.replicate_stream(1, 2)
    finally:
        assert tracer.restore() == []
    assert (streams.replicate_stream, montecarlo.replicate_stream,
            stationarity.substream, montecarlo.ThetaStream.take) == originals
    summary = spans.Summary(tracer.spans)
    assert summary.calls["streams.replicate_stream"] == 1
    assert summary.calls["streams.substream"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sim-geo-short",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
