"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to one input of its first class per round."""
    for entry in workloads.WORKLOADS.values():
        label, _, maker = entry["classes"]()[0]
        monkeypatch.setitem(entry, "classes", lambda label=label, maker=maker: [(label, 1, maker)])


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


def test_per_layer_metrics_match_spec():
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert listed == spans.metric_units()


def test_same_seed_same_inputs():
    for name in NAMES:
        assert workloads.make_round(name, 7, 0) == workloads.make_round(name, 7, 0)
        assert workloads.make_round(name, 7, 0) != workloads.make_round(name, 8, 0)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_metric(workload, trace, tiny, capsys):
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", NAMES)
def test_traced_output_is_byte_identical(workload, tiny, tmp_path):
    runner = run.Runner(run._import_library(), workload, 0, tmp_path)
    tracer = spans.Tracer()
    rnd = runner.run_round(runner.round(0), tracer)
    assert [r.rc for r in rnd.requests] == [0] * len(rnd.requests)
    assert [r.out for r in rnd.traced] == [r.out for r in rnd.requests]
    total = sum(s[2] - s[1] for s in tracer.spans if s[0] == spans.REQUEST)
    assert sum(tracer.self_times()) == pytest.approx(total)
    # the wrappers are gone once the request returns
    assert all(getattr(mod, attr) is original for mod, attr, original, _ in tracer._bindings())


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
