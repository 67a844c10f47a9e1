"""The benchmark's own tests: every workload in a tiny configuration, the
result-line contract, and that bad answers count as failed attempts.

    python -m pytest repobench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import Tally, euc2d_length, import_repro, tour_defect  # noqa: E402

import_repro()
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(BENCH.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), m["name"]
    details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
    assert {"nproc", "python", "numpy", "backend", "workload_seed"} <= set(details["host"])
    if trace:
        assert abs(result["metrics"]["core.accounted_ratio"]["value"] - 1.0) <= 0.1


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "solve-a280", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tour_defects():
    coords = [[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]
    assert tour_defect([0, 1, 2, 0], coords, 12) is None
    assert tour_defect([0, 1, 1, 0], coords, 6) == "not-hamiltonian"
    assert tour_defect([0, 1, 2], coords, 12) == "not-closed"
    assert tour_defect([0, 1, 2, 0], coords, 11) == "length-mismatch"


def test_injected_invalid_tour_is_a_failed_attempt():
    import serve

    spec = serve.pack_spec(__import__("random").Random(0), 1, 0, "t")
    n = len(spec.coords)
    good = list(range(n)) + [0]
    bad = [0] + list(range(n - 1)) + [0]  # city 0 twice, city n - 1 never
    tally = Tally()
    for tour in (good, bad):
        rec = serve.Rec(spec, due=0.0)
        rec.reply = {"type": "result", "best_tour": tour, "early": None,
                     "best_length": euc2d_length(tour, spec.coords),
                     "iterations_run": spec.obj["iterations"]}
        serve.grade(rec, tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 1, 1)
    assert tally.reasons == {"not-hamiltonian": 1}


def test_only_the_documented_defect_is_known():
    import serve

    edge = next(s for s in serve.make_specs(serve.MIXED, 1, 40, "t")
                if s.stratum == "edge:rho=1.0")
    n = len(edge.coords)
    repeated = [0] + list(range(n - 1)) + [0]
    replies = [
        ({"type": "result", "best_tour": repeated, "early": None,
          "best_length": euc2d_length(repeated, edge.coords)}, "known:not-hamiltonian"),
        (None, "no-reply"),
        ({"type": "error", "error": "ServeError",
          "message": "batch execution failed: ValueError('x')"}, "error:ServeError:ValueError"),
    ]
    tally = Tally()
    for reply, _ in replies:
        rec = serve.Rec(edge, due=0.0)
        rec.reply = reply
        serve.grade(rec, tally)
    assert (tally.attempted, tally.failed, tally.unexpected) == (3, 3, 2)
    assert set(tally.reasons) == {reason for _, reason in replies}


def test_wrappers_are_removed_and_do_not_change_results():
    from repro import ACOParams, BatchEngine, uniform_instance
    from spans import SpanRecorder, run_traced, same_run

    inst = uniform_instance(20, seed=1)
    plain = BatchEngine(inst, ACOParams(seed=4)).run(5)
    engine = BatchEngine(inst, ACOParams(seed=4))
    recorder = SpanRecorder()
    traced, drawn = run_traced(engine, recorder, "t", iterations=5)
    assert same_run(plain, traced)
    assert drawn > 0
    assert "build_batch" not in vars(engine.construction)
    assert "uniform_block" not in vars(engine.rng)
    names = {s["name"] for s in recorder.to_json()}
    assert {"construct", "choice", "construction", "rng", "update"} <= names
