"""``solve-a280``: the library path, one colony at a time to a fixed target.

A :class:`repro.BatchEngine` with B=1, default AS and construction v8,
``report_every=1``, runs each colony seed of a fixed set until its best
tour is at or below :data:`TARGET`.  The colony seeds fix the iterations
each run needs, so only the engine's speed moves the timings; the
workload seed only shuffles the order the seeds run in.
"""

from __future__ import annotations

import math
import random
import time

from common import (
    Tally,
    cli_import_seconds,
    median,
    python_child,
    self_peak_rss_mb,
    tail_p95,
    tour_defect,
)
from spans import SpanRecorder, core_layers, run_traced, same_run

INSTANCE = "a280"
#: tour length every colony seed reaches within :data:`MAX_ITERATIONS`
TARGET = 31000
MAX_ITERATIONS = 60
#: colony seeds; a run uses the first ``seconds // 2`` of them (at least
#: 1), a traced run, which runs each seed twice, half as many
COLONY_SEEDS = tuple(range(1, 31))

#: per-layer metrics of the layers this workload leaves idle: no request,
#: router or load generator runs, so each did no work and reads 0
IDLE_LAYERS = dict.fromkeys((
    "serve.queue_wait_p50_s", "serve.queue_wait_p95_s", "serve.batch_wall_p50_s",
    "serve.colony_iters_per_s", "serve.pack_ratio", "serve.flush_full_share",
    "serve.retried_rows", "serve.bisections", "serve.shed", "serve.wasted_ratio",
    "serve.decode_ms_per_req", "shard.requests_routed", "shard.spillovers",
    "shard.balance", "shard.overhead_p50_s", "loadgen.lag_p95_s",
), 0.0)

_COLD_START = (
    "from repro import BatchEngine, ACOParams, load_instance\n"
    f"inst = load_instance({INSTANCE!r}, use_cache=False)\n"
    "BatchEngine(inst, ACOParams(seed=1))\n"
    "print('ready', flush=True)\n"
)


def colony_seeds(count: int, workload_seed: int) -> list[int]:
    seeds = list(COLONY_SEEDS[: max(1, min(len(COLONY_SEEDS), count))])
    random.Random(workload_seed).shuffle(seeds)
    return seeds


def _solve(engine, tally: Tally, coords) -> dict:
    """One run to target; the boundary times are taken from run start."""
    stamps: list[float] = []
    t0 = time.perf_counter()
    result = engine.run(
        MAX_ITERATIONS,
        target_lengths=TARGET,
        on_boundary=lambda update: stamps.append(time.perf_counter()),
    )
    row = result.results[0]
    defect = tour_defect(row.best_tour, coords, row.best_length)
    if defect is None and row.best_length > TARGET:
        defect = "target-missed"
    if defect is None:
        tally.ok()
    else:
        tally.fail(defect)
    return {
        "result": result,
        "wall": stamps[-1] - t0,
        # a failed solve misses every limit
        "to_target": stamps[-1] - t0 if defect is None else math.inf,
        "first": stamps[0] - t0,
        "intervals": [b - a for a, b in zip([t0] + stamps[:-1], stamps)],
    }


def run(seed: int, seconds: int, trace: bool, cold_starts: int) -> tuple[dict, dict, Tally]:
    from repro import ACOParams, BatchEngine, load_instance
    from repro.obs import TraceRecorder

    tally = Tally()
    details: dict = {"colony_seeds": None, "target": TARGET}

    inst = load_instance(INSTANCE)
    coords = inst.coords.tolist()
    # Warm-up: the first iterations in a fresh process run slower (buffer
    # first-touch); that cost is set-up, not steady-state engine time.
    BatchEngine(inst, ACOParams(seed=0)).run(1)

    seeds = colony_seeds(seconds // (4 if trace else 2), seed)
    details["colony_seeds"] = seeds
    plain: list[dict] = []
    setup: list[float] = []
    recorder = SpanRecorder()
    traced_runs, uniforms, plain_wall, traced_wall = [], 0, 0.0, 0.0
    for i, s in enumerate(seeds):
        params = ACOParams(seed=s)
        order = (False, True) if i % 2 == 0 else (True, False)
        for with_trace in order if trace else (False,):
            if not with_trace:
                plain.append(_solve(BatchEngine(inst, params), tally, coords))
                plain_wall += plain[-1]["result"].wall_seconds
                continue
            engine = BatchEngine(inst, params, tracer=TraceRecorder())
            result, drawn = run_traced(
                engine, recorder, f"seed-{s}",
                iterations=MAX_ITERATIONS, target_lengths=TARGET,
            )
            traced_runs.append(result)
            uniforms += drawn
            traced_wall += result.wall_seconds
        if trace and not same_run(plain[-1]["result"], traced_runs[-1]):
            tally.demote("traced-run-differs")
        if not trace:
            # cold starts spread over the run, so their median samples the
            # host's speed at every point of it, as the solves do
            while len(setup) < (i + 1) * cold_starts // len(seeds):
                setup.append(python_child(_COLD_START)[0])

    wall = sum(p["result"].wall_seconds for p in plain)
    iterations = sum(p["result"].iterations_run for p in plain)
    if not trace:
        intervals = [x for p in plain for x in p["intervals"]]
        p95, q = tail_p95(intervals)
        details.update(latency_samples=len(intervals), latency_p95_percentile=q)
        setup += [python_child(_COLD_START)[0] for _ in range(cold_starts - len(setup))]
        metrics = {
            "setup_s": median(setup),
            "time_to_target_s": median([p["to_target"] for p in plain]),
            "colony_iters_per_s": iterations / wall,
            "latency_p50_s": median(intervals),
            "latency_p95_s": p95,
            "first_update_p50_s": median([p["first"] for p in plain]),
            "capacity_rps": tally.correct / sum(p["wall"] for p in plain),
            "ok_ratio": tally.correct / tally.attempted,
            "peak_rss_mb": self_peak_rss_mb(),
        }
        return metrics, details, tally

    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        fresh = load_instance(INSTANCE, use_cache=False)
        fresh.distance_matrix()
        fresh.nn_lists(ACOParams().nn)
        builds.append(time.perf_counter() - t0)
    metrics = {**IDLE_LAYERS, **core_layers(recorder, traced_runs, uniforms)}
    metrics["core.iterations_to_target"] = float(iterations)
    metrics["tsp.instance_build_s"] = median(builds)
    metrics["cli.import_s"] = cli_import_seconds(3)
    metrics["obs.trace_overhead_ratio"] = traced_wall / plain_wall - 1.0
    details["spans"] = recorder.to_json()
    return metrics, details, tally
