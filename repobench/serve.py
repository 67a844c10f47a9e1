"""``serve-pack`` and ``serve-mixed``: the ``gpu-aco serve`` fleet driven
over its JSON-lines wire.

One generator process with one event loop drives the fleet over two
connections: solves on one, ``{"op": ...}`` admin lines on the other.
Each run has an open-loop phase (stratified Poisson arrivals on a fixed
schedule, every request timed from its due time) and a closed-loop phase
(a fixed window of outstanding requests, completions per second).  Instances are inline
coordinates generated from the workload seed, so the shared-memory
instance cache and the router carry every request.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

from common import (
    OUT_DIR,
    ROOT,
    BenchError,
    Tally,
    child_env,
    cli_import_seconds,
    median,
    tail_p95,
    tour_defect,
    vm_hwm_mb,
)
from spans import SpanRecorder, core_layers, run_traced, same_run

SHARDS = 2
MAX_BATCH = 4
MAX_WAIT_MS = 200
SERVE_ARGS = (
    "serve", "--shards", str(SHARDS), "--workers", "1", "--port", "0",
    "--max-batch", str(MAX_BATCH), "--max-wait-ms", str(MAX_WAIT_MS),
)
#: how late the generator may send, at p95, before the run is invalid
LAG_BOUND_S = 0.05
#: seconds any single phase may take before its stragglers count as failed
PHASE_TIMEOUT_S = 60.0
#: full-run results per run compared bit for bit with a solo in-process run
SOLO_SAMPLE = 4


@dataclass(frozen=True)
class Mix:
    """One traffic mix: how requests look and how hard they are pushed."""

    name: str
    open_rate: float  #: open-loop arrivals per second
    closed_per_s: float  #: closed-loop requests per second of --seconds
    window: int  #: closed-loop outstanding requests
    replay_batches: int  #: batches replayed in-process in a traced run
    stats_every_s: float | None  #: admin stats lines beside the solves


PACK = Mix("serve-pack", open_rate=40.0, closed_per_s=26.0, window=16,
           replay_batches=3, stats_every_s=None)
MIXED = Mix("serve-mixed", open_rate=20.0, closed_per_s=15.0, window=24,
            replay_batches=8, stats_every_s=0.25)

#: the two serve-pack sizes; their BatchKeys hash to different shards
PACK_SIZES = (48, 52)
#: accepted-space edges serve-mixed sends, one per 20 requests, in turn:
#: the lower edges, and upper ones past the caps of the regular draws
EDGES = (
    ("rho=1.0", {"rho": 1.0}),
    ("alpha=0", {"alpha": 0.0}),
    ("beta=0", {"beta": 0.0}),
    ("nn=1", {"nn": 1}),
    ("ants=1", {"n_ants": 1}),
    ("rho=1e-6", {"rho": 1e-6}),
    ("alpha=100", {"alpha": 100.0}),
    ("beta=100", {"beta": 100.0}),
    ("nn=1000", {"nn": 1000}),
    ("ants=128", {"n_ants": 128}),
    ("eta_shift=1e-9", {"eta_shift": 1e-9}),
    ("eta_shift=1e6", {"eta_shift": 1e6}),
)
#: the regular serve-mixed draws stop here; above it, tau^alpha * eta^beta
#: can underflow to 0 for every unvisited city (defect 1 below) depending
#: on the drawn instance, and the failing share would depend on the seed
ALPHA_CAP, BETA_CAP = 5.0, 8.0
#: the documented defects the program shows today, per stratum: failures
#: with these reasons are counted (and lower ok_ratio) but do not make the
#: run incorrect; any other failure does.  (1) zero-weight roulette: once
#: every unvisited city weighs 0 (pheromone underflow at rho=1, or
#: tau^alpha underflow), the full-matrix roulette repeats a city;
#: (2) an instance whose EUC_2D distances all round to 0 divides by zero
#: (tau0 = m / C_nn) and is retried until its budget is spent.
ZERO_WEIGHT = ("not-hamiltonian", "length-mismatch")
KNOWN_DEFECTS = {
    "edge:rho=1.0": ZERO_WEIGHT,
    "edge:alpha=100": ZERO_WEIGHT,
    "degenerate": ("error:ServeError:ZeroDivisionError",),
}


@dataclass
class Spec:
    """One generated request and what its answer is checked against."""

    rid: str
    coords: list
    obj: dict
    stratum: str = "regular"

    @property
    def line(self) -> bytes:
        return (json.dumps({"id": self.rid, **self.obj}) + "\n").encode()

    @property
    def target(self) -> int | None:
        return self.obj.get("target_length")

    def set_nn_target(self) -> None:
        """Target the greedy nearest-neighbour tour length."""
        from repro.tsp.tour import nearest_neighbor_tour, tour_length

        dist = _instance(self).distance_matrix()
        self.obj["target_length"] = tour_length(nearest_neighbor_tour(dist), dist)


def _coords(rng: random.Random, n: int) -> list:
    return [[float(rng.randrange(1000)), float(rng.randrange(1000))] for _ in range(n)]


def pack_spec(rng: random.Random, seed: int, i: int, prefix: str) -> Spec:
    """Distinct instances and colony seeds, two BatchKeys, one in four
    requests carrying a target."""
    coords = _coords(rng, PACK_SIZES[i % 2])
    spec = Spec(f"{prefix}{i}", coords, {
        "instance": {"name": f"{prefix}{seed}-{i}", "coords": coords},
        "iterations": 10,
        "report_every": 5,
        "params": {"seed": 100000 * seed + i},
    })
    if i % 4 == 3:
        spec.set_nn_target()
    return spec


def mixed_spec(rng: random.Random, seed: int, i: int, prefix: str) -> Spec:
    """Nearly every request its own BatchKey.  The shape of request ``i``
    (size, variant, schedule, 2-opt, target, stratum) is fixed by its
    position, so every run carries the same mix of work; the workload seed
    draws the coordinates, colony seeds and ACO parameters, over the
    accepted ranges up to :data:`ALPHA_CAP` and :data:`BETA_CAP`."""
    if i % 20 == 10:
        return edge_spec(i, prefix)
    n = 16 + (13 * i) % 49
    coords = _coords(rng, n)
    params = {
        "seed": 100000 * seed + i,
        "alpha": round(rng.uniform(0.0, ALPHA_CAP), 3),
        "beta": round(rng.uniform(0.0, BETA_CAP), 3),
        # log-uniform over (0, 1): rho = 1 is an edge of its own
        "rho": round(10 ** rng.uniform(-3.0, -0.01), 5),
        "nn": rng.randint(1, 2 * n),
        "n_ants": rng.randint(1, 2 * n),
        "eta_shift": round(10 ** rng.uniform(-3.0, 3.0), 6),
    }
    spec = Spec(f"{prefix}{i}", coords, {
        "instance": {"name": f"{prefix}{seed}-{i}", "coords": coords},
        "iterations": (3, 6, 12)[(i // 9) % 3],
        "report_every": (1, 5, 10)[(i // 3) % 3],
        "variant": ("as", "acs", "mmas")[i % 3],
        "params": params,
    })
    if i % 4 == 1:
        spec.obj["local_search"] = "2opt"
    if i % 50 == 25:
        # every EUC_2D distance rounds to 0 (defect 2)
        spec.coords = [[500.0 + 0.1 * (k % 3), 500.0 + 0.1 * (k // 3 % 3)] for k in range(n)]
        spec.obj["instance"]["coords"] = spec.coords
        spec.stratum = "degenerate"
    elif i % 4 == 3:
        spec.set_nn_target()
    return spec


def edge_spec(i: int, prefix: str) -> Spec:
    """A request at an edge of what validation accepts.  Drawn from the
    position alone, not the workload seed, so the share that fails is the
    same in every run and ``ok_ratio`` repeats exactly."""
    rng = random.Random(f"edge/{i}")
    name, edge = EDGES[(i // 20) % len(EDGES)]
    coords = _coords(rng, rng.randint(40, 64))
    obj = {
        "instance": {"name": f"{prefix}edge-{i}", "coords": coords},
        "iterations": 20,
        "report_every": 5,
        # rho=1 starves AS's roulette (defect 1); every other edge meets
        # each variant in turn, one round of EDGES after another
        "variant": "as" if name == "rho=1.0" else ("as", "acs", "mmas")[
            (i // 20 + i // (20 * len(EDGES))) % 3],
        "params": {"seed": i, **edge},
    }
    return Spec(f"{prefix}{i}", coords, obj, "edge:" + name)


def make_specs(mix: Mix, seed: int, count: int, prefix: str, start: int = 0) -> list[Spec]:
    rng = random.Random(f"{mix.name}/{prefix}/{seed}")
    make = pack_spec if mix is PACK else mixed_spec
    return [make(rng, seed, i, prefix) for i in range(start, start + count)]


# ------------------------------------------------------------------- fleet


class Fleet:
    """One ``gpu-aco serve --shards N`` process tree."""

    def __init__(self) -> None:
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        self.worker_pids: list[int] = []

    def start(self, timeout: float = 60.0) -> float:
        """Start the fleet; seconds from process start to the first health
        answer that shows every shard healthy."""
        OUT_DIR.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        with open(OUT_DIR / "fleet-stderr.log", "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *SERVE_ARGS],
                stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT,
            )
        deadline = t0 + timeout
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "routing on" not in line:
            raise BenchError(f"fleet did not start: {line!r}")
        addr = line.split("routing on ", 1)[1].split()[0]
        self.host, port = addr.rsplit(":", 1)
        self.port = int(port)
        while True:
            health = self.admin_sync("health")
            if health["shards_healthy"] == SHARDS:
                break
            if time.perf_counter() > deadline:
                raise BenchError(f"shards not healthy: {health}")
            time.sleep(0.01)
        wall = time.perf_counter() - t0
        self.worker_pids = [int(s["pid"]) for s in health["per_shard"].values()]
        return wall

    def admin_sync(self, op: str) -> dict:
        with socket.create_connection((self.host, self.port), timeout=30) as sock:
            sock.sendall(json.dumps({"op": op, "id": op}).encode() + b"\n")
            with sock.makefile("rb") as fh:
                return json.loads(fh.readline())[op]

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return sum(vm_hwm_mb(pid) for pid in [self.proc.pid, *self.worker_pids])

    def stop(self) -> None:
        """Drain the router (SIGINT), wait for it, and make sure every
        worker process it started has exited."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        deadline = time.monotonic() + 10
        for pid in self.worker_pids:
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# ------------------------------------------------------------- load generator


def arrival_gaps(count: int, rate: float, rng: random.Random) -> list[float]:
    """Stratified Poisson arrivals: the ``count`` exponential quantiles in
    the order ``rng`` gives them, so every run has the same gaps and the
    same duration."""
    gaps = [-math.log(1.0 - (j + 0.5) / count) / rate for j in range(count)]
    rng.shuffle(gaps)
    return gaps


@dataclass
class Rec:
    spec: Spec
    due: float
    sent: float = 0.0
    first_update: float | None = None
    last_iteration: int = 0  #: iteration of the latest update line
    done: float | None = None
    reply: dict | None = None
    fut: asyncio.Future = field(default=None, repr=False)

    @property
    def iterations(self) -> int:
        """Iterations the answer covers: an early result carries no
        iteration trace, so its last update line says where it stopped."""
        if self.reply.get("early") is None:
            return self.reply["iterations_run"]
        return self.last_iteration


class Client:
    """The generator's two connections: solves and admin lines."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.recs: dict[str, Rec] = {}
        self.admin_waiters: dict[str, asyncio.Future] = {}
        self.stray_lines = 0
        self._ids = itertools.count()
        self._tasks: list[asyncio.Task] = []

    async def __aenter__(self) -> "Client":
        self.loop = asyncio.get_running_loop()
        self.r, self.w = await asyncio.open_connection(self.host, self.port, limit=1 << 24)
        self.ar, self.aw = await asyncio.open_connection(self.host, self.port, limit=1 << 24)
        self._tasks = [
            asyncio.create_task(self._read_solves()),
            asyncio.create_task(self._read_admin()),
        ]
        return self

    async def __aexit__(self, *exc) -> None:
        for w in (self.w, self.aw):
            w.close()
        for t in self._tasks:
            t.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for w in (self.w, self.aw):
            try:
                await w.wait_closed()
            except OSError:
                pass

    async def send(self, spec: Spec, due: float) -> Rec:
        rec = Rec(spec, due, fut=self.loop.create_future())
        self.recs[spec.rid] = rec
        rec.sent = self.loop.time()
        self.w.write(spec.line)
        await self.w.drain()
        return rec

    async def _read_solves(self) -> None:
        try:
            await self._relay_solves()
        finally:
            # A dropped connection answers nothing more: unblock waiters,
            # whose requests then count as failed (no reply).
            for rec in self.recs.values():
                if not rec.fut.done():
                    rec.fut.set_result(None)

    async def _relay_solves(self) -> None:
        while line := await self.r.readline():
            now = self.loop.time()
            obj = json.loads(line)
            rec = self.recs.get(obj.get("id"))
            kind = obj.get("type")
            if kind == "accepted" and rec is not None:
                continue  # may trail a fast result: routing answers twice
            if rec is None or rec.fut.done():
                self.stray_lines += 1
            elif kind == "update":
                if rec.first_update is None:
                    rec.first_update = now
                rec.last_iteration = obj["iteration"]
            elif kind in ("result", "error"):
                rec.done, rec.reply = now, obj
                rec.fut.set_result(None)

    async def _read_admin(self) -> None:
        while line := await self.ar.readline():
            obj = json.loads(line)
            fut = self.admin_waiters.pop(obj.get("id"), None)
            if fut is not None and not fut.done():
                fut.set_result(obj)

    async def admin(self, op: str) -> dict:
        rid = f"{op}-{next(self._ids)}"
        fut = self.loop.create_future()
        self.admin_waiters[rid] = fut
        self.aw.write(json.dumps({"op": op, "id": rid}).encode() + b"\n")
        await self.aw.drain()
        reply = await asyncio.wait_for(fut, PHASE_TIMEOUT_S)
        if op not in reply:
            raise BenchError(f"admin {op} answered {reply}")
        return reply[op]

    async def settle(self, recs: list[Rec]) -> None:
        """Wait for every answer; stragglers stay unanswered (failed)."""
        pending = [r.fut for r in recs if not r.fut.done()]
        if pending:
            await asyncio.wait(pending, timeout=PHASE_TIMEOUT_S)

    async def open_loop(self, specs: list[Spec], rate: float, rng: random.Random) -> list[Rec]:
        due = self.loop.time() + 0.05
        recs = []
        for spec, gap in zip(specs, arrival_gaps(len(specs), rate, rng)):
            due += gap
            delay = due - self.loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            recs.append(await self.send(spec, due))
        await self.settle(recs)
        return recs

    async def closed_loop(self, specs: list[Spec], window: int) -> tuple[list[Rec], float]:
        todo = iter(specs)
        recs: list[Rec] = []
        t0 = self.loop.time()

        async def lane() -> None:
            for spec in todo:
                rec = await self.send(spec, self.loop.time())
                recs.append(rec)
                await asyncio.wait([rec.fut], timeout=PHASE_TIMEOUT_S)

        await asyncio.gather(*(lane() for _ in range(window)))
        return recs, self.loop.time() - t0

    async def stats_ticker(self, every: float, stop: asyncio.Event) -> int:
        sent = 0
        while not stop.is_set():
            await self.admin("stats")
            sent += 1
            try:
                await asyncio.wait_for(stop.wait(), every)
            except asyncio.TimeoutError:
                pass
        return sent


# ------------------------------------------------------------------ checks


def grade(rec: Rec, tally: Tally) -> bool:
    """Check one answer directly; count it as correct or failed."""
    spec, reply = rec.spec, rec.reply
    if reply is None:
        defect = "no-reply"
    elif reply["type"] == "error":
        # a failed batch names the exception it raised in its message
        cause = re.search(r"failed: (\w+)\(", str(reply.get("message")))
        defect = f"error:{reply.get('error')}" + (f":{cause[1]}" if cause else "")
    else:
        defect = tour_defect(reply["best_tour"], spec.coords, reply["best_length"])
        if defect is None and reply.get("early") is None and (
            reply["iterations_run"] != spec.obj["iterations"]
        ):
            defect = "short-run"
        if defect is None and reply.get("early") == "target" and (
            reply["best_length"] > spec.target
        ):
            defect = "target-not-met"
    if defect is None:
        tally.ok()
        return True
    tally.fail(defect, known=defect in KNOWN_DEFECTS.get(spec.stratum, ()))
    return False


def _instance(spec: Spec):
    import numpy as np
    from repro.tsp import TSPInstance

    return TSPInstance(name=spec.obj["instance"]["name"],
                       coords=np.asarray(spec.coords, dtype=np.float64),
                       edge_weight_type="EUC_2D")


def _engine(specs: list[Spec], **kwargs):
    """The engine the service builds for a pack of these requests."""
    from repro import ACOParams, BatchEngine

    obj = specs[0].obj
    ls = obj.get("local_search", "none")
    return BatchEngine(
        [_instance(s) for s in specs],
        [ACOParams(**s.obj["params"]) for s in specs],
        construction=obj.get("construction", 8),
        pheromone=obj.get("pheromone", 1),
        variant=obj.get("variant", "as"),
        local_search=ls,
        local_search_options=(
            {"passes": obj.get("ls_passes"), "target": obj.get("ls_target", "iteration-best")}
            if ls != "none" else None
        ),
        **kwargs,
    )


def solo_check(recs: list[Rec], ok: dict[str, bool], tally: Tally, rng: random.Random) -> int:
    """Served full-run results must equal a solo in-process run bit for bit."""
    full = [r for r in recs if r.reply and r.reply["type"] == "result"
            and r.reply.get("early") is None]
    sample = rng.sample(full, min(SOLO_SAMPLE, len(full)))
    for rec in sample:
        obj = rec.spec.obj
        row = _engine([rec.spec]).run(obj["iterations"], report_every=obj["report_every"]).results[0]
        same = (
            row.best_length == rec.reply["best_length"]
            and [int(c) for c in row.best_tour] == rec.reply["best_tour"]
            and [int(v) for v in row.iteration_best_lengths] == rec.reply["iteration_best_lengths"]
        )
        if not same and ok[rec.spec.rid]:
            tally.demote("served-differs-from-solo")
    return len(sample)


# ------------------------------------------------------------------ replay


def replay_batches(mix: Mix, specs: list[Spec], rng: random.Random) -> list[list[Spec]]:
    """A seeded sample of the batches the workload makes: full same-key
    packs for serve-pack, single requests for serve-mixed.  Degenerate
    instances are left out: the engine cannot be built for them."""
    if mix is PACK:
        keyed = [[s for s in specs if len(s.coords) == n] for n in PACK_SIZES]
        packs = [group[j:j + MAX_BATCH] for group in keyed
                 for j in range(0, len(group) - MAX_BATCH + 1, MAX_BATCH)]
        return rng.sample(packs, min(mix.replay_batches, len(packs)))
    usable = [[s] for s in specs if s.stratum != "degenerate"]
    return rng.sample(usable, min(mix.replay_batches, len(usable)))


def replay(batches: list[list[Spec]], tally: Tally) -> tuple[dict, float]:
    """Run each batch plain and traced (alternating which goes first);
    the two must agree bit for bit.  Returns the core layers and the
    tracer's overhead ratio."""
    from repro.obs import TraceRecorder

    recorder = SpanRecorder()
    traced_runs, uniforms, plain_wall, traced_wall = [], 0, 0.0, 0.0
    for i, batch in enumerate(batches):
        obj = batch[0].obj
        targets = [s.target if s.target is not None else 0 for s in batch]
        kwargs = {"iterations": obj["iterations"], "report_every": obj["report_every"]}
        if any(targets):
            kwargs["target_lengths"] = [t or 1 << 62 for t in targets]
        runs = {}
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                engine = _engine(batch, tracer=TraceRecorder())
                runs[True], drawn = run_traced(engine, recorder, batch[0].rid, **kwargs)
                uniforms += drawn
                traced_wall += runs[True].wall_seconds
            else:
                runs[False] = _engine(batch).run(**kwargs)
                plain_wall += runs[False].wall_seconds
        traced_runs.append(runs[True])
        for _ in batch:
            if same_run(runs[False], runs[True]):
                tally.ok()
            else:
                tally.fail("traced-run-differs")
    layers = core_layers(recorder, traced_runs, uniforms)
    layers["spans"] = recorder.to_json()
    return layers, traced_wall / plain_wall - 1.0


# ------------------------------------------------------------------ one run


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0)) - float(before.get(key, 0))


def serve_layers(before: dict, after: dict, client_p50: float) -> dict:
    """Serve and shard layers from the folded stats taken around the
    open-loop phase.  Counters are exact differences; the distributions
    (queue wait, batch wall, service latency) are the reservoir quantiles
    at the end of the phase, which also hold the few warm-up requests."""
    rows = _delta(after, before, "rows_packed")
    batches = _delta(after, before, "batches")
    retried = _delta(after, before, "requests_retried")
    flushed = after["batch_rows"]["total"] - before["batch_rows"]["total"]
    causes = {k: after["flush_causes"][k] - before["flush_causes"].get(k, 0)
              for k in after["flush_causes"]}
    per_shard = [
        _delta(after["per_shard"].get(sid, {}), before["per_shard"].get(sid, {}), "rows_packed")
        for sid in after["per_shard"]
    ]
    router_after, router_before = after["router"], before["router"]
    return {
        "serve.queue_wait_p50_s": after["queue_wait_seconds"]["p50"],
        "serve.queue_wait_p95_s": after["queue_wait_seconds"]["p95"],
        "serve.batch_wall_p50_s": after["batch_wall_seconds"]["p50"],
        "serve.colony_iters_per_s": _delta(after, before, "colony_iterations")
        / max(_delta(after, before, "engine_wall_seconds"), 1e-9),
        "serve.pack_ratio": rows / max(batches * MAX_BATCH, 1),
        "serve.flush_full_share": causes.get("full", 0) / max(sum(causes.values()), 1),
        "serve.retried_rows": retried,
        "serve.bisections": _delta(after, before, "batches_bisected"),
        "serve.shed": _delta(after, before, "requests_shed")
        + _delta(router_after, router_before, "requests_shed"),
        "serve.wasted_ratio": retried / max(flushed + retried, 1),
        "shard.requests_routed": _delta(router_after, router_before, "requests_routed"),
        "shard.spillovers": _delta(router_after, router_before, "spillovers"),
        "shard.balance": max(per_shard) / max(min(per_shard), 1.0),
        "shard.overhead_p50_s": client_p50 - after["request_latency_seconds"]["p50"],
    }


async def _drive(fleet: Fleet, mix: Mix, seed: int, seconds: int, trace: bool) -> dict:
    """Warm-up, the open-loop phase and (untraced) the closed-loop phase."""
    open_n = max(10, round(mix.open_rate * seconds * 0.5))
    closed_n = max(10, round(mix.closed_per_s * seconds))
    open_specs = make_specs(mix, seed, open_n, "o")
    closed_specs = [] if trace else make_specs(mix, seed, closed_n, "c", start=open_n)
    warm_specs = make_specs(mix, seed + 1_000_003, 4 * MAX_BATCH, "w")
    out: dict = {"open_specs": open_specs}
    async with Client(fleet.host, fleet.port) as client:
        await client.settle([await client.send(s, 0.0) for s in warm_specs])
        out["stats_before"] = await client.admin("stats") if trace else None
        stop = asyncio.Event()
        ticker = (asyncio.create_task(client.stats_ticker(mix.stats_every_s, stop))
                  if mix.stats_every_s else None)
        try:
            # The arrival schedule is part of the workload, not of its
            # seeded inputs: the same bursts every run, so the spread
            # between runs is the system's, not the schedule's.
            out["open"] = await client.open_loop(
                open_specs, mix.open_rate, random.Random(f"arrivals/{mix.name}"))
            out["stats_after"] = await client.admin("stats") if trace else None
            if not trace:
                out["closed"], out["closed_wall"] = await client.closed_loop(
                    closed_specs, mix.window)
        finally:
            stop.set()
            if ticker is not None:
                out["stats_lines"] = await ticker
        out["stray_lines"] = client.stray_lines
    return out


def run(mix: Mix, seed: int, seconds: int, trace: bool, cold_starts: int) -> tuple[dict, dict, Tally]:
    from repro.serve.protocol import decode_request

    tally = Tally()
    details: dict = {"shards": SHARDS, "max_batch": MAX_BATCH, "max_wait_ms": MAX_WAIT_MS}
    fleet = Fleet()
    try:
        # The measured fleet is the first cold start; the others follow the
        # phases, so set-up is sampled at both ends of the run.
        setup = [fleet.start()]
        driven = asyncio.run(_drive(fleet, mix, seed, seconds, trace))
        peak_rss = fleet.peak_rss_mb()
        fleet.stop()
        for _ in range(cold_starts - 1):
            setup.append(fleet.start())
            fleet.stop()
    finally:
        fleet.stop()

    rng = random.Random(f"check/{seed}")
    open_recs = driven["open"]
    closed_recs = driven.get("closed", [])
    ok = {r.spec.rid: grade(r, tally) for r in open_recs + closed_recs}
    details["solo_checked"] = solo_check(open_recs + closed_recs, ok, tally, rng)
    details["stray_lines"] = driven["stray_lines"]
    details["stats_lines"] = driven.get("stats_lines", 0)
    if driven["stray_lines"]:
        tally.fail("stray-reply-lines")

    inf = math.inf
    latency = [r.done - r.due if ok[r.spec.rid] else inf for r in open_recs]
    lag = [r.sent - r.due for r in open_recs]
    lag_p95 = tail_p95(lag)[0]
    details["lag_p95_s"] = lag_p95
    details["valid"] = lag_p95 <= LAG_BOUND_S
    if trace:
        metrics = serve_layers(driven["stats_before"], driven["stats_after"], median(latency))
        metrics["loadgen.lag_p95_s"] = lag_p95
        targeted = [r for r in open_recs if r.spec.target is not None
                    and r.reply and r.reply["type"] == "result"]
        metrics["core.iterations_to_target"] = float(sum(r.iterations for r in targeted))
        lines = [s.line for s in driven["open_specs"]]
        passes = []
        for _ in range(3):
            t0 = time.perf_counter()
            for j, line in enumerate(lines):
                decode_request(line, default_id=str(j))
            passes.append((time.perf_counter() - t0) * 1000.0 / len(lines))
        metrics["serve.decode_ms_per_req"] = median(passes)
        batches = replay_batches(mix, driven["open_specs"], rng)
        layers, overhead = replay(batches, tally)
        details["spans"] = layers.pop("spans")
        metrics.update(layers)
        metrics["obs.trace_overhead_ratio"] = overhead
        builds = []
        for batch in batches[:3]:
            t0 = time.perf_counter()
            inst = _instance(batch[0])
            inst.distance_matrix()
            inst.nn_lists(30)
            builds.append(time.perf_counter() - t0)
        metrics["tsp.instance_build_s"] = median(builds)
        metrics["cli.import_s"] = cli_import_seconds(3)
        return metrics, details, tally

    closed_ok = [r for r in closed_recs if ok[r.spec.rid]]
    wall = driven["closed_wall"]
    first = [r.first_update - r.due if ok[r.spec.rid] and r.first_update is not None else inf
             for r in open_recs]
    to_target = [lat for r, lat in zip(open_recs, latency) if r.spec.target is not None]
    p95, q = tail_p95(latency)
    details.update(latency_samples=len(latency), latency_p95_percentile=q,
                   target_samples=len(to_target), closed_completions=len(closed_recs))
    metrics = {
        "setup_s": median(setup),
        "time_to_target_s": median(to_target),
        "colony_iters_per_s": sum(r.iterations for r in closed_ok) / wall,
        "latency_p50_s": median(latency),
        "latency_p95_s": p95,
        "first_update_p50_s": median(first),
        "capacity_rps": len(closed_ok) / wall,
        "ok_ratio": tally.correct / tally.attempted,
        "peak_rss_mb": peak_rss,
    }
    return metrics, details, tally
