"""In-memory spans around the engine's public entry points.

The benchmark never edits the program it measures.  To split engine wall
into layers it installs pass-through wrappers, as instance attributes, on
the objects a :class:`repro.BatchEngine` calls each iteration, and deletes
them again afterwards (the class methods then show through unchanged):

========================================  ==============
wrapped call                              span name
========================================  ==============
``engine.variant.choice.build_batch``     ``construct``
``engine.choice_kernel.run_batch``        ``choice``
``engine.construction.build_batch``       ``construction``
``engine.rng.uniform_block``              ``rng``
``engine.variant.update.update_batch``    ``update``
========================================  ==============

Fold, local search and host sync have no entry point of their own; their
time comes from ``BatchRunResult.phase_breakdown``.  A span's self time is
its duration minus the time its child spans cover (children of one parent
run one after another, so their durations do not overlap).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: (attribute path on the engine, method, span name)
ENTRY_POINTS = (
    (("variant", "choice"), "build_batch", "construct"),
    (("choice_kernel",), "run_batch", "choice"),
    (("construction",), "build_batch", "construction"),
    (("rng",), "uniform_block", "rng"),
    (("variant", "update"), "update_batch", "update"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  #: index of the enclosing span in the recorder, -1 at top
    ctx: str  #: the batch or request the span belongs to

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; ``ctx`` labels the spans recorded next."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.ctx = ""
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[idx] = Span(name, start, end, parent, self.ctx)

        return traced

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span.parent >= 0:
                child_time[span.parent] += span.duration
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span is not None:
                out[span.name] = out.get(span.name, 0.0) + span.duration - child_time[i]
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "id": s.ctx}
            for s in self.spans if s is not None
        ]


@contextmanager
def traced(engine, recorder: SpanRecorder):
    """Install the pass-through wrappers on ``engine`` for the block."""
    installed = []
    try:
        for path, method, name in ENTRY_POINTS:
            owner = engine
            for attr in path:
                owner = getattr(owner, attr)
            if method in vars(owner):
                raise RuntimeError(f"{type(owner).__name__}.{method} is already wrapped")
            setattr(owner, method, recorder.wrap(getattr(owner, method), name))
            installed.append((owner, method))
        yield recorder
    finally:
        for owner, method in installed:
            delattr(owner, method)


def run_traced(engine, recorder: SpanRecorder, ctx: str, **run_kwargs):
    """``engine.run(**run_kwargs)`` under the wrappers; ``(result, uniforms
    drawn)``."""
    recorder.ctx = ctx
    drawn = engine.rng.samples_drawn
    with traced(engine, recorder):
        result = engine.run(**run_kwargs)
    return result, engine.rng.samples_drawn - drawn


def core_layers(recorder: SpanRecorder, runs, uniforms: int) -> dict[str, float]:
    """Per-iteration layer times of traced engine ``runs`` (a list of
    ``BatchRunResult``) and the share of engine wall they account for."""
    iters = sum(r.iterations_run for r in runs)
    wall = sum(r.wall_seconds for r in runs)
    phases: dict[str, float] = {}
    for r in runs:
        for k, v in r.phase_breakdown.items():
            phases[k] = phases.get(k, 0.0) + v
    own = recorder.self_seconds()
    layers = {
        "construct": own.get("construct", 0.0) + own.get("construction", 0.0),
        "choice": own.get("choice", 0.0),
        "rng": own.get("rng", 0.0),
        "fold": phases.get("fold", 0.0),
        "local_search": phases.get("local-search", 0.0),
        "update": own.get("update", 0.0),
        "host_sync": phases.get("host-sync", 0.0),
    }
    ms = 1000.0 / iters
    out = {f"core.{name}_ms_per_iter": seconds * ms for name, seconds in layers.items()}
    out["rng.fill_ms_per_iter"] = out.pop("core.rng_ms_per_iter")
    out["rng.uniforms_per_iter"] = uniforms / iters
    out["core.engine_ms_per_iter"] = wall * ms
    out["core.accounted_ratio"] = sum(layers.values()) / wall
    return out


def same_run(a, b) -> bool:
    """Bit-for-bit equality of two ``BatchRunResult`` s, row by row."""
    if a.iterations_run != b.iterations_run or len(a.results) != len(b.results):
        return False
    return all(
        ra.best_length == rb.best_length
        and list(ra.best_tour) == list(rb.best_tour)
        and list(ra.iteration_best_lengths) == list(rb.iteration_best_lengths)
        for ra, rb in zip(a.results, b.results)
    )
