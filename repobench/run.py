"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 repobench/run.py --workload solve-a280 --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` is a separate run that prints every per-layer metric (each
workload names the layers it does not exercise; they read 0).  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it carries the host facts and run details.  Traced runs also
write their spans to ``repobench/out/``.

``correct`` is false when an answer fails its checks outside the strata
that exercise documented defects, or when the run itself is not valid:
the generator sent late (``loadgen.lag_p95_s`` above its bound) or, in a
traced run, the layers do not account for the engine wall within 10%.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchError, host_facts, import_repro, write_spans  # noqa: E402

WORKLOADS = ("solve-a280", "serve-pack", "serve-mixed")
#: a traced run is invalid when its layers miss the engine wall by more
ACCOUNTED_TOLERANCE = 0.10
#: printed in place of a metric that failures made infinite (the run is
#: then marked incorrect)
UNMEASURABLE = 1e300


def load_spec() -> dict:
    path = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def cold_starts(seconds: int, trace: bool) -> int:
    """Cold starts whose median is ``setup_s``: five in a full run, one in a
    tiny one.  Set-up is an end-to-end metric; a traced run starts once."""
    return 1 if trace else max(1, min(5, seconds // 6))


def measure(workload: str, seed: int, seconds: int, trace: bool):
    import serve
    import solve

    starts = cold_starts(seconds, trace)

    if workload == "solve-a280":
        return solve.run(seed, seconds, trace, starts)
    mix = serve.PACK if workload == "serve-pack" else serve.MIXED
    return serve.run(mix, seed, seconds, trace, starts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        import_repro()
        raw, details, tally = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in raw:
            print(f"benchmark error: {args.workload} gave no {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": float(raw[m["name"]]), "unit": m["unit"]}
    valid = details.pop("valid", True)
    if args.trace:
        valid = valid and abs(raw["core.accounted_ratio"] - 1.0) <= ACCOUNTED_TOLERANCE
        spans = details.pop("spans")
        details["spans_file"] = str(write_spans(f"{args.workload}-seed{args.seed}", spans))
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = UNMEASURABLE  # keeps the line valid JSON
    correct = valid and finite and tally.unexpected == 0 and tally.attempted > 0
    details.update(host=host_facts(args.seed), valid=valid, failures=tally.reasons)
    print(json.dumps({"workload": args.workload, "details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
