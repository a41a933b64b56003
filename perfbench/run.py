"""Benchmark of the ingest -> publish -> query chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md):

* ``replay-durable`` — in-process ``ImplicationService`` replay with a
  publish and a checkpoint after every batch;
* ``paced-reads`` — ``repro serve`` on the default front-end with a
  sliding window, JSON pushes on an open-loop schedule, then a flat-out
  tail, and closed-loop reads.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Lines before it
describe the run: every check, the sample counts and, when tracing, the
absent layers and the traced run's overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Checks that fail on every run because of a known fault in the program:
#: the served answer of these two profiles is not the paper's single-pass
#: estimate (batches are merged into the accumulator, and merging is
#: order-compressing for sticky violations).  They count as failed
#: operations; any other failed check makes the run incorrect.
KNOWN_FAULTS = {
    "support-only: served readouts equal the single-pass estimate",
    "noisy-confidence: served readouts equal the single-pass estimate",
}

WORKLOADS = ("replay-durable", "paced-reads")

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "ingest_tps": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "freshness_p50_ms": "ms",
    "freshness_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "checkpoint_kb": "KB",
}


def _workload(name: str):
    if name == "replay-durable":
        import replay

        return replay.run
    import httpload

    return httpload.run_paced_reads


def _warm_kernels() -> str:
    """Build (or load) the compiled kernels before anything is timed."""
    from repro.kernels import resolve

    return resolve(None).name


def summarize(rounds: list[dict]) -> dict[str, float]:
    """Median over rounds of each end-to-end metric."""
    return {name: common.median([r[name] for r in rounds]) for name in END_TO_END}


def _describe(rounds: list[dict], label: str) -> None:
    for index, result in enumerate(rounds):
        checks = result["checks"]
        print(
            json.dumps(
                {
                    "run": label,
                    "round": index,
                    "samples": result["samples"],
                    "metrics": {name: result[name] for name in END_TO_END},
                    "checks": [
                        {"check": name, "ok": ok, "detail": detail}
                        for name, ok, detail in checks.outcomes
                    ],
                }
            )
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.ensure_source_tree()
    os.environ.update(common.child_env())
    backend = _warm_kernels()
    run = _workload(args.workload)

    if not args.trace:
        rounds = run(args.seed, args.seconds)
        _describe(rounds, "untraced")
        values = summarize(rounds)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    else:
        import tracing

        half = args.seconds / 2
        plain = run(args.seed, half)
        traced = run(args.seed, half, tracer_factory=tracing.Tracer)
        _describe(plain, "untraced")
        _describe(traced, "traced")
        dump = tracing.merge_dumps([r["trace"] for r in traced])
        waits = [wait for r in traced for wait in r.get("frontend_wait_ms", [])]
        layer = tracing.layer_metrics(dump, waits)
        base, loaded = summarize(plain), summarize(traced)
        # The share by which tracing worsened each end-to-end metric.
        for name in END_TO_END:
            ratio = base[name] / loaded[name] if name == "ingest_tps" else loaded[name] / base[name]
            layer[f"trace.overhead.{name}"] = (ratio - 1.0, "ratio")
        print(json.dumps({"absent_layers": dump["absent"]}))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        rounds = plain + traced

    attempted = sum(r["checks"].attempted + r["operations"] for r in rounds)
    failures = [name for r in rounds for name, _, _ in r["checks"].failed]
    unexpected = [name for name in failures if name not in KNOWN_FAULTS]
    if unexpected:
        print(json.dumps({"unexpected_failures": unexpected}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "kernels": backend,
                      "rounds": len(rounds)}))
    print(
        json.dumps(
            {
                "correct": not unexpected,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
