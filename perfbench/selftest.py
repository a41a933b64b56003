"""Self-test of the benchmark: small workloads, and checks that must fire.

    python3 perfbench/selftest.py

Runs a small-size mode of every workload (|A| = 1000, about 52k tuples)
in well under a minute, then shows that the output checks catch what
they exist to catch:

* a stream missing one chunk fails tuple conservation;
* an answer taken from the wrong profile fails the single-pass comparison;
* a wrapped function that no longer exists is reported as an absent
  layer, and the traced run still completes.

Exits 0 when everything behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

SMALL = 1000
FAILURES: list[str] = []


def expect(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def _unexpected(rounds: list[dict]) -> list[str]:
    import run

    return [
        f"{name}: {detail}"
        for result in rounds
        for name, _, detail in result["checks"].failed
        if name not in run.KNOWN_FAULTS
    ]


def small_workloads() -> None:
    import httpload
    import replay
    import tracing

    rounds = replay.run(seed=1, seconds=0, cardinality=SMALL)
    expect("replay-durable (small) passes its checks", not _unexpected(rounds), str(_unexpected(rounds)))
    traced = replay.run(seed=1, seconds=0, tracer_factory=tracing.Tracer, cardinality=SMALL)
    layer = tracing.layer_metrics(tracing.merge_dumps([r["trace"] for r in traced]), [])
    expect(
        "traced replay-durable (small) records the commit path",
        layer["service.commit.calls"][0] > 0 and layer["recovery.save.calls"][0] > 0
        and layer["core.update_batch.tuples"][0] > 0,
        str({key: value for key, (value, _) in layer.items() if key.endswith(".calls")}),
    )
    paced = httpload.run(
        dataclasses.replace(
            httpload.PACED_READS, cardinality=SMALL, pace=40960.0, tail_chunks=4,
            min_reads=10, min_chunks=5,
        ),
        seed=1,
        seconds=0,
        tracer_factory=tracing.Tracer,
    )
    expect("paced-reads (small, traced) passes its checks", not _unexpected(paced), str(_unexpected(paced)))
    layer = tracing.layer_metrics(
        tracing.merge_dumps([r["trace"] for r in paced]),
        [wait for r in paced for wait in r["frontend_wait_ms"]],
    )
    expect(
        "traced serve records pushes, window merges and dispatch times",
        layer["sources.push.calls"][0] > 0 and layer["http.dispatch.query.p50_ms"][0] > 0
        and layer["http.frontend_wait.p50_ms"][0] > 0 and layer["windowed.merged.calls"][0] > 0,
        str(layer),
    )


def missing_chunk_fails_conservation() -> None:
    from repro.serving.service import ImplicationService, ServeConfig
    from repro.serving.sources import ArraySource

    lhs, rhs = common.dataset_one(2, SMALL)
    keep = slice(common.BATCH, None)  # the first chunk never arrives
    service = ImplicationService(
        ServeConfig(num_bitmaps=16), source=ArraySource(lhs[keep], rhs[keep])
    )
    while service.ingest_step():
        pass
    snapshots = service.store.all()
    checks = common.Checks()
    common.check_final(
        checks,
        {name: snap.stats for name, snap in snapshots.items()},
        {name: snap.cursor for name, snap in snapshots.items()},
        lhs,
    )
    failed = {name for name, _, _ in checks.failed}
    expect(
        "a stream missing one chunk fails tuple conservation",
        all(f"{name}: tuples conserved" in failed for name in common.PROFILE_MIN_SUPPORT),
        str(failed),
    )


def wrong_profile_fails_single_pass() -> None:
    import reference

    lhs, rhs = common.dataset_one(reference.STREAM_SEED, SMALL)
    expected = reference.single_pass(lhs, rhs)
    wrong = {name: dict(values) for name, values in expected.items()}
    wrong["support-only"] = dict(expected["one-to-one"])
    checks = common.Checks()
    common.check_single_pass(checks, wrong, expected)
    failed = {name for name, _, _ in checks.failed}
    expect(
        "an answer from the wrong profile fails the single-pass comparison",
        failed == {"support-only: served readouts equal the single-pass estimate"},
        str(failed),
    )
    checks = common.Checks()
    common.check_single_pass(checks, expected, expected)
    expect("the single-pass comparison passes on the reference itself", not checks.failed)


def absent_layer_is_reported() -> None:
    import tracing

    bogus = ("engine", "engine.gone", "repro.engine.sharded:ShardedIngestor.no_such_method", None)
    original = tracing.LAYERS
    tracing.LAYERS = original + (bogus,)
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        tracing.LAYERS = original
    expect(
        "a deleted function is reported as an absent layer",
        tracer.absent == ["engine:engine.gone"],
        str(tracer.absent),
    )


def main() -> int:
    common.ensure_source_tree()
    os.environ.update(common.child_env())
    small_workloads()
    missing_chunk_fails_conservation()
    wrong_profile_fails_single_pass()
    absent_layer_is_reported()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
