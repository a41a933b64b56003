"""``replay-durable``: the whole ingest -> publish -> checkpoint chain in-process.

One round restores a checkpoint of a short stream prefix (written by an
untimed preparation step), replays the rest of the fixed Dataset One
stream through ``ImplicationService.ingest_step`` with a publish and a
checkpoint after every batch, and reads the published snapshots through
``Router.dispatch`` between batches, the way an HTTP handler would but
without a transport.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import common
import reference

NUM_BITMAPS = reference.NUM_BITMAPS
#: Batches the untimed preparation step ingests and checkpoints.
PREFIX_BATCHES = 16
#: Service constructions timed per round; setup_s is their median.
SETUPS = 15


def _config():
    from repro.serving.service import ServeConfig

    return ServeConfig(num_bitmaps=NUM_BITMAPS, batch_size=common.BATCH)


def _service(lhs, rhs, directory: Path):
    from repro.serving.service import ImplicationService
    from repro.serving.sources import ArraySource

    return ImplicationService(
        _config(),
        source=ArraySource(lhs, rhs, batch_size=common.BATCH),
        checkpoint_dir=str(directory),
    )


def prepare(lhs, rhs, directory: Path) -> None:
    """Write the prefix checkpoint the timed rounds restore from."""
    shutil.rmtree(directory, ignore_errors=True)
    service = _service(lhs, rhs, directory)
    # A quarter of the stream at most, so a small stream still replays.
    for _ in range(min(PREFIX_BATCHES, len(lhs) // common.BATCH // 4)):
        service.ingest_step()


def newest_generation_bytes(directory: Path) -> int:
    manifests = sorted(directory.glob("ckpt-*.manifest.json"))
    if not manifests:
        return 0
    stem = manifests[-1].name.split(".", 1)[0] + "."
    return sum(path.stat().st_size for path in directory.iterdir() if path.name.startswith(stem))


def _read_mix(profiles: list[str], itemsets: list[int], index: int):
    """The reads made after each batch: every profile, a point lookup,
    a by-conditions query and the metrics endpoint."""
    for name in profiles:
        yield "/query", {"profile": [name]}
    name = profiles[index % len(profiles)]
    yield "/top", {"profile": [name], "itemset": [str(itemsets[index % len(itemsets)])]}
    yield "/query", {"min_support": ["4"]}
    yield "/metrics", {}


def run_round(lhs, rhs, prefix: Path, workdir: Path, itemsets: list[int], expected: dict | None,
              tracer=None) -> dict:
    """One restore + replay + check round; returns its measurements."""
    from repro.serving.http import Router

    directory = workdir / "round"
    shutil.rmtree(directory, ignore_errors=True)
    shutil.copytree(prefix, directory)
    if tracer is not None:
        tracer.install()
    try:
        setups = []
        for _ in range(SETUPS):
            started = time.perf_counter()
            service = _service(lhs, rhs, directory)
            setups.append(time.perf_counter() - started)
        router = Router(service)
        profiles = list(service.profiles)
        ledger = common.ReadLedger()
        latencies: list[float] = []
        publish_ms: list[float] = []
        read_faults = []
        start_cursor = service.cursor
        batches = reads = 0
        started = time.perf_counter()
        while True:
            step_started = time.perf_counter()
            more = service.ingest_step()
            if not more:
                break
            publish_ms.append((time.perf_counter() - step_started) * 1e3)
            batches += 1
            for path, params in _read_mix(profiles, itemsets, batches):
                read_started = time.perf_counter()
                response = router.dispatch("GET", path, params)
                latencies.append((time.perf_counter() - read_started) * 1e3)
                reads += 1
                if response.status != 200:
                    read_faults.append(f"{path} {params}: {response.status}")
                    continue
                if path != "/metrics":
                    ledger.observe(json.loads(response.body))
        elapsed = time.perf_counter() - started
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checkpoint_kb = newest_generation_bytes(directory) / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()

    checks = common.Checks()
    checks.check("every read answered 200", not read_faults, "; ".join(read_faults[:3]))
    ledger.record(checks, reads)
    snapshots = service.store.all()
    stats = {name: snapshot.stats for name, snapshot in snapshots.items()}
    cursors = {name: snapshot.cursor for name, snapshot in snapshots.items()}
    common.check_final(checks, stats, cursors, lhs)
    common.check_f0(checks, stats, lhs, NUM_BITMAPS)
    checks.check(
        "a checkpoint generation is on disk", checkpoint_kb > 0, f"{checkpoint_kb:.1f} KB"
    )
    checks.check("single-pass reference is current", expected is not None)
    common.check_single_pass(checks, stats, expected or {})
    shutil.rmtree(directory, ignore_errors=True)
    tuples = len(lhs) - start_cursor
    return {
        "checks": checks,
        "operations": batches + reads,
        "setup_s": common.median(setups),
        "ingest_tps": tuples / elapsed,
        "query_p50_ms": common.quantile(latencies, 0.5),
        "query_p99_ms": common.quantile(latencies, 0.99),
        "freshness_p50_ms": common.quantile(publish_ms, 0.5),
        "freshness_p90_ms": common.quantile(publish_ms, 0.9),
        "peak_rss_mb": rss_mb,
        "checkpoint_kb": checkpoint_kb,
        "samples": {"reads": reads, "batches": batches, "setups_s": setups},
    }


def itemsets_for(seed: int, lhs, count: int = 64) -> list[int]:
    """The seed picks which LHS itemsets the point lookups ask about."""
    rng = np.random.default_rng([0x70F, seed])
    return [int(value) for value in rng.choice(lhs, size=count, replace=False)]


def run(seed: int, seconds: float, tracer_factory=None, cardinality=None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed (at least one).

    The stream is the fixed full-size one, whose single-pass readouts are
    cached; a smaller ``cardinality`` (the self-test) computes them here.
    """
    if cardinality is None:
        lhs, rhs = common.dataset_one(reference.STREAM_SEED)
        expected, why = reference.load(lhs, rhs)
        if expected is None:
            print(why, file=sys.stderr)
    else:
        lhs, rhs = common.dataset_one(reference.STREAM_SEED, cardinality)
        expected = reference.single_pass(lhs, rhs)
    workdir = common.WORK / "replay-durable"
    workdir.mkdir(parents=True, exist_ok=True)
    prefix = workdir / "prefix"
    prepare(lhs, rhs, prefix)
    itemsets = itemsets_for(seed, lhs)
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        tracer = tracer_factory() if tracer_factory else None
        result = run_round(lhs, rhs, prefix, workdir, itemsets, expected, tracer)
        result["trace"] = tracer.dump() if tracer else None
        rounds.append(result)
    shutil.rmtree(prefix, ignore_errors=True)
    return rounds
