"""``paced-reads``: ``repro serve`` driven over HTTP.

One client process, two keep-alive connections: connection 1 pushes the
stream (``POST /ingest``) on an open-loop schedule and then flat out,
connection 2 runs the read mix closed loop.  The server is
``repro.serving.cli.main`` started through ``launcher.py`` in a
subprocess of its own.
"""

from __future__ import annotations

import http.client
import json
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import common

HERE = Path(__file__).resolve().parent
#: Server spawns timed per run (including each round's own); setup_s is
#: their median.  Start-up is CPU-bound and this host's speed wanders by
#: +-20% from one second to the next, so it takes many spawns.
SETUPS = 11
#: Reads stop after this long even if the stream never shows as covered,
#: so a stalled server fails the run instead of hanging it.
READ_DEADLINE = 120.0
#: A 429 is retried after this pause.  The server's Retry-After hint is
#: 1 s; a 64-batch backlog outlasts 20 ms at any ingest rate below
#: ~13 M tuples/s, so the pause never starves the ingest loop.
RETRY_PAUSE = 0.02


@dataclass
class Shape:
    """The input make-up of the HTTP workload."""

    num_bitmaps: int = 16
    #: Sliding window W = 4 batches in the default 4 panes: one pane per
    #: batch, so every batch rotates a pane and every publish merges the
    #: live panes.
    window: int = 4 * common.BATCH
    window_generations: int = 4
    #: Open-loop push rate in tuples/s: one 4096-tuple chunk every 256 ms,
    #: below what today's default front-end sustains with an empty backlog.
    pace: float = 16000.0
    #: Chunks pushed flat out after the paced phase.
    tail_chunks: int = 48
    #: |A| of the Dataset One stream (the self-test shrinks it).
    cardinality: int = common.CARDINALITY
    #: Paced reads needed so that p99 has ten samples beyond it.
    min_reads: int = 1000
    #: Paced chunks at least.  Fixed, so that every run ingests the same
    #: tuples whatever the read latency; 176 chunks at 16k tuples/s take
    #: 45 s, enough for 1000 reads at today's 44 ms per read.
    min_chunks: int = 176

    def serve_args(self) -> list[str]:
        return [
            "--source", "push",
            "--num-bitmaps", str(self.num_bitmaps),
            "--batch-size", str(common.BATCH),
            "--window", str(self.window),
            "--port", "0",
        ]


PACED_READS = Shape()


class Server:
    """One ``repro serve`` subprocess; setup time is spawn to ``listening``."""

    def __init__(self, shape: Shape, workdir: Path, trace_out: Path | None = None) -> None:
        command = [sys.executable, str(HERE / "launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", *shape.serve_args()]
        self.log = open(workdir / "server.log", "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=common.child_env(),
            cwd=common.ROOT,
        )
        try:
            line = self._line(timeout=120.0)
            self.setup_s = time.perf_counter() - started
            event = json.loads(line)
            if event.get("event") != "listening":
                raise RuntimeError(f"unexpected first line {line!r}")
            self.port = int(event["port"])
        except BaseException:
            self.stop()
            raise

    def _line(self, timeout: float) -> bytes:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError(f"server printed nothing within {timeout} s")
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with {self.process.wait()} before listening")
        return line

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        return float("nan")

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM and wait for the ``stopped`` line, or SIGKILL a server
        that only served to time its start-up."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
            try:
                self.process.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
        else:
            self.process.communicate()
        self.log.close()


class Client:
    """One keep-alive connection; every request is timed."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, url: str, body: bytes | None = None, content_type: str = ""):
        headers = {"Content-Type": content_type} if content_type else {}
        started = time.perf_counter()
        self.connection.request(method, url, body=body, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        done = time.perf_counter()
        dispatch_ns = response.getheader("X-Perfbench-Dispatch-Ns")
        return response.status, data, started, done, dispatch_ns

    def close(self) -> None:
        self.connection.close()


@dataclass
class Reads:
    """What the read connection measured."""

    latencies_ms: list[float] = field(default_factory=list)
    done_at: list[float] = field(default_factory=list)
    frontend_wait_ms: list[float] = field(default_factory=list)
    #: (time the response arrived, cursor it reported)
    cursors: list[tuple[float, int]] = field(default_factory=list)
    faults: list[str] = field(default_factory=list)
    count: int = 0


def read_mix(profiles: list[str], itemsets: list[int]):
    """One cycle of the read mix: per-profile query and window query,
    point lookups, a by-conditions query and the metrics endpoint."""
    for index, name in enumerate(profiles):
        yield f"/query?profile={name}"
        yield f"/query?profile={name}&window=1"
        yield f"/top?profile={name}&itemset={itemsets[index % len(itemsets)]}"
    yield "/query?min_support=4"
    yield "/metrics"


def _read_until(client: Client, reads: Reads, ledger: common.ReadLedger, itemsets,
                finished) -> bool:
    """Closed-loop reads until ``finished(cursor)`` says the stream is
    covered (returns True), or READ_DEADLINE seconds pass (False)."""
    profiles = list(common.PROFILE_MIN_SUPPORT)
    deadline = time.perf_counter() + READ_DEADLINE
    cycle = 0
    while time.perf_counter() < deadline:
        for url in read_mix(profiles, itemsets[cycle:] + itemsets[:cycle]):
            status, data, started, done, dispatch_ns = client.request("GET", url)
            reads.count += 1
            reads.latencies_ms.append((done - started) * 1e3)
            reads.done_at.append(done)
            if dispatch_ns is not None:
                reads.frontend_wait_ms.append((done - started) * 1e3 - int(dispatch_ns) / 1e6)
            if status != 200:
                reads.faults.append(f"{url}: {status}")
                continue
            cursor = None
            if not url.startswith("/metrics"):
                cursor = ledger.observe(json.loads(data))
            if cursor is not None:
                reads.cursors.append((done, cursor))
                if finished(cursor):
                    return True
        cycle += 1
    return False


class Pusher(threading.Thread):
    """Connection 1: pushes chunks on a schedule, then a flat-out tail."""

    def __init__(self, port: int, bodies: list[bytes], shape: Shape, seconds: float,
                 reads: Reads) -> None:
        super().__init__(name="pusher", daemon=True)
        self.port = port
        self.bodies = bodies
        self.shape = shape
        self.seconds = seconds
        self.reads = reads
        self.tail_start = None
        self.paced_chunks = 0
        self.due: list[float] = []
        self.lateness_ms: list[float] = []
        self.retries = 0
        self.pushes = 0
        self.total_chunks: int | None = None
        self.faults: list[str] = []
        self.error: BaseException | None = None

    def _push(self, client: Client, index: int, last: bool) -> None:
        url = "/ingest?close=1" if last else "/ingest"
        while True:
            status, data, _, _, _ = client.request(
                "POST", url, self.bodies[index], "application/json"
            )
            if status == 429:
                self.retries += 1
                time.sleep(RETRY_PAUSE)
                continue
            self.pushes += 1
            if status != 200:
                self.faults.append(f"push {index}: {status} {data[:200]!r}")
            return

    def _schedule(self, started: float) -> Iterator[tuple[int, float]]:
        """Paced chunks: at least ``min_chunks`` and ``seconds`` worth, and
        on until ``min_reads`` reads are done, leaving room for the tail."""
        interval = common.BATCH / self.shape.pace
        limit = len(self.bodies) - self.shape.tail_chunks
        index = 0
        while index < limit:
            due = started + index * interval
            now = time.perf_counter()
            if index >= self.shape.min_chunks and now - started >= self.seconds and (
                self.reads.count >= self.shape.min_reads
            ):
                break
            if due > now:
                time.sleep(due - now)
            yield index, due
            index += 1

    def run(self) -> None:
        client = Client(self.port)
        try:
            started = time.perf_counter() + 0.05
            sent = 0
            for index, due in self._schedule(started):
                self.lateness_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
                self.due.append(due)
                self._push(client, index, False)
                sent = index + 1
            self.paced_chunks = sent
            self.total_chunks = sent + self.shape.tail_chunks
            self.tail_start = time.perf_counter()
            for index in range(sent, self.total_chunks):
                self._push(client, index, index == self.total_chunks - 1)
        except Exception as error:  # run_round raises it in the main thread
            self.error = error
        finally:
            client.close()


def _encode(lhs, rhs) -> list[bytes]:
    """The JSON ``POST /ingest`` body of every 4096-tuple chunk."""
    return [
        json.dumps(
            {"lhs": lhs[start:start + common.BATCH].tolist(),
             "rhs": rhs[start:start + common.BATCH].tolist()}
        ).encode()
        for start in range(0, len(lhs), common.BATCH)
    ]


def _first_cover(cursors: list[tuple[float, int]], position: int) -> float | None:
    for when, cursor in cursors:
        if cursor >= position:
            return when
    return None


def run_round(shape: Shape, lhs, rhs, bodies, itemsets, seconds, workdir: Path,
              trace: bool, extra_setups: list[float]) -> dict:
    trace_out = workdir / "trace.json" if trace else None
    if trace_out is not None and trace_out.exists():
        trace_out.unlink()
    server = Server(shape, workdir, trace_out)
    checks = common.Checks()
    try:
        reads = Reads()
        ledger = common.ReadLedger(shape.window, shape.window_generations)
        pusher = Pusher(server.port, bodies, shape, seconds, reads)
        reader = Client(server.port)
        pusher.start()

        def finished(cursor: int) -> bool:
            if pusher.error is not None or pusher.faults:
                return True
            total = pusher.total_chunks
            return total is not None and cursor >= min(len(lhs), total * common.BATCH)

        try:
            covered = _read_until(reader, reads, ledger, itemsets, finished)
            covered_at = reads.done_at[-1]
            pusher.join(timeout=READ_DEADLINE)
            if pusher.error is not None or pusher.is_alive() or not covered:
                raise RuntimeError(
                    f"round did not finish: pusher error {pusher.error!r}, "
                    f"pusher alive {pusher.is_alive()}, stream covered {covered}"
                )
            sent = min(len(lhs), pusher.total_chunks * common.BATCH)
            final = {}
            sizes = 0
            for name in common.PROFILE_MIN_SUPPORT:
                status, data, *_ = reader.request("GET", f"/query?profile={name}")
                if status == 200:
                    final[name] = json.loads(data)
                    ledger.observe(final[name])
                status, data, *_ = reader.request("GET", f"/snapshot?profile={name}")
                sizes += len(data) if status == 200 else 0
                status, data, *_ = reader.request("GET", f"/snapshot?profile={name}&window=1")
                sizes += len(data) if status == 200 else 0
        finally:
            reader.close()
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    checks.check("every push accepted", not pusher.faults, "; ".join(pusher.faults[:3]))
    checks.check("every read answered 200", not reads.faults, "; ".join(reads.faults[:3]))
    ledger.record(checks, reads.count)
    stats = {name: body["stats"] for name, body in final.items()}
    cursors = {name: body["cursor"] for name, body in final.items()}
    common.check_final(checks, stats, cursors, lhs[:sent])

    timed_reads = [
        ms for ms, done in zip(reads.latencies_ms, reads.done_at) if done <= pusher.tail_start
    ]
    tail = sent - pusher.paced_chunks * common.BATCH
    ingest_tps = tail / (covered_at - pusher.tail_start)
    freshness = []
    for index, due in enumerate(pusher.due):
        seen = _first_cover(reads.cursors, (index + 1) * common.BATCH)
        if seen is not None:
            freshness.append((seen - due) * 1e3)
    checks.check("every paced chunk seen published", len(freshness) == len(pusher.due),
                 f"{len(freshness)} of {len(pusher.due)}")
    samples = {
        "paced_chunks": pusher.paced_chunks,
        "lateness_p50_ms": common.quantile(pusher.lateness_ms, 0.5),
        "lateness_max_ms": max(pusher.lateness_ms),
    }
    checks.check(f"at least {shape.min_reads} timed reads", len(timed_reads) >= shape.min_reads,
                 f"{len(timed_reads)} reads")
    trace_dump = None
    if trace_out is not None and trace_out.exists():
        trace_dump = json.loads(trace_out.read_text())
    setups = extra_setups + [server.setup_s]
    samples.update({"reads": len(timed_reads), "pushes": pusher.pushes,
                    "retries": pusher.retries, "tuples": sent, "setups_s": setups})
    return {
        "checks": checks,
        "operations": pusher.pushes + reads.count,
        "setup_s": common.median(setups),
        "ingest_tps": ingest_tps,
        "query_p50_ms": common.quantile(timed_reads, 0.5),
        "query_p99_ms": common.quantile(timed_reads, 0.99),
        "freshness_p50_ms": common.quantile(freshness, 0.5),
        "freshness_p90_ms": common.quantile(freshness, 0.9),
        "peak_rss_mb": peak_rss,
        "checkpoint_kb": sizes / 1024,
        "samples": samples,
        "trace": trace_dump,
        "frontend_wait_ms": reads.frontend_wait_ms,
    }


def run(shape: Shape, seed: int, seconds: float, tracer_factory=None) -> list[dict]:
    """Whole rounds (one server each) until ``seconds`` have passed."""
    workdir = common.WORK / "paced-reads"
    workdir.mkdir(parents=True, exist_ok=True)
    lhs, rhs = common.dataset_one(seed, shape.cardinality)
    bodies = _encode(lhs, rhs)
    itemsets = [int(value) for value in lhs[:: max(1, len(lhs) // 64)][:64]]
    trace = tracer_factory is not None
    extra = []
    for _ in range(SETUPS - 1):
        server = Server(shape, workdir)
        extra.append(server.setup_s)
        server.stop(graceful=False)
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(run_round(shape, lhs, rhs, bodies, itemsets, seconds, workdir, trace,
                                extra))
    return rounds


def run_paced_reads(seed: int, seconds: float, tracer_factory=None) -> list[dict]:
    return run(PACED_READS, seed, seconds, tracer_factory)
