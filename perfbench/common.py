"""Inputs, statistics and output checks shared by every workload.

Nothing here calls into the program under test: the stream generator,
the ground truth and the checks are written from the paper's Section 6.1
recipe and from the service's documented response shapes, so a fault in
the program cannot hide itself by also breaking the check.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Everything the benchmark writes lives here (checkpoints, the compiled
#: kernel cache, trace dumps); the directory is ignored by git.
WORK = ROOT / ".bench_build" / "perfbench"

#: Section 6.1 Dataset One at the paper's scale: |A| = 20000, S = 10000, c = 1.
CARDINALITY = 20000
BATCH = 4096

#: The five default condition profiles, written out so the checks do not
#: read them from the program: name -> minimum support.
PROFILE_MIN_SUPPORT = {
    "support-only": 4,
    "multiplicity": 3,
    "one-to-one": 1,
    "noisy-confidence": 2,
    "top2-confidence": 2,
}


def ensure_source_tree() -> None:
    """Put the checkout's ``src`` on the path, or exit without a result."""
    if not (SRC / "repro" / "serving" / "service.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for the benchmark and its subprocesses.

    The compiled-kernel cache and the compiler's temporary files go under
    the checkout, so a run writes nothing outside it.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "repro-kernels")
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def dataset_one(seed: int, cardinality: int = CARDINALITY) -> tuple[np.ndarray, np.ndarray]:
    """The Section 6.1 Dataset One stream (c = 1), shuffled by ``seed``.

    At the default ``cardinality`` (|A| = 20000, S = |A| / 2):

    * 10000 participants: one partner written 50 times plus 4 one-tuple
      noise partners;
    * 3333 confidence violators: one partner x50 plus 8 noise partners;
    * 3333 multiplicity violators: 11..20 distinct partners within 50
      tuples (the cap is 10 c);
    * 3334 support violators: one pair written 40 times.

    1 033 324 tuples whatever the seed.  LHS ids are a seeded sample of
    distinct 40-bit integers; RHS ids are disjoint from them.  A smaller
    ``cardinality`` scales every group down (the self-test uses it).
    """
    rng = np.random.default_rng([0x6B1, seed])
    implied = cardinality // 2
    confidence = multiplicity = (cardinality - implied) // 3
    ids = rng.choice(1 << 40, size=cardinality, replace=False).astype(np.uint64)
    groups = np.split(ids, np.cumsum([implied, confidence, multiplicity]))
    participants, confident, multiple, supported = groups
    lhs_parts: list[np.ndarray] = []
    rhs_parts: list[np.ndarray] = []
    next_partner = [1 << 41]

    def partners(count: int) -> np.ndarray:
        start = next_partner[0]
        next_partner[0] += count
        return np.arange(start, start + count, dtype=np.uint64)

    def emit(owners: np.ndarray, mates: np.ndarray, repeat: int) -> None:
        lhs_parts.append(np.repeat(owners, repeat))
        rhs_parts.append(np.repeat(mates, repeat))

    emit(participants, partners(len(participants)), 50)
    emit(np.repeat(participants, 4), partners(4 * len(participants)), 1)
    emit(confident, partners(len(confident)), 50)
    emit(np.repeat(confident, 8), partners(8 * len(confident)), 1)
    counts = rng.integers(11, 21, size=len(multiple))
    mates = partners(int(counts.sum()))
    emit(np.repeat(multiple, counts), mates, 1)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    emit(np.repeat(multiple, 50 - counts), np.repeat(mates[first], 50 - counts), 1)
    emit(supported, partners(len(supported)), 40)
    lhs = np.concatenate(lhs_parts)
    rhs = np.concatenate(rhs_parts)
    order = rng.permutation(len(lhs))
    return lhs[order], rhs[order]


def exact_supported(lhs: np.ndarray, min_support: int) -> int:
    """Exact F0_sup: distinct LHS values occurring at least ``min_support`` times."""
    _, counts = np.unique(lhs, return_counts=True)
    return int(np.count_nonzero(counts >= min_support))


def f0_tolerance(num_bitmaps: int, truth: int) -> float:
    """Three FM standard errors (0.78 / sqrt(m)) plus one per bitmap."""
    return 3 * 0.78 / math.sqrt(num_bitmaps) * truth + num_bitmaps


def quantile(values, q: float) -> float:
    """The ``q`` quantile by linear interpolation between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return statistics.median(values)


class Checks:
    """Named pass/fail outcomes; each one is an attempted operation."""

    def __init__(self) -> None:
        self.outcomes: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.outcomes.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [outcome for outcome in self.outcomes if not outcome[1]]


def check_single_pass(
    checks: Checks, stats: dict[str, dict], expected: dict[str, dict], same: float = 1e-9
) -> None:
    """Each profile's served S, S-bar and F0_sup against the readouts of
    the scalar single-pass loop over the same stream."""
    for name in PROFILE_MIN_SUPPORT:
        served = stats.get(name, {})
        wanted = expected.get(name, {})
        differences = {
            key: (served.get(key), wanted.get(key))
            for key in ("implication", "nonimplication", "supported")
            if served.get(key) is None
            or wanted.get(key) is None
            or abs(served[key] - wanted[key]) > same * max(1.0, abs(wanted[key]))
        }
        checks.check(
            f"{name}: served readouts equal the single-pass estimate",
            not differences,
            f"served vs single pass {differences}",
        )


class ReadLedger:
    """What reads observed, for the consistency checks.

    * every (profile, cursor) maps to exactly one digest (and, on a
      windowed service, one window digest);
    * the cursors one reader sees never decrease;
    * a window covers ``min(cursor, W)`` tuples, give or take the
      documented pane granularity: once full, ``W <= covered < W + W/G``.
    """

    def __init__(self, window: int | None = None, generations: int = 1) -> None:
        self.window = window
        self.pane = window // generations if window else 0
        self.digests: dict[tuple[str, int, str], set[str]] = {}
        self.last_cursor = -1
        self.regressions = 0
        self.window_faults: list[str] = []
        self.window_reads = 0

    def observe(self, body: dict) -> int | None:
        """Record one read response; returns the cursor it reports."""
        cursor = body.get("cursor")
        if cursor is None:
            return None
        if cursor < self.last_cursor:
            self.regressions += 1
        self.last_cursor = max(self.last_cursor, cursor)
        profile = body.get("profile")
        if "digest" in body:
            self.digests.setdefault((profile, cursor, "landmark"), set()).add(
                body["digest"]
            )
        window = body.get("window")
        if isinstance(window, dict) and self.window is not None:
            self.window_reads += 1
            self.digests.setdefault((profile, cursor, "window"), set()).add(
                window["digest"]
            )
            covered = window["covered"]
            if cursor < self.window:
                ok = covered == cursor
            else:
                ok = self.window <= covered < self.window + self.pane
            if not ok:
                self.window_faults.append(f"{profile}@{cursor}: covered {covered}")
        elif "window_digest" in body and self.window is not None:
            self.digests.setdefault((profile, cursor, "window"), set()).add(
                body["window_digest"]
            )
        return cursor

    def record(self, checks: Checks, reads: int) -> None:
        split = {key: len(seen) for key, seen in self.digests.items() if len(seen) != 1}
        checks.check(
            "one digest per (profile, cursor)",
            not split and bool(self.digests),
            f"{len(self.digests)} keys, split: {sorted(split)[:3]}",
        )
        checks.check(
            "cursors never decrease",
            self.regressions == 0 and reads > 0,
            f"{self.regressions} regressions over {reads} reads",
        )
        if self.window is not None:
            checks.check(
                "window covers the last W tuples",
                not self.window_faults and self.window_reads > 0,
                f"{self.window_reads} window reads; {self.window_faults[:3]}",
            )


def check_final(
    checks: Checks,
    stats: dict[str, dict],
    cursors: dict[str, int],
    sent: np.ndarray,
) -> None:
    """Tuple conservation: every profile saw exactly the tuples sent."""
    checks.check(
        "every profile served",
        set(stats) == set(PROFILE_MIN_SUPPORT),
        f"profiles {sorted(stats)}",
    )
    for name in PROFILE_MIN_SUPPORT:
        profile_stats = stats.get(name, {})
        checks.check(
            f"{name}: tuples conserved",
            profile_stats.get("tuples") == len(sent) and cursors.get(name) == len(sent),
            f"tuples {profile_stats.get('tuples')}, cursor {cursors.get(name)}, "
            f"sent {len(sent)}",
        )


def check_f0(
    checks: Checks, stats: dict[str, dict], sent: np.ndarray, num_bitmaps: int
) -> None:
    """F0_sup within three FM standard errors of the exact count.

    Only made on a stream that does not depend on the run's seed: on some
    seeded streams the program's estimate lands far outside this envelope
    (CHANGES.md records the fault), and a check that fails on some seeds
    only would make the failed share differ from run to run.
    """
    for name, min_support in PROFILE_MIN_SUPPORT.items():
        truth = exact_supported(sent, min_support)
        served = stats.get(name, {}).get("supported", float("nan"))
        checks.check(
            f"{name}: F0_sup within 3 sigma",
            abs(served - truth) <= f0_tolerance(num_bitmaps, truth),
            f"served {served:.0f}, exact {truth}",
        )
