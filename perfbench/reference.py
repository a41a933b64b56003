"""The single-pass reference readouts for ``replay-durable``.

The paper's estimator is one pass of the scalar ``update`` loop over the
stream.  Running that loop over the whole 1.03 M-tuple stream for five
profiles takes about 15 s, so its readouts are cached in
``reference.json`` next to this file.  Recompute the cache with::

    python3 perfbench/reference.py

Every run re-derives the readouts of a short prefix with the same loop
and compares them with the cached prefix readouts, so a change to the
scalar path that would make the cache stale is caught, not trusted.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

CACHE = Path(__file__).resolve().parent / "reference.json"
#: The replay-durable stream is one fixed stream: its single-pass
#: reference must not depend on the run's seed.
STREAM_SEED = 0
NUM_BITMAPS = 64
PREFIX = 16384


def stream_key(lhs, rhs) -> str:
    digest = hashlib.sha256()
    digest.update(lhs.tobytes())
    digest.update(rhs.tobytes())
    return digest.hexdigest()[:16]


def single_pass(lhs, rhs, num_bitmaps: int = NUM_BITMAPS) -> dict[str, dict]:
    """Readouts of the scalar ``update`` loop, per default profile."""
    from repro.core.estimator import ImplicationCountEstimator
    from repro.serving.service import default_profiles

    pairs = list(zip(lhs.tolist(), rhs.tolist()))
    readouts = {}
    for name, conditions in default_profiles().items():
        estimator = ImplicationCountEstimator(
            conditions, num_bitmaps=num_bitmaps, seed=0
        )
        for itemset, partner in pairs:
            estimator.update(itemset, partner)
        readouts[name] = {
            "implication": estimator.implication_count(),
            "nonimplication": estimator.nonimplication_count(),
            "supported": estimator.supported_distinct_count(),
        }
    return readouts


def build() -> dict:
    lhs, rhs = common.dataset_one(STREAM_SEED)
    return {
        "stream": stream_key(lhs, rhs),
        "num_bitmaps": NUM_BITMAPS,
        "prefix": PREFIX,
        "prefix_readouts": single_pass(lhs[:PREFIX], rhs[:PREFIX]),
        "readouts": single_pass(lhs, rhs),
    }


def load(lhs, rhs) -> tuple[dict | None, str]:
    """The cached readouts if they still describe this program and stream."""
    if not CACHE.is_file():
        return None, f"{CACHE.name} missing; run python3 perfbench/reference.py"
    cached = json.loads(CACHE.read_text())
    if cached["stream"] != stream_key(lhs, rhs) or cached["num_bitmaps"] != NUM_BITMAPS:
        return None, f"{CACHE.name} describes another stream; recompute it"
    prefix = cached["prefix"]
    fresh = single_pass(lhs[:prefix], rhs[:prefix])
    if fresh != cached["prefix_readouts"]:
        return None, (
            f"the scalar loop now reads {fresh} on the first {prefix} tuples, "
            f"the cache says {cached['prefix_readouts']}; recompute {CACHE.name}"
        )
    return cached["readouts"], ""


def main() -> int:
    common.ensure_source_tree()
    CACHE.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {CACHE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
