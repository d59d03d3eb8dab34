"""Workload definitions and seeded input generation.

Every workload draws Zipf(1.2) items over a universe of 2**16 from the
benchmark's ``--seed``; the server under test only ever sees the generated
items (its own sketch seed is the constant :data:`SKETCH_SEED`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

UNIVERSE = 1 << 16
ZIPF_SKEW = 1.2
#: The ``serve --seed`` of every run: the sketch's randomness is part of the
#: program under test, so it stays fixed while the workload seed varies inputs.
SKETCH_SEED = 16


@dataclass(frozen=True)
class Workload:
    """One traffic mix: the served configuration and how the client drives it."""

    name: str
    algorithm: str            # `repro serve --algorithm`
    epsilon: float
    phi: float
    items: int                # items per stream (also the declared --stream-length)
    frame_items: int          # items per pushed frame
    chunk_items: int          # `repro serve --chunk-size`
    check_items: int          # items of the once-per-run served-equals-offline leg
    streams: int = 0          # 0: the default stream; k: named streams s0..s(k-1)
    steps: int = 0            # tenants: push-then-query steps of the fixed schedule
    max_live_streams: Optional[int] = None
    restart: bool = False     # SIGKILL after the run and recover on the same WAL dir
    query_every: int = 0      # default stream: one mid-ingest query after every N-th frame
    check_leg_queries: bool = False  # ... pushed in the untimed check leg, not the rounds
    wal_fsync: str = "always"  # `repro serve --wal-fsync`
    round_seconds: float = 7.0  # nominal length of one round; --seconds sizes the count

    def serve_flags(self, stream_length: Optional[int] = None) -> List[str]:
        flags = [
            "--algorithm", self.algorithm,
            "--epsilon", repr(self.epsilon),
            "--phi", repr(self.phi),
            "--universe", str(UNIVERSE),
            "--stream-length", str(stream_length or self.items),
            "--seed", str(SKETCH_SEED),
            "--chunk-size", str(self.chunk_items),
            "--wal-fsync", self.wal_fsync,
        ]
        if self.max_live_streams is not None:
            flags += ["--max-live-streams", str(self.max_live_streams)]
        return flags

    @property
    def report_phi(self) -> Optional[float]:
        """Misra-Gries takes phi at report time; the paper's sketches fix it."""
        return self.phi if self.algorithm == "misra-gries" else None

    @property
    def appends_per_fsync(self) -> int:
        """How many journal appends the ``--wal-fsync`` policy lets pass per fsync."""
        return 1 if self.wal_fsync == "always" else int(self.wal_fsync.split(":")[1])

    @property
    def round_query_every(self) -> int:
        return 0 if self.check_leg_queries else self.query_every

    @property
    def check_query_every(self) -> int:
        return self.query_every if self.check_leg_queries else 0

    def rounds(self, seconds: float) -> int:
        return max(1, int(round(seconds / self.round_seconds)))


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="ingest-small-mg",
            algorithm="misra-gries", epsilon=0.01, phi=0.05,
            items=10_000_000, frame_items=1024, chunk_items=1 << 16, check_items=1 << 17,
            # One query per chunk of pushed items: 152 per round.
            query_every=64, restart=True, wal_fsync="interval:64", round_seconds=6.0,
        ),
        Workload(
            name="ingest-alg2-sampled",
            algorithm="optimal", epsilon=0.02, phi=0.05,
            # The check leg (24 frames) passes 6*l = 1.47M items, so Algorithm 2 samples.
            items=10_000_000, frame_items=1 << 16, chunk_items=1 << 16,
            check_items=24 << 16,
            # One mid-ingest query per frame.  Each copies the sketch (~0.4 s), so
            # they go to the check leg, and the timed rounds stay pure ingest.
            query_every=1, check_leg_queries=True, round_seconds=15.0,
        ),
        Workload(
            name="tenants-alg2-mixed",
            algorithm="optimal", epsilon=0.05, phi=0.1,
            items=25 * 4096, frame_items=4096, chunk_items=4096, check_items=1 << 18,
            streams=4, steps=100, max_live_streams=2, round_seconds=30.0,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same workload at self-test size: seconds instead of minutes.

    The check leg keeps its size, so the self-test covers Algorithm 2's sampling too.
    """
    if workload.streams:
        return replace(workload, items=3 * 1024, frame_items=1024, chunk_items=1024,
                       steps=12)
    return replace(workload, items=1 << 17, chunk_items=1 << 14,
                   query_every=min(workload.query_every, 4))


def zipf_items(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` i.i.d. Zipf(ZIPF_SKEW) item ids on ``[0, UNIVERSE)`` (id 0 most frequent)."""
    weights = np.arange(1, UNIVERSE + 1, dtype=np.float64) ** -ZIPF_SKEW
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    items = np.searchsorted(cdf, rng.random(count), side="right")
    return np.minimum(items, UNIVERSE - 1).astype(np.int64)


def make_inputs(workload: Workload, seed: int) -> List[np.ndarray]:
    """One item array per stream (a single array for default-stream workloads)."""
    rng = np.random.default_rng(seed)
    return [zipf_items(rng, workload.items) for _ in range(max(1, workload.streams))]


def check_inputs(workload: Workload, seed: int) -> np.ndarray:
    """The check leg's items: drawn from ``seed`` apart from the timed streams."""
    return zipf_items(np.random.default_rng([seed, 1]), workload.check_items)


def frames_of(items: np.ndarray, frame_items: int) -> List[np.ndarray]:
    return [items[start:start + frame_items] for start in range(0, items.size, frame_items)]


def stream_name(index: int) -> str:
    return f"s{index}"


def schedule(workload: Workload) -> List[tuple]:
    """The tenants workload's fixed interleaving: ``(stream, block, queried_stream)``.

    Step ``k`` pushes block ``k // streams`` of stream ``k % streams`` and then
    queries stream ``(k % streams + 2) % streams``, which the cap has just evicted.
    """
    k = workload.streams
    return [(step % k, step // k, (step % k + 2) % k) for step in range(workload.steps)]
