"""Replay-prefix memoization (``repro.dedup``).

Every post-failure task starts recovery from its failure point's crash
image.  Consecutive failure points differ by a handful of cache lines,
so rebuilding each image from scratch (``SnapshotStore.materialize``
plus a ``PMPool`` copy, O(pool) per task) rewrites mostly identical
bytes.  :class:`~repro.dedup.memo.ImageMemo` keeps one rolling crash
image per worker, advanced by the store's per-failure-point deltas, so
preparing a task costs O(divergence) instead.

The memo is the post-failure stage's as-written restore path whenever
the store records deltas; the persisted-only ablation mode keeps the
materialize path.  Every failure point still runs and replays: the
memo changes how an image is built, never which crash states execute.
"""

from repro.dedup.memo import (
    ImageMemo,
    TrackedPool,
    drop_local_memo,
    memo_for,
)

__all__ = [
    "ImageMemo",
    "TrackedPool",
    "memo_for",
    "drop_local_memo",
]
