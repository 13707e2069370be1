"""Crash images: the PM contents a post-failure execution starts from.

When the frontend hits a failure point it copies the current PM image and
later runs the post-failure stage on the copy (paper Section 5.4 step 3).
The paper's copy "contains all updates (including those not persisted
before the failure point)" — detection of reads from non-persisted data
happens through the shadow PM, not through data corruption.  We call that
mode :attr:`CrashImageMode.AS_WRITTEN`.

We additionally support :attr:`CrashImageMode.PERSISTED_ONLY`, where
bytes on lines not yet explicitly persisted revert to their last
persisted contents.  This strict mode makes bugs observable that manifest
through real data loss rather than through a flagged read — the paper's
Bug 4 (incomplete pool metadata making the post-failure ``open()`` fail)
is the canonical example — and powers the crash-image ablation bench.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CrashImageMode(enum.Enum):
    """How a crash image treats data that was not yet persisted."""

    #: All writes present (paper default, Section 5.4 footnote 3).
    AS_WRITTEN = "as-written"
    #: Non-persisted lines revert to their last persisted contents.
    PERSISTED_ONLY = "persisted-only"


@dataclass(frozen=True)
class PMImage:
    """An immutable snapshot of one pool taken at a failure point.

    ``volatile_lines`` records the cache lines whose contents were not
    guaranteed persistent at the failure (modified or writeback-
    pending), as offsets from ``base``: these are the lines a real
    crash could independently keep or lose, which powers the
    crash-state enumeration extension (:func:`variant_bytes`).
    """

    pool_name: str
    base: int
    data: bytes  # program view at the failure point
    persisted_data: bytes  # strict view at the failure point
    volatile_lines: tuple = ()

    @property
    def size(self):
        return len(self.data)

    def bytes_for(self, mode):
        """Image contents for the requested crash-image mode."""
        if mode is CrashImageMode.AS_WRITTEN:
            return self.data
        if mode is CrashImageMode.PERSISTED_ONLY:
            return self.persisted_data
        raise ValueError(f"unknown crash image mode: {mode!r}")

    def variant_bytes(self, survivor_mask):
        """A pmreorder-style crash state: volatile line ``i`` keeps its
        new contents iff bit ``i`` of ``survivor_mask`` is set,
        otherwise it reverts to its persisted contents.

        A mask of all ones equals the as-written image; all zeros
        equals the persisted-only image.  Real hardware can produce any
        of these states (caches evict at will), so sampling masks
        exercises recovery paths data-value-dependent bugs hide in.
        """
        from repro.pm.constants import CACHE_LINE_SIZE

        out = bytearray(self.data)
        for bit, offset in enumerate(self.volatile_lines):
            if survivor_mask & (1 << bit):
                continue
            end = min(offset + CACHE_LINE_SIZE, self.size)
            out[offset:end] = self.persisted_data[offset:end]
        return bytes(out)

    @property
    def crash_state_count(self):
        """Number of distinct enumerable crash states."""
        return 1 << len(self.volatile_lines)


def volatile_lines_for(pool, cache):
    """Offsets (from ``pool.base``) of lines whose contents were not
    guaranteed persistent under ``cache`` — the enumerable crash bits."""
    base, end = pool.base, pool.end
    return tuple(sorted(
        line - base for line in cache.volatile_lines()
        if base <= line < end
    ))


def capture_image(pool, cache):
    """Snapshot ``pool`` under cache model ``cache`` into a PMImage."""
    current = pool.raw_bytes()
    strict = cache.persisted_only_overlay(pool.base, pool.size, current)
    return PMImage(
        pool.name, pool.base, current, strict,
        volatile_lines_for(pool, cache),
    )
