"""Incremental crash-image fingerprints.

A pool's crash image at failure point *f* is its base image plus every
line delta recorded up to *f*.  Hashing the materialized image per
failure point would cost O(pool) each time — exactly the cost the
delta snapshot store exists to avoid — so the fingerprint is kept
incrementally as an **XOR fold** of per-line hashes:

    fold(f) = B ^ XOR over ever-touched lines of
              H(offset ‖ current line content)

``B`` names the base image.  ``SnapshotStore.capture`` records each
pool's base image exactly once per store, so every fingerprint of that
pool in the store starts from the same base and ``B`` is a per-store
constant (:data:`STORE_BASE_TERM`): no byte of the base is hashed.
``SnapshotStore.capture_full`` records a full image per failure point,
so there ``B = H(base image)`` (:func:`blob_hash`).  Fingerprints are
only ever compared within one store.

When a capture touches a line, its previous term is XORed out and the
new one XORed in: O(dirty lines) per failure point, like the snapshot
itself.  XOR is order-independent, so the fold depends only on the
final per-line contents, not on the update sequence.

Soundness is one-directional by construction: **equal folds imply
equal images** (up to a 128-bit hash collision) — equal folds mean the
same base term and the same multiset of per-line terms, hence the same
touched-line set with the same contents, and untouched lines equal the
shared base.  The converse can fail: a line rewritten back to its base
content still carries a term the untouched image lacks, so two equal
images may have different folds.  That direction only costs a missed
dedup — never a wrong merge — which is the correct failure mode for an
optimization.
"""

from __future__ import annotations

import hashlib

#: Fold width: 16 bytes.  The fold of a pool with T ever-touched lines
#: collides with probability ~T²/2¹²⁸ — negligible at any real T.
DIGEST_SIZE = 16


def line_hash(offset, content):
    """The fold term of one cache line: H(offset ‖ content)."""
    digest = hashlib.blake2b(
        offset.to_bytes(8, "little"), digest_size=DIGEST_SIZE
    )
    digest.update(content)
    return int.from_bytes(digest.digest(), "little")


def blob_hash(content):
    """The fold term of one full base image."""
    digest = hashlib.blake2b(b"pool-image\x00", digest_size=DIGEST_SIZE)
    digest.update(content)
    return int.from_bytes(digest.digest(), "little")


#: The fold term of the one base image a store's ``capture`` records
#: per pool; domain-separated from every :func:`blob_hash` term.
STORE_BASE_TERM = int.from_bytes(
    hashlib.blake2b(b"store-base\x00", digest_size=DIGEST_SIZE).digest(),
    "little",
)


class PoolFold:
    """The incremental fingerprint state of one pool.

    Tracks two folds side by side — the program-view (``data``) image
    and the persisted-only image — because the two can diverge on any
    volatile line and both feed the class key: a crash-state variant's
    effective image is a mix of the two.
    """

    __slots__ = ("data_fold", "persist_fold", "_line_data",
                 "_line_persist")

    def __init__(self):
        self.data_fold = 0
        self.persist_fold = 0
        self._line_data = {}  # offset -> current term
        self._line_persist = {}

    def _restart(self, data_term, persist_term):
        self.data_fold = data_term
        self.persist_fold = persist_term
        self._line_data.clear()
        self._line_persist.clear()

    def reset_base(self):
        """Restart the fold from the store's one recorded base image of
        this pool (:data:`STORE_BASE_TERM`).

        Returns the number of bytes hashed: none.
        """
        self._restart(STORE_BASE_TERM, STORE_BASE_TERM)
        return 0

    def reset_full(self, data, persisted):
        """Restart the fold from a full base image.

        Returns the number of bytes hashed.
        """
        self._restart(blob_hash(data), blob_hash(persisted))
        return len(data) + len(persisted)

    def update_line(self, offset, data, persisted):
        """Fold in one touched line's new contents.

        Returns the number of bytes hashed.
        """
        term = line_hash(offset, data)
        self.data_fold ^= self._line_data.get(offset, 0) ^ term
        self._line_data[offset] = term
        term = line_hash(offset, persisted)
        self.persist_fold ^= self._line_persist.get(offset, 0) ^ term
        self._line_persist[offset] = term
        return len(data) + len(persisted)

    def record(self, volatile_lines):
        """This pool's per-failure-point fingerprint record.

        ``volatile_lines`` rides along verbatim: a survivor mask's
        meaning depends on which lines are volatile, so two images can
        only share crash-state variants when their volatile sets match.
        """
        return (self.data_fold, self.persist_fold,
                tuple(volatile_lines))
