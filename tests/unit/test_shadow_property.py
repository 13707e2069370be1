"""Differential property test: fast-path ShadowPM vs the reference FSM.

``repro.core.shadow.ShadowPM`` carries several hot-path optimizations —
store coalescing, slotted classes, generation-counted memoized lookups —
that must be *observationally invisible*.  This test drives identical
randomized operation sequences (stores, non-temporal stores, flushes,
fences, transactions, allocations, commit-variable writes) through the
optimized implementation and through
:class:`tests.shadow_ref.ReferenceShadowPM`, the retained
straight-line Figure 9 / Figure 10 implementation, and asserts
byte-identical persistence and consistency verdicts throughout.
"""

import random

import pytest

from repro._location import SourceLocation
from repro.core.shadow import ShadowPM
from repro.pm.cacheline import PlatformMode
from repro.pm.constants import CACHE_LINE_SIZE

from tests.shadow_ref import ReferenceShadowPM

BASE = 0x10000000
SPAN = 16 * CACHE_LINE_SIZE

_IPS = [
    SourceLocation("wl.py", n, "op") for n in range(1, 6)
]


def _verdicts(shadow, stride=1):
    return [
        (shadow.persistence_at(addr), shadow.consistency_at(addr))
        for addr in range(BASE, BASE + SPAN, stride)
    ]


class _Driver:
    """Applies one random operation to both implementations."""

    def __init__(self, rng, fast, ref):
        self.rng = rng
        self.pair = (fast, ref)
        self.in_tx = False
        self.tx_added = []
        self.tx_writes = []

    def _range(self):
        rng = self.rng
        size = rng.choice([1, 4, 8, 16, 64, 128])
        addr = BASE + rng.randrange(0, SPAN - size)
        return addr, size

    def _line(self):
        return BASE + self.rng.randrange(0, SPAN // CACHE_LINE_SIZE) \
            * CACHE_LINE_SIZE

    def step(self):
        op = self.rng.choice(
            ["store"] * 6 + ["nt_store"] * 2 + ["flush"] * 3
            + ["clflush", "fence", "fence", "tx", "alloc", "free",
               "post_store"]
        )
        getattr(self, "_do_" + op)()

    def _do_store(self):
        addr, size = self._range()
        ip = self.rng.choice(_IPS)
        for shadow in self.pair:
            shadow.record_store(
                addr, size, ip, "pre",
                tx_added=self.tx_added if self.in_tx else None,
                in_tx=self.in_tx,
            )
        if self.in_tx:
            self.tx_writes.append((addr, size))

    def _do_post_store(self):
        addr, size = self._range()
        ip = self.rng.choice(_IPS)
        for shadow in self.pair:
            shadow.record_store(addr, size, ip, "post")

    def _do_nt_store(self):
        addr, size = self._range()
        ip = self.rng.choice(_IPS)
        for shadow in self.pair:
            shadow.record_nt_store(
                addr, size, ip, "pre",
                tx_added=self.tx_added if self.in_tx else None,
                in_tx=self.in_tx,
            )
        if self.in_tx:
            self.tx_writes.append((addr, size))

    def _do_flush(self):
        line = self._line()
        for shadow in self.pair:
            shadow.record_flush(line)

    def _do_clflush(self):
        line = self._line()
        for shadow in self.pair:
            shadow.record_clflush(line)

    def _do_fence(self):
        for shadow in self.pair:
            shadow.record_fence()

    def _do_tx(self):
        if not self.in_tx:
            self.in_tx = True
            self.tx_added = []
            self.tx_writes = []
            for _ in range(self.rng.randrange(0, 3)):
                addr, size = self._range()
                self.tx_added.append((addr, size))
                ip = self.rng.choice(_IPS)
                for shadow in self.pair:
                    shadow.record_tx_add(addr, size, ip)
        else:
            for shadow in self.pair:
                shadow.commit_tx_writes(self.tx_writes)
            self.in_tx = False
            self.tx_added = []
            self.tx_writes = []

    def _do_alloc(self):
        addr, size = self._range()
        zeroed = self.rng.random() < 0.5
        for shadow in self.pair:
            shadow.record_alloc(addr, size, zeroed, "pre", True)

    def _do_free(self):
        addr, size = self._range()
        for shadow in self.pair:
            shadow.record_free(addr, size)


def _run_differential(seed, platform, commit_vars, steps=250):
    rng = random.Random(seed)
    fast = ShadowPM(platform=platform)
    ref = ReferenceShadowPM(platform=platform)
    for index in range(commit_vars):
        start = BASE + index * 4 * CACHE_LINE_SIZE
        name = f"flag{index}"
        for shadow in (fast, ref):
            shadow.register_commit_var(name, start, 8)
            shadow.register_commit_range(
                name, start + CACHE_LINE_SIZE, 2 * CACHE_LINE_SIZE
            )
    driver = _Driver(rng, fast, ref)
    for step in range(steps):
        driver.step()
        # Sampled comparison every step, full-resolution sweep at the
        # end: the memo/coalescing bugs this hunts are not transient,
        # but catching the first divergent step aids debugging.
        stride = 8 if step < steps - 1 else 1
        assert _verdicts(fast, stride) == _verdicts(ref, stride), (
            f"divergence after step {step} (seed={seed}, "
            f"platform={platform}, commit_vars={commit_vars})"
        )


class TestShadowDifferential:
    @pytest.mark.parametrize("seed", range(6))
    def test_adr_no_commit_vars(self, seed):
        _run_differential(seed, PlatformMode.ADR, commit_vars=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_adr_with_commit_vars(self, seed):
        _run_differential(seed + 100, PlatformMode.ADR, commit_vars=2)

    @pytest.mark.parametrize("seed", range(3))
    def test_eadr(self, seed):
        _run_differential(seed + 200, PlatformMode.EADR, commit_vars=1)

    def test_repeated_identical_stores_coalesce_invisibly(self):
        """The exact shape the coalescing fast path targets: the same
        store reissued back-to-back must leave both FSMs identical."""
        fast = ShadowPM()
        ref = ReferenceShadowPM()
        ip = _IPS[0]
        for shadow in (fast, ref):
            for _ in range(5):
                shadow.record_store(BASE, 8, ip, "pre")
            shadow.record_flush(BASE)
            for _ in range(3):
                shadow.record_store(BASE + 64, 8, ip, "pre")
            shadow.record_fence()
        assert _verdicts(fast) == _verdicts(ref)

    def test_memoized_lookups_see_mutations(self):
        """persistence_at/consistency_at memos must invalidate on every
        mutating transition, not only on stores."""
        fast = ShadowPM()
        ref = ReferenceShadowPM()
        ip = _IPS[0]
        for shadow in (fast, ref):
            shadow.record_store(BASE, 8, ip, "pre")
        assert _verdicts(fast) == _verdicts(ref)
        for shadow in (fast, ref):
            shadow.record_flush(BASE)
        assert _verdicts(fast) == _verdicts(ref)
        for shadow in (fast, ref):
            shadow.record_fence()
        assert _verdicts(fast) == _verdicts(ref)
