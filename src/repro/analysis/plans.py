"""Invariant-driven crash plans from mechanism epochs.

Exhaustive injection executes one post-failure run per ordering point —
O(F · P) (paper Section 5.4).  Mechanism inference
(:mod:`repro.analysis.mech`) proves that inside a *clean* epoch of a
collapsible mechanism the intermediate crash states are equivalent by
the mechanism's own contract: recovery rolls an uncommitted epoch back
(or forward) wholesale, so what matters is crashing

* right after the epoch opens (nothing logged yet),
* right before the commit (everything logged, nothing committed),
* right after the commit (committed, cleanup pending), and
* right before the epoch closes (cleanup done);

everything in between recovers identically.  A :class:`CrashPlan`
keeps exactly those failure points; a :class:`CrashPlanSet` is the
per-run union that :meth:`FailureInjector.apply_crash_plan` consumes.

Conservatism rules:

* epochs carrying an invariant violation (``XF-M*``) are *poisoned*
  and keep every failure point — a buggy mechanism's contract proves
  nothing;
* a failure point inside overlapping epochs is collapsed only if every
  containing epoch agrees it is skippable;
* failure points outside any epoch are always kept;
* ``hybrid`` mode collapses only library-witnessed transaction epochs
  and keeps everything annotation-derived epochs would skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.mech import COLLAPSIBLE_KINDS

PLAN_MODES = ("exhaustive", "mechanism", "hybrid")


@dataclass
class CrashPlan:
    """The failure points one mechanism epoch needs executed."""

    kind: str
    source: str
    start: int
    end: int
    commit: int
    #: Failure-point ids inside this epoch.
    fids: tuple = ()
    #: The subset of ``fids`` that must execute.
    keep: tuple = ()
    #: A poisoned epoch (invariant violation / never committed) keeps
    #: every failure point.
    poisoned: bool = False

    @property
    def skipped(self):
        return len(self.fids) - len(self.keep)

    def to_dict(self):
        return {
            "kind": self.kind,
            "source": self.source,
            "start": self.start,
            "end": self.end,
            "commit": self.commit,
            "fids": list(self.fids),
            "keep": list(self.keep),
            "poisoned": self.poisoned,
        }


@dataclass
class CrashPlanSet:
    """Per-run crash-plan union the injector applies."""

    mode: str
    plans: list = field(default_factory=list)
    #: Failure-point ids that must execute (kept by some plan or
    #: outside every epoch).
    executed_fids: frozenset = frozenset()
    #: Failure-point ids every containing epoch agreed to skip.
    skipped_fids: frozenset = frozenset()

    @property
    def plans_emitted(self):
        return len(self.plans)

    @property
    def skipped(self):
        return len(self.skipped_fids)

    def executes(self, fid):
        return fid not in self.skipped_fids

    def to_dict(self):
        return {
            "mode": self.mode,
            "plans": [plan.to_dict() for plan in self.plans],
            "executed_fids": sorted(self.executed_fids),
            "skipped_fids": sorted(self.skipped_fids),
        }


def _epoch_keep(epoch, fid_seqs):
    """The keep-set of one epoch: first/last failure point on each
    side of the commit store."""
    inside = [(seq, fid) for seq, fid in fid_seqs
              if epoch.contains(seq)]
    if not inside:
        return (), ()
    fids = tuple(fid for _, fid in inside)
    keep = set()
    keep.add(inside[0][1])  # first: nothing of the epoch happened yet
    before = [fid for seq, fid in inside if seq <= epoch.commit]
    after = [fid for seq, fid in inside if seq > epoch.commit]
    if before:
        keep.add(before[-1])  # last before commit: fully logged
    if after:
        keep.add(after[0])  # first after commit: committed, dirty
    keep.add(inside[-1][1])  # last: epoch about to close
    return fids, tuple(sorted(keep))


def build_crash_plans(mech_report, failure_points, mode="mechanism"):
    """Collapse ``failure_points`` against ``mech_report``'s epochs.

    ``failure_points`` are ``core.injector.FailurePoint``s; each one's
    marker sits at ``trace_index - 1`` in the pre-failure trace.
    Returns a :class:`CrashPlanSet` (empty-skip when nothing
    collapses), or None for ``exhaustive`` mode.
    """
    if mode == "exhaustive":
        return None
    if mode not in PLAN_MODES:
        raise ValueError(
            f"unknown plan mode {mode!r} (one of {PLAN_MODES})"
        )
    fid_seqs = sorted(
        (fp.trace_index - 1, fp.fid) for fp in failure_points
    )
    plans = []
    #: fid -> [agreed_to_skip_by_every_epoch_so_far]
    votes = {}
    for epoch in mech_report.epochs:
        collapsible = (
            epoch.kind in COLLAPSIBLE_KINDS
            and not epoch.violated
            and (mode != "hybrid" or epoch.source.startswith("tx:"))
        )
        fids, keep = _epoch_keep(epoch, fid_seqs)
        if not fids:
            continue
        poisoned = not collapsible
        plan = CrashPlan(
            kind=epoch.kind,
            source=epoch.source,
            start=epoch.start,
            end=epoch.end,
            commit=epoch.commit,
            fids=fids,
            keep=fids if poisoned else keep,
            poisoned=poisoned,
        )
        plans.append(plan)
        keep_set = set(plan.keep)
        for fid in fids:
            votes.setdefault(fid, []).append(fid not in keep_set)
    skipped = frozenset(
        fid for fid, agreed in votes.items() if all(agreed)
    )
    executed = frozenset(
        fp.fid for fp in failure_points
    ) - skipped
    return CrashPlanSet(
        mode=mode,
        plans=plans,
        executed_fids=executed,
        skipped_fids=skipped,
    )
