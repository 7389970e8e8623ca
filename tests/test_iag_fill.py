"""The FTQ fill's prefetcher hooks: bound once, skipped when a no-op.

``Machine`` binds ``on_ftq_enqueue``, ``on_retire``, ``on_fec_events``
and ``observe_branch`` at construction and never calls one whose class
inherits the base no-op. A subclass that overrides a hook must still
get every call, and overriding a hook with one that only delegates
must leave every statistic as it was.
"""

from __future__ import annotations

import pytest

from repro.core.pdip import PDIPController
from repro.prefetchers.base import NoPrefetcher, Prefetcher
from repro.prefetchers.eip import EIPPrefetcher
from repro.prefetchers.next_line import NextLinePrefetcher
from repro.prefetchers.rdip import RDIPPrefetcher
from repro.simulator import policies
from repro.simulator.policies import build_machine, get_policy
from repro.simulator.runner import get_layout
from repro.utils import line_of
from repro.workloads.profiles import get_profile

#: (policy, the class ``build_machine`` constructs for it)
POLICY_CLASSES = [
    ("baseline", NoPrefetcher),
    ("next_line", NextLinePrefetcher),
    ("rdip", RDIPPrefetcher),
    ("eip_46", EIPPrefetcher),
    ("pdip_44", PDIPController),
]

INSTRUCTIONS, WARMUP, SEED = 4000, 1000, 3


def run_tatp(policy):
    """A tatp machine for ``policy``, run to the budget."""
    machine = build_machine(get_layout("tatp", seed=SEED), get_profile("tatp"),
                            get_policy(policy), seed=SEED)
    stats = machine.run(INSTRUCTIONS, warmup=WARMUP)
    return machine, stats


def substitute(monkeypatch, cls):
    """Make ``build_machine`` construct ``cls`` in place of its base."""
    monkeypatch.setattr(policies, cls.__bases__[0].__name__, cls)


@pytest.mark.parametrize("policy,base", POLICY_CLASSES,
                         ids=[p for p, _ in POLICY_CLASSES])
def test_overridden_enqueue_hook_sees_every_entry(policy, base, monkeypatch):
    _, plain = run_tatp(policy)
    seen = []

    class Counting(base):
        def on_ftq_enqueue(self, entry, cycle):
            seen.append(entry.is_wrong_path)
            super().on_ftq_enqueue(entry, cycle)

    substitute(monkeypatch, Counting)
    machine, stats = run_tatp(policy)
    assert type(machine.prefetcher) is Counting
    assert len(seen) == machine.ftq.enqueues
    assert True in seen and False in seen  # wrong and correct path alike
    # a hook that only delegates simulates exactly what the skip did
    assert stats.to_dict() == plain.to_dict()


def test_observe_branch_alone_sees_every_taken_or_wrong_path_branch(
        monkeypatch):
    # the branch lines a path-history consumer must see, in FTQ order
    want = []

    class Reference(NoPrefetcher):
        def on_ftq_enqueue(self, entry, cycle):
            block = entry.block
            if block.is_branch and (entry.taken or entry.is_wrong_path):
                want.append(line_of(block.branch_pc))

    got = []

    class Observing(NoPrefetcher):
        def observe_branch(self, branch_block_line):
            got.append(branch_block_line)

    substitute(monkeypatch, Reference)
    run_tatp("baseline")
    substitute(monkeypatch, Observing)
    run_tatp("baseline")
    assert want and got == want


HOOKS = ("on_ftq_enqueue", "on_retire", "on_fec_events", "observe_branch")


#: (policy, the hooks its prefetcher class overrides)
OVERRIDDEN = [
    ("baseline", set()),
    ("next_line", {"on_ftq_enqueue"}),
    ("rdip", {"on_ftq_enqueue", "on_retire"}),
    ("eip_46", {"on_ftq_enqueue", "on_retire"}),
    ("pdip_44", {"on_ftq_enqueue", "on_fec_events", "observe_branch"}),
]


@pytest.mark.parametrize("policy,overridden", OVERRIDDEN,
                         ids=[p for p, _ in OVERRIDDEN])
def test_inherited_no_op_hooks_are_never_called(policy, overridden,
                                                monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an inherited no-op prefetcher hook was called")

    # every hook a policy's class inherits now raises if it is called
    for name in HOOKS:
        monkeypatch.setattr(Prefetcher, name, never)
    machine, stats = run_tatp(policy)
    assert machine.ftq.enqueues > 0 and stats.instructions >= INSTRUCTIONS
    cls = type(machine.prefetcher)
    assert {name for name in HOOKS
            if getattr(cls, name) is not getattr(Prefetcher, name)
            } == overridden
