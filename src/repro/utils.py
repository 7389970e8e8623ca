"""Shared low-level helpers: address arithmetic, deterministic RNG
streams, and canonical hashing.

Every stochastic component in the simulator (workload walker, EMISSARY
promotion, PDIP insertion, back-end stall model) draws from its own seeded
:class:`random.Random` stream derived via :func:`derive_rng`, so that runs
are bit-for-bit reproducible and adding a new consumer of randomness never
perturbs existing components.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import signal
import sys
import threading
import time

#: ``@dataclass(**SLOTTED)`` gives hot-path record classes ``__slots__``
#: (faster attribute access, no per-instance ``__dict__``) on Python
#: 3.10+, and degrades to a plain dataclass on 3.9 (the oldest CI rung),
#: where ``dataclass(slots=True)`` does not exist.
SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}

#: Cache line size in bytes used throughout the model (Table 1: 64B lines).
LINE_SIZE = 64

#: log2 of the line size, used for block-address arithmetic.
LINE_SHIFT = 6

#: Fixed instruction size in bytes for the synthetic ISA.
INSTRUCTION_SIZE = 4


def line_of(addr: int) -> int:
    """Return the cache-line (block) number containing byte address ``addr``."""
    return addr >> LINE_SHIFT


def line_base(addr: int) -> int:
    """Return the first byte address of the line containing ``addr``."""
    return (addr >> LINE_SHIFT) << LINE_SHIFT


def lines_spanned(start: int, nbytes: int) -> list:
    """Return the list of line numbers touched by ``nbytes`` starting at ``start``.

    A basic block that crosses a line boundary occupies more than one line;
    the FTQ/IFU must fetch every one of them.
    """
    if nbytes <= 0:
        return []
    first = line_of(start)
    last = line_of(start + nbytes - 1)
    return list(range(first, last + 1))


def derive_rng(seed: int, stream: str) -> random.Random:
    """Create an independent :class:`random.Random` for a named stream.

    The stream name is hashed into the seed so components get decorrelated
    sequences while staying deterministic for a given top-level seed.
    """
    # Use a stable (non-PYTHONHASHSEED-dependent) string hash.
    h = 2166136261
    for ch in stream:
        h = (h ^ ord(ch)) * 16777619 & 0xFFFFFFFF
    return random.Random((seed * 0x9E3779B1 + h) & 0xFFFFFFFFFFFF)


def freeze(obj):
    """JSON-stable representation of dataclasses / dicts / scalars.

    Dataclasses become field-name dicts, dicts are key-sorted, tuples
    become lists — so two structurally equal values always serialize to
    the same JSON text regardless of construction order.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: freeze(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): freeze(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [freeze(v) for v in obj]
    return obj


def canonical_json(payload) -> str:
    """The canonical JSON text of ``payload``: what
    :func:`canonical_digest` hashes."""
    return json.dumps(freeze(payload), sort_keys=True)


def json_digest(text: str) -> str:
    """SHA-1 hex digest of canonical JSON text.

    For callers that assemble the text from parts already in canonical
    form, so nothing is frozen or serialized twice; the digest equals
    :func:`canonical_digest` of the payload the text spells out.
    """
    return hashlib.sha1(text.encode()).hexdigest()


def canonical_digest(payload) -> str:
    """SHA-1 hex digest of the canonical JSON form of ``payload``.

    The one hashing helper behind every identity in the repo: the run
    key (the result store's cell key) and the manifest config hash
    both reduce to this function, so a cell's
    digest is stable across subsystems (and pinned by a golden test).
    """
    return json_digest(canonical_json(payload))


def geomean(values) -> float:
    """Geometric mean of positive values (paper's metric for mean speedup)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError("geomean requires positive values, got %r" % (v,))
        product *= v
    return product ** (1.0 / len(values))


#: how often a process-pool child checks that its parent is alive (s)
_PARENT_CHECK_S = 0.5


def pool_child_init() -> None:
    """Process-pool initializer: detach from the parent's signal plumbing.

    Pool children are forked from a server whose asyncio loop
    routes SIGTERM/SIGINT through a wakeup fd (``add_signal_handler``).
    A child inherits both the C-level handler and the *shared* wakeup
    socketpair, so signalling a child (e.g. ``tear_down_pool``
    terminating a wedged simulation) would write into the parent's
    wakeup fd and spuriously trigger the parent's own drain handler.
    Restoring default dispositions makes a child's SIGTERM kill only
    the child.

    It also starts a daemon thread that exits the child once its parent
    is gone. A SIGKILLed parent never closes the pool's call queue, and
    the child holds that pipe's write end itself, so a child blocked
    reading it would otherwise live on as an orphan with the parent's
    files (e.g. the result store's SQLite index) still open.

    Lives here (not in ``repro.service.jobs``) so the batch runner in
    ``repro.simulator`` can install it too without breaking the
    layering DAG; the ``pool-child-init`` lint rule requires it at
    every ``ProcessPoolExecutor`` construction site.
    """
    signal.set_wakeup_fd(-1)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, signal.SIG_DFL)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     name="exit-with-parent", daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    """Poll until this process is reparented away from ``parent``, then
    exit at once (no cleanup: the parent that owned it is gone)."""
    while os.getppid() == parent:
        time.sleep(_PARENT_CHECK_S)
    os._exit(1)
