"""The cycle-level machine (Figure 7 wiring).

Per cycle, in order:

1. **Resteer** — if a scheduled front-end resteer matures, flush the FTQ,
   squash wrong-path work in the back end, and redirect the IAG.
2. **IAG** — fill the FTQ along the predicted path: correct-path blocks
   from the walker (with the BPU judging each transfer), or wrong-path
   blocks from a speculative walk after an undiscovered mispredict.
   Enqueuing triggers the FDIP prefetch of the entry's lines and the
   prefetcher's trigger lookup (PDIP table / EIP entangling table).
3. **PQ** — drain prefetch requests into the L1-I under the MSHR rules.
4. **Decode** — consume ready FTQ heads up to the decode width; starve
   (and charge the head entry) when lines are not ready; schedule the
   resteer when a mispredicted block finally decodes.
5. **Back end** — retire; at block retirement run FEC classification,
   EMISSARY promotion, prefetcher training, and the data-side stream.

**Event-horizon fast path** (DESIGN.md §10): most cycles of a
frontend-bound run do nothing observable — the FTQ head is waiting on a
fill, the IAG is redirect-stalled, the PQ is empty, and the back end has
nothing eligible to retire. :meth:`Machine.run` detects those cycles,
computes the earliest cycle at which *any* stage can act (the horizon:
resteer maturation, FTQ-head fill completion, back-end head
eligibility/stall expiry, IAG redirect expiry) and advances the clock
there in one step, batch-updating every cycle-proportional counter
(starvation charging, top-down slots, back-end stall cycles) and
consuming exactly the RNG draws the skipped per-cycle loop would have.
Stats are bit-identical to per-cycle stepping; attaching a probe
disables skipping (unless ``probe_coarse`` opts into one observation per
jump).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional

from repro.backend.model import BackendModel
from repro.branch.bpu import BlockPrediction, BranchPredictionUnit, MispredictKind
from repro.core.fec import FECClassifier
from repro.frontend.ftq import FTQ, FTQEntry
from repro.frontend.prefetch_queue import PrefetchQueue
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetchers.base import NoPrefetcher, Prefetcher
from repro.simulator.config import MachineConfig
from repro.simulator.stats import COUNTER_FIELDS, SimulationStats
from repro.telemetry.handle import NULL_RECORDER
from repro.utils import (INSTRUCTION_SIZE, LINE_SHIFT, SLOTTED, derive_rng,
                         line_of)
from repro.workloads.layout import BranchKind, CodeLayout
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.walker import (SUCC_DEAD_END, SUCC_RETURN, PathWalker,
                                    SpeculativePath)

#: data lines live in a disjoint address space from instruction lines
DATA_LINE_BASE = 1 << 40

#: hot-path copies for the inlined ``block.is_branch`` and
#: ``MispredictKind.is_resteer`` tests
_FALLTHROUGH = BranchKind.FALLTHROUGH
_NO_RESTEER = MispredictKind.NONE


def _hook(prefetcher: Prefetcher, name: str):
    """The prefetcher's bound hook ``name``, or None when its class
    inherits the base no-op (the machine then skips the call)."""
    if getattr(type(prefetcher), name) is getattr(Prefetcher, name):
        return None
    return getattr(prefetcher, name)


@dataclass(**SLOTTED)
class _Resteer:
    """A mispredict discovered by the IAG, waiting to resolve.

    The machine keeps **one** instance and recycles it (at most one
    resteer is outstanding at a time), so scheduling a mispredict costs
    a few attribute stores instead of an allocation.
    """

    kind: MispredictKind
    trigger_line: int
    #: cycle the front end redirects (set when the branch decodes)
    scheduled: Optional[int] = None


class Machine:
    """One simulated core running one synthetic workload."""

    def __init__(self, layout: CodeLayout, profile: WorkloadProfile,
                 config: Optional[MachineConfig] = None,
                 hierarchy: Optional[MemoryHierarchy] = None,
                 prefetcher: Optional[Prefetcher] = None,
                 pq: Optional[PrefetchQueue] = None,
                 bpu: Optional[BranchPredictionUnit] = None,
                 walker=None,
                 seed: int = 0):
        self.layout = layout
        self.profile = profile
        self.config = config if config is not None else MachineConfig()
        cfg = self.config
        self.hierarchy = (hierarchy if hierarchy is not None
                          else MemoryHierarchy(config=cfg.hierarchy, seed=seed))
        self.pq = pq if pq is not None else PrefetchQueue(
            self.hierarchy, capacity=cfg.pq_capacity,
            issue_width=cfg.pq_issue_width, mshr_reserve=cfg.pq_mshr_reserve)
        self.prefetcher = prefetcher if prefetcher is not None else NoPrefetcher()
        # hooks bound once, None where the class inherits the base no-op
        # (the baseline has none; PDIP has no on_retire, EIP and RDIP no
        # on_fec_events, and only PDIP observes branches)
        self._observe_branch = _hook(self.prefetcher, "observe_branch")
        self._pf_enqueue = _hook(self.prefetcher, "on_ftq_enqueue")
        self._pf_retire = _hook(self.prefetcher, "on_retire")
        self._pf_fec_events = _hook(self.prefetcher, "on_fec_events")
        self.bpu = bpu if bpu is not None else BranchPredictionUnit(
            btb_entries=cfg.btb_entries, btb_assoc=cfg.btb_assoc,
            ras_depth=cfg.ras_depth, seed=seed)
        # any object with the PathWalker surface works here — e.g. a
        # repro.workloads.trace.TraceReplayer replaying a recorded stream
        self.walker = walker if walker is not None else PathWalker(
            layout, seed=seed, indirect_noise=profile.indirect_noise)
        #: wrong-path successor codes (built by the layout's first machine)
        self._successors = layout.static_successors()
        self.ftq = FTQ(depth=cfg.ftq_depth)
        self.backend = BackendModel(
            rob_entries=cfg.rob_entries, retire_width=cfg.retire_width,
            depth=cfg.backend_depth, stall_prob=profile.backend_stall_prob,
            issue_empty_threshold=cfg.issue_empty_threshold, seed=seed)
        self.fec = FECClassifier(wake_window=cfg.fec_wake_window,
                                 high_cost_threshold=cfg.fec_high_cost_threshold)

        # hot-path copies of per-cycle config knobs
        self._decode_width = cfg.decode_width
        self._iag_blocks = cfg.iag_blocks_per_cycle
        self._redirect_penalty = cfg.redirect_penalty
        self._predecode_lat = cfg.predecode_resteer_latency
        self._exec_lat = cfg.exec_resteer_latency
        self._data_expose_prob = cfg.data_miss_expose_prob
        self._data_expose_frac = cfg.data_miss_exposed_fraction

        # data-side sampler (Zipf over the profile's data working set)
        self._data_rng = derive_rng(seed, "datastream")
        n = profile.data_lines
        weights = [1.0 / ((i + 1) ** profile.data_zipf_alpha) for i in range(n)]
        total = sum(weights)
        self._data_cum: List[float] = list(
            accumulate(w / total for w in weights))

        # dynamic state
        self.cycle = 0
        self._pending_resteer: Optional[_Resteer] = None
        #: the recycled resteer record (see :class:`_Resteer`)
        self._resteer = _Resteer(kind=MispredictKind.NONE, trigger_line=0)
        self._wrong_path: Optional[SpeculativePath] = None
        self._iag_stall_until = 0
        self._entries_since_resteer = 1 << 30
        self._last_resteer_kind: Optional[MispredictKind] = None
        self._last_resteer_trigger: Optional[int] = None
        self._last_taken_line: Optional[int] = None

        self.stats = SimulationStats()
        self._decode_progress = 0  # instructions of the head already decoded
        self._head_admitted = False
        #: optional per-cycle observer (see repro.simulator.probe)
        self.probe = None
        #: telemetry handle (repro.telemetry). The no-op NULL_RECORDER
        #: unless a TelemetrySession attaches a live recorder; unlike a
        #: probe, telemetry is horizon-aware (``_fast_forward`` emits a
        #: batch event) and never disables cycle skipping.
        self.tel = NULL_RECORDER
        #: event-horizon cycle skipping (DESIGN.md §10). On by default;
        #: automatically bypassed while a probe is attached so observers
        #: see every cycle. Set ``probe_coarse=True`` to keep skipping
        #: with a probe attached — the probe then fires once per jump.
        self.event_horizon = True
        self.probe_coarse = False
        #: diagnostics: cycles (and jumps) the fast path skipped
        self.fast_forwarded_cycles = 0
        self.fast_forwards = 0

    # ==================================================================
    # main loop
    # ==================================================================
    def run(self, instructions: int, warmup: int = 0,
            max_cycles: Optional[int] = None) -> SimulationStats:
        """Simulate until ``warmup + instructions`` have retired.

        Counters are snapshotted after warmup so the returned stats cover
        only the measured window. ``max_cycles`` bounds runaway configs.
        """
        limit = max_cycles if max_cycles is not None else \
            400 * (warmup + instructions)
        snapshot = None
        measure_end = warmup + instructions  # refined once warmup completes
        backend = self.backend
        backend_tick = backend.tick
        on_retire = self._on_retire
        decode = self._decode
        iag_fill = self._iag_fill
        pq = self.pq
        pq_tick = pq.tick
        skippable = self._skippable
        fast_forward = self._fast_forward
        st = self.stats
        while True:
            retired = backend.retired_instructions
            if snapshot is None and retired >= warmup:
                snapshot = self._snapshot()
                measure_end = retired + instructions
            if snapshot is not None and retired >= measure_end:
                break
            if self.event_horizon and (self.probe is None or self.probe_coarse):
                k = skippable()
                if k > 0:
                    cap = limit + 1 - self.cycle
                    fast_forward(k if k < cap else cap)
                    if self.cycle > limit:
                        raise RuntimeError(
                            "simulation exceeded %d cycles (deadlock?)"
                            % limit)
                    continue
            # -- inlined step() (keep the two in lockstep) -----------------
            cycle = self.cycle
            pr = self._pending_resteer
            if (pr is not None and pr.scheduled is not None
                    and cycle >= pr.scheduled):
                self._handle_resteer(cycle)
            if cycle >= self._iag_stall_until:
                iag_fill(cycle)
            if pq._q:
                pq_tick(cycle)
            decode(cycle)
            st.instructions += backend_tick(cycle, on_retire)
            st.cycles += 1
            if self.probe is not None:
                self.probe(self)
            self.cycle = cycle + 1
            if cycle >= limit:
                raise RuntimeError(
                    "simulation exceeded %d cycles (deadlock?)" % limit)
        return self._delta(snapshot)

    def step(self) -> None:
        """Advance one cycle."""
        cycle = self.cycle
        pr = self._pending_resteer
        if pr is not None and pr.scheduled is not None and cycle >= pr.scheduled:
            self._handle_resteer(cycle)
        if cycle >= self._iag_stall_until:
            self._iag_fill(cycle)
        pq = self.pq
        if pq._q:
            pq.tick(cycle)
        self._decode(cycle)
        retired = self.backend.tick(cycle, self._on_retire)
        st = self.stats
        st.instructions += retired
        st.cycles += 1
        if self.probe is not None:
            self.probe(self)
        self.cycle = cycle + 1

    # ==================================================================
    # event-horizon fast path
    # ==================================================================
    def _skippable(self) -> int:
        """Cycles until anything observable can happen (0 = step normally).

        A positive return means every stage is provably idle for that
        many cycles: no matured resteer, the IAG is stalled or the FTQ
        is full (or the wrong path dead-ended), the PQ is empty, the
        FTQ head (if any) is waiting on a fill it has already issued,
        and the back end has nothing eligible to retire. The horizon is
        the earliest of: resteer maturation, IAG redirect expiry,
        FTQ-head fill completion, and back-end head eligibility (decode
        depth or injected-stall expiry).
        """
        cycle = self.cycle
        horizon = None
        pr = self._pending_resteer
        if pr is not None:
            sched = pr.scheduled
            if sched is not None:
                if sched <= cycle:
                    return 0  # resteer acts this cycle
                horizon = sched
        stall_until = self._iag_stall_until
        ftq = self.ftq
        if cycle < stall_until:
            if horizon is None or stall_until < horizon:
                horizon = stall_until
        elif len(ftq._q) >= ftq.depth:
            pass  # full FTQ stays full while decode starves (checked below)
        else:
            wp = self._wrong_path
            if wp is None or (wp.current is not None and wp.remaining > 0):
                return 0  # IAG would enqueue a block this cycle
        if self.pq._q:
            return 0  # PQ drains up to issue_width lines per cycle
        q = ftq._q
        if q:
            head = q[0]
            if head.deferred_lines:
                return 0  # IFU retries deferred fills every cycle
            ready = head.ready_at  # running max over the line fills
            if ready <= cycle:
                return 0  # decode consumes the head this cycle
            if horizon is None or ready < horizon:
                horizon = ready
        backend = self.backend
        bq = backend._q
        if bq:
            blk = bq[0]
            if not blk.is_wrong_path:
                eligible = blk.decode_cycle + backend.depth
                stall = backend._stall_until
                if stall > eligible:
                    eligible = stall
                if eligible <= cycle:
                    return 0  # back end may retire this cycle
                if horizon is None or eligible < horizon:
                    horizon = eligible
            # a wrong-path head blocks retirement until the resteer
            # squashes it, which the resteer bound already covers
        if horizon is None:
            return 0  # nothing scheduled — never skip blind
        return horizon - cycle

    def _fast_forward(self, k: int) -> None:
        """Advance ``k`` provably-idle cycles in one arithmetic step.

        Applies exactly what ``k`` calls of :meth:`step` would have:
        top-down slots all charge frontend-bound (decode delivered
        nothing and the back end was not the blocker), decode
        starvation charges the waiting head, and the back end consumes
        one stall-probability draw per cycle outside its injected-stall
        window (stall-window cycles draw nothing — matching
        ``BackendModel.tick``'s short-circuit — and count as stall
        cycles unconditionally).
        """
        cycle = self.cycle
        st = self.stats
        slots = self._decode_width * k
        st.slots_total += slots
        st.slots_frontend_bound += slots
        st.decode_starvation_cycles += k
        backend = self.backend
        q = self.ftq._q
        if q:
            head = q[0]
            head.starvation_cycles += k
            if backend.issue_queue_empty:
                head.backend_starved = True
        in_stall = backend._stall_until - cycle
        if in_stall < 0:
            in_stall = 0
        elif in_stall > k:
            in_stall = k
        stalls = in_stall
        draws = k - in_stall
        if draws:
            rng_random = backend._rng.random
            p = backend.stall_prob
            for _ in range(draws):
                if rng_random() < p:
                    stalls += 1
        backend.stall_cycles += stalls
        st.cycles += k
        self.cycle = cycle + k
        self.fast_forwarded_cycles += k
        self.fast_forwards += 1
        tel = self.tel
        if tel.enabled:
            # one batch event per jump keeps the trace horizon-aware
            tel.emit("fast_forward", cycle, cycles=k)
        if self.probe is not None:
            # probe_coarse mode: one observation covering the whole jump
            self.probe(self)

    # ==================================================================
    # stage 1: resteer
    # ==================================================================
    def _handle_resteer(self, cycle: int) -> None:
        pr = self._pending_resteer
        if pr is None or pr.scheduled is None or cycle < pr.scheduled:
            return
        self.ftq.flush()
        self.backend.squash_wrong_path()
        self._wrong_path = None
        self._decode_progress = 0
        self._head_admitted = False
        self._iag_stall_until = cycle + self._redirect_penalty
        self._entries_since_resteer = 0
        self._last_resteer_kind = pr.kind
        self._last_resteer_trigger = pr.trigger_line
        self._pending_resteer = None
        tel = self.tel
        if tel.enabled:
            tel.emit("resteer", cycle, resteer_kind=pr.kind.name,
                     trigger_line=pr.trigger_line)
        self.stats.resteers += 1
        if pr.kind is MispredictKind.BTB_MISS:
            self.stats.resteers_btb_miss += 1
        elif pr.kind is MispredictKind.COND_MISPREDICT:
            self.stats.resteers_cond += 1
        elif pr.kind is MispredictKind.INDIRECT_MISPREDICT:
            self.stats.resteers_indirect += 1
        elif pr.kind is MispredictKind.RETURN_MISPREDICT:
            self.stats.resteers_return += 1

    # ==================================================================
    # stage 2: IAG / FTQ fill (with FDIP prefetch)
    # ==================================================================
    def _iag_fill(self, cycle: int) -> None:
        """Fill the FTQ with up to ``iag_blocks_per_cycle`` entries.

        Each entry takes the whole per-entry front-end path in this one
        loop, with every attribute bound once per call:

        * **next entry** — the next correct-path block from the walker,
          judged by the BPU (a resteer verdict forks the wrong path), or
          the next wrong-path block from the static-successor table;
        * **FDIP probe** of the entry's lines. Lines that cannot
          allocate an MSHR are *deferred*: the entry still enqueues (a
          real FTQ does not stall on cache back-pressure) and the IFU
          issues the remaining fills as demand accesses when the entry
          reaches the head (:meth:`_issue_deferred`);
        * **enqueue** — resteer-wake bookkeeping, the FTQ push, and the
          prefetcher's branch-observation and trigger-lookup hooks.
        """
        if cycle < self._iag_stall_until:
            return
        ftq = self.ftq
        q = ftq._q
        n = ftq.depth - len(q)
        if n > self._iag_blocks:
            n = self._iag_blocks
        if n <= 0:
            return
        blocks = self.layout.blocks
        successors = self._successors
        next_event = self.walker.next_event
        predict_block = self.bpu.predict_block
        hierarchy = self.hierarchy
        fetch = hierarchy.fetch_instruction
        # ready L1-I hits (the overwhelmingly common case) are the L1-hit
        # slice of hierarchy.fetch_instruction, inlined with *batched*
        # counter updates: access counts and the LRU clock accumulate in
        # locals, flushed before any full fetch_instruction call, so the
        # interleaving leaves every counter exactly as per-line calls
        # would have (pinned by test_event_horizon's zero-walk iTLB
        # test). The iTLB charges a walk on every access, so with it on
        # every line takes the full call.
        batched = hierarchy.itlb is None
        l1i = hierarchy.l1i
        state_get = l1i._lines.get
        hit_ready = cycle + hierarchy._l1_hit
        append = q.append
        observe = self._observe_branch
        on_enqueue = self._pf_enqueue
        since = self._entries_since_resteer
        resteer_kind = self._last_resteer_kind
        resteer_trigger = self._last_resteer_trigger
        wp = self._wrong_path
        wrong = 0
        enqueued = 0
        for _ in range(n):
            # -- next entry ------------------------------------------------
            if wp is not None:
                cur = wp.current
                if cur is None or wp.remaining <= 0:
                    break  # wrong path dead-ended; wait for the resteer
                block = blocks[cur]
                wp.remaining -= 1
                nxt = successors[cur]
                if nxt < 0:  # inlined SpeculativePath.step's stack codes
                    if nxt == SUCC_RETURN:
                        nxt = wp.stack.pop() if wp.stack else None
                    elif nxt == SUCC_DEAD_END:
                        nxt = None
                    else:
                        wp.stack.append(block.fallthrough)
                        nxt = SUCC_RETURN - 1 - nxt
                wp.current = nxt
                wrong += 1
                # every wrong-path branch feeds the path history
                observable = True
                lines = block._lines
                if lines is None:
                    lines = block.lines()
                entry = FTQEntry(block, lines, cycle, True, False, 0)
            else:
                event = next_event()
                block = event.block
                taken = observable = event.taken
                lines = block._lines
                if lines is None:
                    lines = block.lines()
                entry = FTQEntry(block, lines, cycle, False, taken,
                                 event.target_addr)
                prediction = predict_block(block, taken, event.target_addr)
                mispredict = prediction.mispredict
                if mispredict is not _NO_RESTEER:
                    entry.mispredict = mispredict
                    entry.predicted_target = prediction.predicted_target
                    self._start_wrong_path(entry, prediction)
                    wp = self._wrong_path
            # -- FDIP probe ------------------------------------------------
            ready_at = cycle
            clock = l1i._clock
            hits = 0
            for line in lines:
                if batched:
                    state = state_get(line)
                    if (state is not None and state.ready_cycle <= cycle
                            and not state.unused_prefetch):
                        clock += 1
                        state.lru = clock
                        hits += 1
                        if hit_ready > ready_at:
                            ready_at = hit_ready
                        continue
                    if hits:
                        l1i._clock = clock
                        l1i.accesses += hits
                        hierarchy.l1i_demand_accesses += hits
                        hits = 0
                result = fetch(line, cycle)
                clock = l1i._clock
                if result.stalled_mshr:
                    entry.deferred_lines = lines[lines.index(line):]
                    break
                ready = result.ready_cycle
                if ready > ready_at:
                    ready_at = ready
                if result.l1_miss:
                    entry.missed_lines = [*entry.missed_lines, line]
                elif result.pending_hit:
                    entry.pending_lines = [*entry.pending_lines, line]
            if hits:
                l1i._clock = clock
                l1i.accesses += hits
                hierarchy.l1i_demand_accesses += hits
            entry.ready_at = ready_at
            # -- enqueue (an inlined FTQ.push: capacity is bounded above) --
            since += 1
            entry.entries_since_resteer = since
            entry.resteer_kind = resteer_kind
            entry.resteer_trigger_line = resteer_trigger
            append(entry)
            enqueued += 1
            # inlined block.is_branch / line_of(block.branch_pc)
            if (observe is not None and observable
                    and block.kind is not _FALLTHROUGH):
                observe((block.addr + (block.num_instructions - 1)
                         * INSTRUCTION_SIZE) >> LINE_SHIFT)
            if on_enqueue is not None:
                on_enqueue(entry, cycle)
        self._entries_since_resteer = since
        ftq.enqueues += enqueued
        self.stats.wrong_path_blocks += wrong

    def _start_wrong_path(self, entry: FTQEntry,
                          prediction: BlockPrediction) -> None:
        pr = self._resteer
        pr.kind = prediction.mispredict
        pr.trigger_line = line_of(entry.block.branch_pc)
        pr.scheduled = None
        self._pending_resteer = pr
        start_bid = None
        if prediction.predicted_target is not None:
            start_bid = self.layout.entry_index().get(prediction.predicted_target)
        self._wrong_path = SpeculativePath(
            self.layout, start_bid, self.walker.snapshot_stack(),
            max_blocks=self.config.wrongpath_max_blocks)

    # ==================================================================
    # stage 4: decode
    # ==================================================================
    def _decode(self, cycle: int) -> None:
        width = self._decode_width
        budget = width
        delivered_correct = 0
        delivered_wrong = 0
        blocked_backend = False
        starving_head: Optional[FTQEntry] = None
        q = self.ftq._q
        backend = self.backend
        progress = self._decode_progress
        admitted = self._head_admitted
        # only an unscheduled pending resteer can be scheduled here
        pr = self._pending_resteer

        while budget > 0:
            if not q:
                break
            head = q[0]
            if head.deferred_lines:
                self._issue_deferred(head, cycle)
                if head.deferred_lines:
                    starving_head = head
                    break
            if head.ready_at > cycle:
                starving_head = head
                break
            num_instructions = head.block.num_instructions
            remaining = num_instructions - progress
            if not admitted:
                if not backend.admit(head, num_instructions, cycle,
                                     is_wrong_path=head.is_wrong_path):
                    blocked_backend = True
                    break
                admitted = True
                if pr is not None and pr.scheduled is None:
                    self._maybe_schedule_resteer(pr, head, cycle)
            take = remaining if remaining < budget else budget
            progress += take
            budget -= take
            if head.is_wrong_path:
                delivered_wrong += take
            else:
                delivered_correct += take
            if progress >= num_instructions:
                q.popleft()
                progress = 0
                admitted = False
        self._decode_progress = progress
        self._head_admitted = admitted

        # -- top-down accounting ------------------------------------------
        st = self.stats
        st.slots_total += width
        st.slots_retiring += delivered_correct
        st.slots_bad_speculation += delivered_wrong
        shortfall = budget
        if shortfall > 0:
            if blocked_backend:
                st.slots_backend_bound += shortfall
            else:
                st.slots_frontend_bound += shortfall

        # -- decode starvation (FEC bookkeeping) ----------------------------
        if delivered_correct + delivered_wrong == 0 and not blocked_backend:
            st.decode_starvation_cycles += 1
            if starving_head is not None:
                starving_head.starvation_cycles += 1
                if backend.issue_queue_empty:
                    starving_head.backend_starved = True

    def _issue_deferred(self, head: FTQEntry, cycle: int) -> None:
        """Demand-issue fills the FDIP stream could not start (MSHR full)."""
        deferred = head.deferred_lines
        fetch = self.hierarchy.fetch_instruction
        while deferred:
            line = deferred[0]
            result = fetch(line, cycle)
            if result.stalled_mshr:
                return
            deferred.pop(0)
            ready = result.ready_cycle
            if ready > head.ready_at:
                head.ready_at = ready
            if result.l1_miss:
                head.missed_lines = [*head.missed_lines, line]
            elif result.pending_hit:
                head.pending_lines = [*head.pending_lines, line]

    def _maybe_schedule_resteer(self, pr: _Resteer, entry: FTQEntry,
                                cycle: int) -> None:
        """Schedule the unscheduled pending resteer ``pr`` if ``entry`` is
        the correct-path block whose verdict raised it."""
        if entry.mispredict is not pr.kind or entry.is_wrong_path:
            return
        if entry.mispredict.resolves_at_predecode:
            pr.scheduled = cycle + self._predecode_lat
        else:
            pr.scheduled = cycle + self._exec_lat

    # ==================================================================
    # stage 5: retirement callbacks
    # ==================================================================
    def _on_retire(self, entry: FTQEntry) -> None:
        cycle = self.cycle
        events = self.fec.on_retire(
            entry,
            resteer_kind=entry.resteer_kind,
            resteer_trigger_line=entry.resteer_trigger_line,
            last_taken_line=self._last_taken_line)
        if events:
            self.stats.fec_starvation_cycles += entry.starvation_cycles
            tel = self.tel
            threshold = self.fec.high_cost_threshold
            for event in events:
                self.hierarchy.promote_fec(event.line)
                if event.line in self.hierarchy.prefetched_lines:
                    self.stats.fec_covered_events += 1
                if tel.enabled:
                    tel.emit("fec", cycle, line=event.line,
                             trigger_line=event.trigger_line,
                             trigger_type=event.trigger_type.value,
                             starvation=event.starvation_cycles,
                             high_cost=event.is_high_cost(threshold))
            self.stats.fec_events += len(events)
        on_fec_events = self._pf_fec_events
        if on_fec_events is not None:
            on_fec_events(events, cycle)
        on_retire = self._pf_retire
        if on_retire is not None:
            on_retire(entry, cycle)
        if entry.taken and entry.block.is_branch:
            self._last_taken_line = line_of(entry.block.branch_pc)
        self._data_stream(entry, cycle)

    def _data_stream(self, entry: FTQEntry, cycle: int) -> None:
        rng_random = self._data_rng.random
        access_prob = self.profile.data_access_prob
        cum = self._data_cum
        data_access = self.hierarchy.data_access
        expose_prob = self._data_expose_prob
        expose_frac = self._data_expose_frac
        inject_stall = self.backend.inject_stall
        for _ in range(entry.block.num_instructions):
            if rng_random() >= access_prob:
                continue
            idx = bisect_left(cum, rng_random())
            ready, hit = data_access(DATA_LINE_BASE + idx, cycle)
            if not hit and rng_random() < expose_prob:
                exposed = int((ready - cycle) * expose_frac)
                if exposed > 0:
                    inject_stall(cycle, exposed)

    # ==================================================================
    # stats plumbing
    # ==================================================================
    _COUNTER_SOURCES = (
        ("l1i_accesses", "hierarchy", "l1i_demand_accesses"),
        ("l1i_misses", "hierarchy", "l1i_demand_misses"),
        ("l2_inst_misses", "hierarchy", "l2_inst_misses"),
        ("l2_data_misses", "hierarchy", "l2_data_misses"),
        ("l3_misses", "hierarchy", "l3_misses"),
        ("prefetches_issued", "hierarchy", "prefetches_issued"),
        ("prefetches_dropped", "hierarchy", "prefetches_dropped"),
        ("prefetch_useful", "hierarchy", "prefetch_useful"),
        ("prefetch_late", "hierarchy", "prefetch_late"),
        ("prefetch_useless", "hierarchy", "prefetch_useless"),
    )

    def _snapshot(self) -> dict:
        snap = {}
        stats = self.stats
        for name in COUNTER_FIELDS:
            value = getattr(stats, name)
            if isinstance(value, int):
                snap["stats." + name] = value
        for stat_name, owner, attr in self._COUNTER_SOURCES:
            snap["src." + stat_name] = getattr(getattr(self, owner), attr)
        return snap

    def _delta(self, snapshot: dict) -> SimulationStats:
        out = SimulationStats()
        stats = self.stats
        for name in COUNTER_FIELDS:
            value = getattr(stats, name)
            if isinstance(value, int):
                setattr(out, name, value - snapshot.get("stats." + name, 0))
        for stat_name, owner, attr in self._COUNTER_SOURCES:
            now = getattr(getattr(self, owner), attr)
            setattr(out, stat_name, now - snapshot.get("src." + stat_name, 0))
        # whole-run set-based metrics (warmup included; fractions only)
        out.fec_distinct_lines = len(self.fec.fec_lines)
        out.retired_distinct_lines = len(self.fec.retired_lines_seen)
        out.fec_high_cost_events = self.fec.high_cost_events
        out.fec_high_cost_backend_events = self.fec.high_cost_backend_events
        if hasattr(self.prefetcher, "triggers_mispredict"):
            out.pdip_triggers_mispredict = self.prefetcher.triggers_mispredict
            out.pdip_triggers_last_taken = self.prefetcher.triggers_last_taken
        if hasattr(self.prefetcher, "inserted_events"):
            out.pdip_inserts = self.prefetcher.inserted_events
        return out
