"""Seeded input generators for the four workloads.

Every input is a pure function of the run's ``--seed``, so the same seed
gives the same inputs. Seeds map onto :data:`INPUT_SETS` input sets, all
with the same shape (cell counts, budgets, record counts) but different
content: a claim tuned on one seed can be rechecked on another. Each
input set has its output digests pinned in ``pinned.json``
(regenerate with ``python3 perfbench/pin.py``).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Tuple

#: Number of distinct input sets; ``--seed`` selects one modulo this.
INPUT_SETS = 16

# -- grid-cold ----------------------------------------------------------
#: Small to huge code footprint relative to the 32 KB L1-I.
COLD_BENCHMARKS = ("tatp", "kafka", "dotty", "cassandra")
#: One policy per prefetcher family: none, PDIP, EIP, RDIP.
COLD_POLICIES = ("baseline", "pdip_44", "eip_46", "rdip")
#: About half a second to a second per cell on the reference core.
COLD_INSTRUCTIONS = 40_000
COLD_WARMUP = 8_000
#: Successive sweeps of one run use different layout seeds, so a run
#: averages over several layouts of each benchmark; past the last set
#: the sweeps start again at the first.
COLD_SWEEP_SETS = 4

# -- grid-warm ----------------------------------------------------------
#: The policies of ``examples/sweeps/main_grid.toml`` (the figure grid).
WARM_POLICIES = (
    "baseline", "2x_il1", "emissary",
    "eip_46", "eip_analytical", "eip_46_emissary",
    "pdip_11", "pdip_22", "pdip_44", "pdip_87",
    "pdip_44_emissary", "pdip_44_zero_cost",
    "fec_ideal",
)
WARM_SEEDS_PER_PLAN = 3
#: main_grid's budgets; warm cells are never simulated, only keyed.
WARM_INSTRUCTIONS = 400_000
WARM_WARMUP = 120_000

# -- trace-ingest -------------------------------------------------------
#: About 10x the 34K records of the largest bundled trace.
TRACE_RECORDS = 340_000
TRACE_POLICIES = ("baseline", "pdip_44")
TRACE_INSTRUCTIONS = 40_000
TRACE_WARMUP = 8_000
#: leaf functions per program phase, and blocks per function
TRACE_FUNCTIONS = 175
TRACE_FUNCTION_BLOCKS = 8
_ISIZE = 4

# -- service-submit -----------------------------------------------------
SUBMIT_STEPS = 240
#: Every ``SUBMIT_COLD_EVERY``-th step both clients submit one new cell.
SUBMIT_COLD_EVERY = 8
SUBMIT_POLICIES = ("baseline", "pdip_44", "eip_46", "rdip", "next_line")
SUBMIT_INSTRUCTIONS = 16_000
SUBMIT_WARMUP = 4_000


def input_seed(seed: int) -> int:
    """The input set (1..INPUT_SETS) a run seed selects."""
    return 1 + int(seed) % INPUT_SETS


def _rng(seed: int, stream: str) -> random.Random:
    # string seeds hash with SHA-512: stable across processes and hosts
    return random.Random("perfbench:%s:%d" % (stream, input_seed(seed)))


def cold_seed(seed: int, sweep: int) -> int:
    """Layout and machine seed of the ``sweep``-th sweep of a run."""
    return input_seed(seed) + INPUT_SETS * (sweep % COLD_SWEEP_SETS)


def cold_spec(seed: int, sweep: int) -> Dict[str, object]:
    """A grid-cold sweep spec: 4 footprints x 4 prefetcher families."""
    return {
        "name": "perfbench-cold",
        "axes": {
            "benchmark": list(COLD_BENCHMARKS),
            "policy": list(COLD_POLICIES),
            "seed": [cold_seed(seed, sweep)],
            "instructions": [COLD_INSTRUCTIONS],
            "warmup": [COLD_WARMUP],
        },
    }


def warm_spec(seed: int) -> Dict[str, object]:
    """A main_grid-shaped spec: all benchmarks x figure policies x seeds."""
    base = input_seed(seed)
    return {
        "name": "perfbench-warm",
        "axes": {
            "benchmark": "all",
            "policy": list(WARM_POLICIES),
            "seed": [base + INPUT_SETS * i for i in range(WARM_SEEDS_PER_PLAN)],
            "instructions": [WARM_INSTRUCTIONS],
            "warmup": [WARM_WARMUP],
        },
    }


def warm_payloads(keys: List[str], seed: int) -> Dict[str, Dict[str, object]]:
    """Seeded stats payloads the set-up stores under the warm plan's keys.

    The warm paths only key, read and copy results, so the counters need
    not come from a simulation; they only need to be distinct per cell
    so a mixed-up read is caught.
    """
    from repro.simulator.stats import SimulationStats

    rng = _rng(seed, "warm")
    names = [f.name for f in dataclasses.fields(SimulationStats)
             if f.name != "extra"]
    payloads: Dict[str, Dict[str, object]] = {}
    for key in keys:
        payload: Dict[str, object] = {name: rng.randrange(1, 1 << 30)
                                      for name in names}
        payload["extra"] = {}
        payloads[key] = payload
    return payloads


# ----------------------------------------------------------------------
# trace-ingest: a flow-consistent ChampSim branch log
# ----------------------------------------------------------------------
class _Program:
    """Blocks laid out in an address space plus the walk that emits records.

    Every record's pc lies in the block entered by the previous record's
    flow-out, so the log passes the ingest pipeline's flow checks.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.blocks: Dict[int, Tuple[int, Dict[str, object]]] = {}
        self.stack: List[int] = []
        self.lines: List[str] = []

    def function(self, base: int, nblocks: int, loop_bias: float) -> int:
        """Lay out a leaf function of cond blocks ending in a return."""
        starts, sizes = [], []
        addr = base
        for _ in range(nblocks):
            size = self.rng.randrange(4, 17)
            starts.append(addr)
            sizes.append(size)
            addr += size * _ISIZE
        for i, start in enumerate(starts):
            if i == len(starts) - 1:
                term: Dict[str, object] = {"kind": "return"}
            else:
                back = starts[max(0, i - self.rng.randrange(1, 3))]
                bias = loop_bias if back < start else 0.2
                term = {"kind": "cond", "bias": bias, "target": back}
            self.blocks[start] = (sizes[i], term)
        return base

    def step(self, cur: int) -> int:
        size, term = self.blocks[cur]
        pc = cur + (size - 1) * _ISIZE
        kind = term["kind"]
        target = 0
        if kind == "cond":
            taken = self.rng.random() < term["bias"]  # type: ignore[operator]
            if taken:
                target = term["target"]  # type: ignore[assignment]
            token = "BRANCH_CONDITIONAL"
        elif kind == "return":
            taken, target, token = True, self.stack.pop(), "BRANCH_RETURN"
        elif kind == "icall":
            targets = term["targets"]
            target = self.rng.choices(targets, term["weights"])[0]  # type: ignore[arg-type]
            taken, token = True, "BRANCH_INDIRECT_CALL"
            self.stack.append(pc + _ISIZE)
        else:
            taken, target, token = True, term["target"], "BRANCH_DIRECT_JUMP"  # type: ignore[assignment]
        self.lines.append("0x%x 0x%x %d %s" % (pc, target, int(taken), token))
        return target if taken else pc + _ISIZE


def champsim_log(seed: int, records: int = TRACE_RECORDS) -> str:
    """A seeded ChampSim branch log of exactly ``records`` lines.

    Three program phases, each a dispatch loop making Zipf-skewed
    indirect calls into its own set of :data:`TRACE_FUNCTIONS` leaf
    functions of :data:`TRACE_FUNCTION_BLOCKS` blocks, with hard
    transitions between phases. The counts are the same for every seed,
    so every input set has the same shape; the seed moves block sizes,
    loop targets and biases, which functions are hot, and the dispatch
    walk.
    """
    rng = _rng(seed, "champsim")
    prog = _Program(rng)
    dispatchers = []
    for phase in range(3):
        region = 0x40_0000 + phase * 0x10_0000
        fns = [prog.function(region + f * 0x1000, TRACE_FUNCTION_BLOCKS,
                             rng.uniform(0.35, 0.55))
               for f in range(TRACE_FUNCTIONS)]
        rng.shuffle(fns)
        drv = region + 0x8_0000
        prog.blocks[drv] = (4, {"kind": "icall", "targets": fns,
                                "weights": [1.0 / (i + 1) ** 0.5
                                            for i in range(len(fns))]})
        prog.blocks[drv + 16] = (3, {"kind": "cond", "bias": 0.999,
                                     "target": drv})
        dispatchers.append(drv)
    for phase, drv in enumerate(dispatchers):
        # the loop's not-taken exit falls through into a jump to the
        # next phase's dispatch loop
        prog.blocks[drv + 28] = (2, {"kind": "direct",
                                     "target": dispatchers[(phase + 1) % 3]})
    cur = dispatchers[0]
    while len(prog.lines) < records:
        cur = prog.step(cur)
    return "\n".join(prog.lines[:records]) + "\n"


# ----------------------------------------------------------------------
# service-submit: the request schedule
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SubmitCell:
    benchmark: str
    policy: str
    seed: int

    @property
    def label(self) -> str:
        return "%s/%s/s%d" % (self.benchmark, self.policy, self.seed)


def submit_schedule(seed: int) -> List[Tuple[str, SubmitCell, SubmitCell]]:
    """``(kind, cell for client 0, cell for client 1)`` per step.

    ``kind`` is ``"cold"`` on every :data:`SUBMIT_COLD_EVERY`-th step, where
    both clients submit the same new cell at once (the server runs it
    once and coalesces the duplicate), and ``"hit"`` otherwise, where
    each client repeats a cell already in the store.
    """
    from repro.workloads.profiles import BENCHMARK_NAMES

    rng = _rng(seed, "submit")
    # every benchmark once per round, in a seeded order, so each input set
    # mixes the same footprints; a benchmark moves to the next policy in
    # each round, so no cell repeats
    offset = {bench: rng.randrange(len(SUBMIT_POLICIES))
              for bench in BENCHMARK_NAMES}
    fresh: List[SubmitCell] = []
    for rnd in range(SUBMIT_STEPS // SUBMIT_COLD_EVERY // len(BENCHMARK_NAMES)
                     + 1):
        for bench in rng.sample(BENCHMARK_NAMES, len(BENCHMARK_NAMES)):
            policy = SUBMIT_POLICIES[(offset[bench] + rnd)
                                     % len(SUBMIT_POLICIES)]
            fresh.append(SubmitCell(bench, policy, input_seed(seed)))
    steps: List[Tuple[str, SubmitCell, SubmitCell]] = []
    done: List[SubmitCell] = []
    for i in range(SUBMIT_STEPS):
        if i % SUBMIT_COLD_EVERY == 0:
            cell = fresh[i // SUBMIT_COLD_EVERY]
            steps.append(("cold", cell, cell))
            done.append(cell)
        else:
            steps.append(("hit", rng.choice(done), rng.choice(done)))
    return steps


def submit_cells(seed: int) -> List[SubmitCell]:
    """The distinct cells a schedule simulates, in first-use order."""
    return [a for kind, a, _ in submit_schedule(seed) if kind == "cold"]
