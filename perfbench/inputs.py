"""Seeded inputs of the benchmark's workloads.

Everything here is a pure function of ``(workload, seed, scale)``: the
same seed gives the same problems, labels, priorities and post order.
The program under test only ever receives the generated requests.

* ``binding-heavy`` / ``refinement-heavy`` draw their graphs from the
  committed candidate pool (``pool.json``, see ``calibrate.py``): only
  candidates whose reference solve time lies within ``band`` of the
  family's median are eligible, and the seed picks ``count`` of them,
  redrawing until the set's total datapath area lies within
  ``AREA_BALANCE`` of its expectation.  Per-graph solve cost varies
  several-fold at one size, so without the band a run's throughput and
  latency would measure the seed, not the code.
* ``served-mix`` builds a stream of posts over fresh small graphs
  (``build_case(..., base_seed=seed)``): 55% fresh problems, 30%
  Zipf-skewed repeats of earlier ones and 15% ``/v1/delta`` deadline
  edits of earlier ones, with a fifth of the other posts grouped into
  ``/v1/batch`` requests.  Each (base, edit) pair occurs once, so every
  delta is a real warm solve and its strategy is a pure function of the
  inputs.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.delta import DeadlineEdit
from repro.engine import AllocationRequest, DeltaRequest
from repro.experiments import build_case

POOL_PATH = Path(__file__).resolve().parent / "pool.json"

#: offline workload -> draw parameters (graphs per run, eligible band
#: around the pool's median reference solve time).
OFFLINE = {
    "binding-heavy": {"count": 3, "band": 0.10},
    "refinement-heavy": {"count": 12, "band": 0.10},
}
AREA_BALANCE = 0.03

#: served-mix stream shape.
SERVED_SIZES = (16, 24, 32, 40, 48)
SERVED_RELAXATIONS = (0.1, 0.15, 0.2, 0.25, 0.3)
PEEL_SIZES = (16, 24, 32)
#: envelope shares: 55% fresh, 30% repeats, 15% deltas.  A delta is one
#: envelope per post while a batch post carries three on average, so 20%
#: of posts are deltas.
SHARE_REPEAT = 0.30
SHARE_DELTA = 0.15
DELTA_POST_SHARE = 0.20
SHARE_BATCH_POSTS = 0.2
BATCH_SIZES = (2, 3, 4)
DEADLINE_STEPS = (1, 2, 3, 4)
ZIPF_EXPONENT = 1.1
#: posts per requested second of measurement (about 1.4 envelopes each).
POSTS_PER_SECOND = 24

#: tiny scale: a seconds-long smoke of every code path (self-tests).
TINY_OFFLINE_SIZES = (16, 24)
TINY_POSTS = 12


@dataclass
class Post:
    """One client post: ``allocate``, ``batch`` or ``delta``."""

    kind: str
    requests: List[AllocationRequest] = field(default_factory=list)
    delta: Optional[DeltaRequest] = None

    @property
    def envelopes(self) -> int:
        return 1 if self.kind == "delta" else len(self.requests)


def _load_pool() -> Dict[str, dict]:
    return json.loads(POOL_PATH.read_text())


def offline_cases(
    workload: str, seed: int, scale: str = "full"
) -> List[Tuple[AllocationRequest, Optional[float]]]:
    """The run's requests, each with its committed reference area."""
    if scale == "tiny":
        relaxation = 0.05 if workload == "binding-heavy" else 0.0
        return [
            (
                AllocationRequest(
                    build_case(ops, 0, relaxation, base_seed=seed).problem,
                    "dpalloc",
                    label=f"{workload}-{ops}",
                ),
                None,
            )
            for ops in TINY_OFFLINE_SIZES
        ]
    family = _load_pool()[workload]
    params = OFFLINE[workload]
    candidates = family["candidates"]
    centre = statistics.median(c["ref_ms"] for c in candidates)
    eligible = [
        c for c in candidates
        if abs(c["ref_ms"] - centre) <= params["band"] * centre
    ]
    count = params["count"]
    target = count * statistics.mean(c["area"] for c in eligible)
    rng = random.Random(f"{workload}/{seed}")
    best: Optional[list] = None
    for _ in range(20_000):
        chosen = rng.sample(eligible, count)
        miss = abs(sum(c["area"] for c in chosen) - target) / target
        if best is None or miss < best[0]:
            best = [miss, chosen]
        if miss <= AREA_BALANCE:
            break
    assert best is not None
    return [
        (
            AllocationRequest(
                build_case(
                    c["ops"], 0, family["relaxation"],
                    base_seed=c["base_seed"],
                ).problem,
                "dpalloc",
                label=f"{workload}-{c['ops']}-{c['base_seed']}",
            ),
            c["area"],
        )
        for c in best[1]
    ]


class _FreshSource:
    """Fresh small problems drawn from the seed, never repeating.

    Sizes and relaxations are dealt from shuffled decks rather than drawn
    independently, so every run carries the same mix of graph sizes and
    deadlines and only the graphs themselves change with the seed.
    """

    def __init__(self, seed: int, rng: random.Random, salt: int,
                 sizes: Tuple[int, ...] = SERVED_SIZES) -> None:
        self.seed = seed
        self.rng = rng
        self.salt = salt
        self.sizes = sizes
        self.made = 0
        self._decks: Dict[tuple, list] = {}

    def _deal(self, values: tuple):
        deck = self._decks.setdefault(values, [])
        if not deck:
            deck.extend(values)
            self.rng.shuffle(deck)
        return deck.pop()

    def next(self):
        ops = self._deal(self.sizes)
        relaxation = self._deal(SERVED_RELAXATIONS)
        self.made += 1
        sample = self.salt + self.made
        return build_case(ops, sample, relaxation, base_seed=self.seed).problem


def _zipf_pick(rng: random.Random, population: list):
    """Earlier (older) items are the popular kernels designers revisit."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(population))]
    return rng.choices(population, weights=weights)[0]


def _shuffled(rng: random.Random, counts: Dict[str, int]) -> List[str]:
    items = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(items)
    return items


def served_stream(seed: int, seconds: float, scale: str = "full") -> List[Post]:
    """The seeded ``served-mix`` post sequence (length set by ``seconds``).

    The counts of each post kind, batch size and repeat are fixed by the
    length and only their order is drawn, so every seed carries the same
    mix and the same number of fresh problems.
    """
    total = TINY_POSTS if scale == "tiny" else max(12, round(POSTS_PER_SECOND * seconds))
    rng = random.Random(f"served-mix/{seed}")
    deltas = round(DELTA_POST_SHARE * total)
    batches = round(SHARE_BATCH_POSTS * (total - deltas))
    kinds = _shuffled(rng, {"delta": deltas, "batch": batches,
                            "allocate": total - deltas - batches})
    kinds.insert(0, kinds.pop(kinds.index("allocate")))  # something to repeat
    sizes = [BATCH_SIZES[i % len(BATCH_SIZES)] for i in range(batches)]
    rng.shuffle(sizes)
    entries = kinds.count("allocate") + sum(sizes)
    repeats = round(SHARE_REPEAT / (1.0 - SHARE_DELTA) * entries)
    roles = _shuffled(rng, {"repeat": repeats, "fresh": entries - repeats})
    roles.insert(0, roles.pop(roles.index("fresh")))

    source = _FreshSource(seed, rng, salt=0)
    fresh: list = []
    free_steps: List[List[int]] = []
    posts: List[Post] = []

    labels = iter(range(1, 1 << 30))

    def label(kind: str) -> str:
        return f"{kind}-{next(labels)}"

    def allocation(priority: Optional[str] = None) -> AllocationRequest:
        if roles.pop(0) == "repeat":
            return AllocationRequest(
                _zipf_pick(rng, fresh), "dpalloc", label=label("repeat"),
                priority=priority or "interactive",
            )
        fresh.append(source.next())
        free_steps.append(list(DEADLINE_STEPS))
        return AllocationRequest(
            fresh[-1], "dpalloc", label=label("fresh"), priority=priority
        )

    for kind in kinds:
        if kind == "delta":
            # A Zipf-popular base, or the next one with an unused step:
            # each (base, edit) pair occurs once.
            first = fresh.index(_zipf_pick(rng, fresh))
            order = list(range(first, len(fresh))) + list(range(first))
            index = next((i for i in order if free_steps[i]), None)
            if index is not None:
                step = free_steps[index].pop(rng.randrange(len(free_steps[index])))
                base = fresh[index]
                posts.append(Post("delta", delta=DeltaRequest(
                    edits=(DeadlineEdit(base.latency_constraint + step),),
                    base_problem=base,
                    label=label("delta"),
                )))
                continue
            kind = "allocate"
            roles.insert(0, "fresh")
        if kind == "batch":
            posts.append(Post("batch", requests=[
                allocation("bulk") for _ in range(sizes.pop())
            ]))
        else:
            posts.append(Post("allocate", requests=[allocation()]))
    return posts


def peel_problems(seed: int, count: int):
    """Fresh small problems outside any stream, for the layer peel.

    Small on purpose: the peel measures the layers around a solve, and a
    short solve keeps host noise in the solve from swamping them.
    """
    rng = random.Random(f"peel/{seed}")
    source = _FreshSource(seed, rng, salt=1_000_000, sizes=PEEL_SIZES)
    return [source.next() for _ in range(count)]
