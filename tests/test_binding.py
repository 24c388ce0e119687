"""Tests for Algorithm Bindselect and its chain machinery."""

import itertools
import math
import random
from collections import Counter

import pytest

from repro.core.binding import (
    BindIndex,
    Binding,
    BoundClique,
    ChainCache,
    bindselect,
    max_chain,
)
from repro.core.wcg import WordlengthCompatibilityGraph
from repro.ir.ops import Operation
from repro.resources.area import AreaModel, SonicAreaModel, TableAreaModel
from repro.resources.latency import SonicLatencyModel
from repro.resources.types import ResourceType
from tests.oracles import reference_bindselect

LAT = SonicLatencyModel()
AREA = SonicAreaModel()


def brute_force_max_chain(candidates, start, finish):
    for k in range(len(candidates), 0, -1):
        for combo in itertools.combinations(candidates, k):
            ordered = sorted(combo, key=start.__getitem__)
            if all(finish[a] <= start[b] for a, b in zip(ordered, ordered[1:])):
                return k
    return 0


class TestMaxChain:
    """The kernel on ascending op ids with id-indexed start/finish lists."""

    def test_empty(self):
        assert max_chain([], [], []) == []

    def test_single(self):
        assert max_chain([0], [0], [2]) == [0]

    def test_sequential_ops_form_chain(self):
        assert max_chain([0, 1, 2], [0, 2, 4], [2, 4, 6]) == [0, 1, 2]

    def test_overlapping_ops_break_chain(self):
        chain = max_chain([0, 1, 2], [0, 1, 4], [2, 3, 6])
        assert len(chain) == 2

    def test_matches_brute_force_on_random_intervals(self):
        rng = random.Random(42)
        for trial in range(25):
            start = [rng.randint(0, 12) for _ in range(7)]
            finish = [s + rng.randint(1, 4) for s in start]
            ids = list(range(7))
            got = len(max_chain(ids, start, finish))
            want = brute_force_max_chain(ids, start, finish)
            assert got == want, f"trial {trial}: {got} != {want}"

    def test_deterministic(self):
        start, finish = [0, 0, 2], [2, 2, 4]
        runs = {tuple(max_chain([0, 1, 2], start, finish)) for _ in range(5)}
        assert runs == {(0, 2)}  # the start tie goes to the lower id


def make_wcg(ops, resources):
    return WordlengthCompatibilityGraph(ops, resources, LAT)


SMALL = ResourceType("mul", (8, 8))
BIG = ResourceType("mul", (16, 16))
ADD8 = ResourceType("add", (8,))
ADD16 = ResourceType("add", (16,))


class TestBindselect:
    def test_every_op_bound_exactly_once(self):
        ops = [Operation(f"m{i}", "mul", (8, 8)) for i in range(4)]
        wcg = make_wcg(ops, [SMALL, BIG])
        schedule = {f"m{i}": 4 * i for i in range(4)}
        lat = {f"m{i}": 4 for i in range(4)}
        binding = bindselect(wcg, schedule, lat, AREA)
        bound = sorted(n for c in binding.cliques for n in c.ops)
        assert bound == sorted(schedule)

    def test_sequential_ops_share_one_unit(self):
        ops = [Operation(f"m{i}", "mul", (8, 8)) for i in range(4)]
        wcg = make_wcg(ops, [SMALL, BIG])
        schedule = {f"m{i}": 4 * i for i in range(4)}
        lat = {f"m{i}": 4 for i in range(4)}
        binding = bindselect(wcg, schedule, lat, AREA)
        assert len(binding.cliques) == 1

    def test_parallel_ops_need_separate_units(self):
        ops = [Operation(f"m{i}", "mul", (8, 8)) for i in range(3)]
        wcg = make_wcg(ops, [SMALL, BIG])
        schedule = {f"m{i}": 0 for i in range(3)}
        lat = {f"m{i}": 2 for i in range(3)}
        binding = bindselect(wcg, schedule, lat, AREA)
        assert len(binding.cliques) == 3

    def test_shrink_picks_cheapest_cover(self):
        ops = [Operation("m0", "mul", (8, 8)), Operation("m1", "mul", (8, 8))]
        wcg = make_wcg(ops, [SMALL, BIG])
        schedule = {"m0": 0, "m1": 4}
        lat = {"m0": 4, "m1": 4}
        binding = bindselect(wcg, schedule, lat, AREA, shrink=True)
        assert binding.cliques[0].resource == SMALL

    def test_no_shrink_keeps_selected_resource(self):
        # With equal chain sizes the greedy ratio prefers the cheaper
        # resource anyway, so engineer a case where the bigger resource
        # wins the ratio by covering more ops.
        ops = [
            Operation("m0", "mul", (8, 8)),
            Operation("m1", "mul", (16, 16)),
        ]
        wcg = make_wcg(ops, [SMALL, BIG])
        schedule = {"m0": 0, "m1": 4}
        lat = {"m0": 4, "m1": 4}
        binding = bindselect(wcg, schedule, lat, AREA, shrink=False)
        # Both ops fit the BIG chain; without shrink the unit stays BIG.
        assert binding.cliques[0].resource == BIG
        with_shrink = bindselect(wcg, schedule, lat, AREA, shrink=True)
        assert with_shrink.area(AREA) <= binding.area(AREA)

    def test_mixed_wordlengths_bind_to_covering_unit(self):
        ops = [Operation("m0", "mul", (8, 8)), Operation("m1", "mul", (16, 16))]
        wcg = make_wcg(ops, [SMALL, BIG])
        schedule = {"m0": 0, "m1": 4}
        lat = {"m0": 4, "m1": 4}
        binding = bindselect(wcg, schedule, lat, AREA)
        assert len(binding.cliques) == 1
        assert binding.cliques[0].resource == BIG

    def test_h_refinement_respected(self):
        ops = [Operation("m0", "mul", (8, 8)), Operation("m1", "mul", (16, 16))]
        wcg = make_wcg(ops, [SMALL, BIG])
        wcg.refine("m0")  # m0 may no longer run on BIG
        schedule = {"m0": 0, "m1": 4}
        lat = {"m0": 2, "m1": 4}
        binding = bindselect(wcg, schedule, lat, AREA)
        assert len(binding.cliques) == 2
        assert binding.resource_of("m0") == SMALL

    def test_growth_merges_earlier_cliques(self):
        # Without growth, greedy picks the two 8x8 ops first (best
        # ratio), leaving the big op alone; growth then merges them.
        ops = [
            Operation("s0", "mul", (8, 8)),
            Operation("s1", "mul", (8, 8)),
            Operation("w0", "mul", (16, 16)),
        ]
        wcg = make_wcg(ops, [SMALL, BIG])
        schedule = {"s0": 0, "s1": 4, "w0": 8}
        lat = {n: 4 for n in schedule}
        grown = bindselect(wcg, schedule, lat, AREA, grow=True)
        plain = bindselect(wcg, schedule, lat, AREA, grow=False)
        assert grown.area(AREA) <= plain.area(AREA)
        assert len(grown.cliques) == 1

    def test_mixed_kinds_never_share(self):
        ops = [Operation("m", "mul", (8, 8)), Operation("a", "add", (8, 8))]
        wcg = make_wcg(ops, [SMALL, ADD8])
        schedule = {"m": 0, "a": 4}
        lat = {"m": 4, "a": 2}
        binding = bindselect(wcg, schedule, lat, AREA)
        assert len(binding.cliques) == 2

    def test_deterministic(self):
        ops = [Operation(f"m{i}", "mul", (8 + i, 8)) for i in range(5)]
        wcg = make_wcg(ops, [SMALL, BIG, ResourceType("mul", (12, 8))])
        schedule = {f"m{i}": 2 * i for i in range(5)}
        lat = {f"m{i}": 2 for i in range(5)}
        first = bindselect(wcg, schedule, lat, AREA)
        second = bindselect(wcg, schedule, lat, AREA)
        assert first == second


class TestBindingContainer:
    def setup_method(self):
        self.binding = Binding(
            (
                BoundClique(SMALL, ("a", "b")),
                BoundClique(ADD8, ("c",)),
            )
        )

    def test_resource_of(self):
        assert self.binding.resource_of("a") == SMALL
        assert self.binding.resource_of("c") == ADD8

    def test_resource_of_unknown(self):
        with pytest.raises(KeyError):
            self.binding.resource_of("ghost")

    def test_instance_of(self):
        assert self.binding.instance_of("b") == 0
        assert self.binding.instance_of("c") == 1

    def test_area_sums_units(self):
        assert self.binding.area(AREA) == 64.0 + 8.0

    def test_len(self):
        assert len(self.binding) == 2

    def test_bound_latencies_from(self):
        lat = self.binding.bound_latencies_from({SMALL: 2, ADD8: 2})
        assert lat == {"a": 2, "b": 2, "c": 2}


class TestBindIndex:
    @pytest.mark.parametrize("bad", (0.0, -2.0, math.nan, math.inf), ids=repr)
    def test_degenerate_area_rejected_naming_the_resource(self, bad):
        class Degenerate(AreaModel):
            def area(self, resource):
                return bad if resource == BIG else 64.0

        wcg = make_wcg([Operation("m0", "mul", (8, 8))], [SMALL, BIG])
        with pytest.raises(ValueError, match=f"area of {BIG} must be finite"):
            BindIndex(wcg, Degenerate())


class TestChainCache:
    def setup_method(self):
        self.schedule = {"a": 0, "b": 2, "c": 4, "d": 1}
        self.latencies = {"a": 2, "b": 2, "c": 2, "d": 2}
        self.names = ("a", "b", "c", "d")  # op ids 0-3
        self.wcg = make_wcg(
            [Operation(n, "mul", (8, 8)) for n in self.names], [SMALL, BIG]
        )
        self.start = [0, 2, 4, 1]
        self.finish = [2, 4, 6, 3]

    def make_cache(self):
        cache = ChainCache()
        cache.ensure_index(self.wcg, AREA)
        cache.refresh(self.schedule, self.latencies, self.names)
        return cache

    def lookup(self, cache, resource, candidates, start=None):
        mask = sum(1 << op for op in candidates)
        return cache.chain_for_mask(
            self.wcg.resource_id[resource], mask, start or self.start,
            self.finish,
        )

    def test_miss_then_hit_returns_same_chain(self):
        cache = self.make_cache()
        first = self.lookup(cache, SMALL, [0, 1, 2])
        second = self.lookup(cache, SMALL, [0, 1, 2])
        assert first == second == max_chain([0, 1, 2], self.start, self.finish)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cached_chain_is_a_private_copy(self):
        cache = self.make_cache()
        first = self.lookup(cache, SMALL, [0, 1])
        first.append(99)
        assert self.lookup(cache, SMALL, [0, 1]) == [0, 1]

    def test_different_candidates_are_distinct_keys(self):
        cache = self.make_cache()
        self.lookup(cache, SMALL, [0, 1, 2])
        narrowed = self.lookup(cache, SMALL, [1, 2])
        assert narrowed == [1, 2]
        assert cache.misses == 2

    def test_refresh_evicts_only_touching_entries(self):
        cache = self.make_cache()
        self.lookup(cache, SMALL, [0, 1])
        self.lookup(cache, BIG, [2, 3])
        moved = dict(self.schedule, a=1)
        dropped = cache.refresh(moved, self.latencies, self.names)
        assert dropped == 1  # only the (a, b) entry contained 'a'
        self.lookup(cache, BIG, [2, 3], start=[1, 2, 4, 1])
        assert cache.hits == 1

    def test_latency_change_also_evicts(self):
        cache = self.make_cache()
        self.lookup(cache, SMALL, [0, 1])
        slower = dict(self.latencies, b=3)
        assert cache.refresh(self.schedule, slower, self.names) == 1

    def test_bindselect_with_cache_is_identical(self):
        ops = [Operation(f"m{i}", "mul", (8 + i, 8)) for i in range(6)]
        wcg = make_wcg(ops, [SMALL, BIG, ResourceType("mul", (14, 8))])
        schedule = {f"m{i}": 3 * i for i in range(6)}
        latencies = {name: wcg.upper_bound_latency(name) for name in schedule}
        cache = ChainCache()
        cache.refresh(schedule, latencies, tuple(schedule))
        plain = bindselect(wcg, schedule, latencies, AREA)
        cached = bindselect(
            wcg, schedule, latencies, AREA, chain_cache=cache
        )
        recached = bindselect(
            wcg, schedule, latencies, AREA, chain_cache=cache
        )
        assert plain == cached == recached
        assert cache.hits > 0


class TestExactGreedyRatio:
    """The greedy |chain|/cost key must be compared exactly (PR 8).

    The constants below are constructed so the float key the reference
    implementation used -- ``(len(chain) / cost, -cost)`` -- collapses
    to a tie that its ``-cost`` tie-break would resolve the WRONG way,
    while exact cross-multiplied integers still see the strict
    inequality.
    """

    # 2 / C_CHEAP == 3 / C_WIDE in float arithmetic, but as exact
    # rationals 3 / C_WIDE is strictly greater (3 * C_CHEAP > 2 * C_WIDE).
    C_CHEAP = 4503599627370495
    C_WIDE = 6755399441055742

    def test_constants_collapse_in_float_but_not_exactly(self):
        from fractions import Fraction

        assert 2 / self.C_CHEAP == 3 / self.C_WIDE
        assert Fraction(3, self.C_WIDE) > Fraction(2, self.C_CHEAP)
        assert self.C_CHEAP < self.C_WIDE  # float tie-break picks cheap
        assert float(self.C_CHEAP) == self.C_CHEAP  # both representable:
        assert float(self.C_WIDE) == self.C_WIDE  # the areas ARE exact

    def test_near_tie_resolved_by_exact_ratio(self):
        ops = [
            Operation("o1", "mul", (8, 8)),
            Operation("o2", "mul", (8, 8)),
            Operation("o3", "mul", (16, 16)),
        ]
        wcg = make_wcg(ops, [SMALL, BIG])
        area = TableAreaModel({
            "mul": lambda widths: (
                self.C_CHEAP if widths == (8, 8) else self.C_WIDE
            ),
        })
        schedule = {"o1": 0, "o2": 2, "o3": 4}
        lat = {"o1": 2, "o2": 2, "o3": 2}
        # SMALL's chain is [o1, o2] (len 2), BIG's is [o1, o2, o3]
        # (len 3).  Exactly, 3/C_WIDE > 2/C_CHEAP, so the first greedy
        # round must select BIG and cover everything in one unit; the
        # float key would tie and pick SMALL, leaving two units.
        binding = bindselect(wcg, schedule, lat, area, grow=False)
        assert len(binding.cliques) == 1
        assert binding.cliques[0].resource == BIG
        assert binding.cliques[0].ops == ("o1", "o2", "o3")

    def test_near_tie_identical_with_and_without_cache(self):
        ops = [
            Operation("o1", "mul", (8, 8)),
            Operation("o2", "mul", (8, 8)),
            Operation("o3", "mul", (16, 16)),
        ]
        wcg = make_wcg(ops, [SMALL, BIG])
        area = TableAreaModel({
            "mul": lambda widths: (
                self.C_CHEAP if widths == (8, 8) else self.C_WIDE
            ),
        })
        schedule = {"o1": 0, "o2": 2, "o3": 4}
        lat = {"o1": 2, "o2": 2, "o3": 2}
        cache = ChainCache()
        cache.refresh(schedule, lat, list(schedule))
        cached = bindselect(wcg, schedule, lat, area, chain_cache=cache)
        plain = bindselect(wcg, schedule, lat, area)
        assert cached == plain


class TestLazyGreedyMatchesEagerScan:
    """The lazy heap picks what a full scan of every resource picks."""

    COMBOS = ((True, True), (True, False), (False, True), (False, False))

    def area_models(self, rng, resources):
        near_tie = {
            r.widths: (
                TestExactGreedyRatio.C_CHEAP if j % 2 else TestExactGreedyRatio.C_WIDE
            )
            for j, r in enumerate(resources)
        }
        fractional = {
            r.widths: rng.choice((0.1, 0.25, 1 / 3, 0.7, 1.5, 2.0, 2 / 3))
            for r in resources
        }
        return {
            "sonic": AREA,
            "equal": TableAreaModel({"mul": lambda w: 3.0}),
            "fractional-sonic": SonicAreaModel(mul_unit=0.37, add_unit=0.11),
            "fractional-table": TableAreaModel({"mul": fractional.__getitem__}),
            "near-tie": TableAreaModel({"mul": near_tie.__getitem__}),
        }

    def test_identical_bindings_on_random_instances(self):
        rng = random.Random(2001)
        seen: Counter = Counter()
        for trial in range(500):
            n_res = rng.randint(1, 7)
            resources = [
                ResourceType("mul", (8 + 2 * j, 8 + 2 * j)) for j in range(n_res)
            ]
            ops = [
                Operation(f"o{i:02d}", "mul", (8, 8))
                for i in range(rng.randint(1, 14))
            ]
            h = {
                op.name: rng.sample(resources, rng.randint(1, n_res))
                for op in ops
            }
            wcg = WordlengthCompatibilityGraph(ops, resources, LAT, h_edges=h)
            models = self.area_models(rng, wcg.resources)
            label = rng.choice(sorted(models))
            area = models[label]
            grow, shrink = self.COMBOS[trial % 4]
            # A short horizon makes start times (and chain lengths) tie.
            horizon = rng.randint(1, 8)
            schedule = {op.name: rng.randint(0, horizon) for op in ops}
            latencies = {op.name: rng.randint(1, 4) for op in ops}
            cache = ChainCache()
            for step in range(4):
                if step:  # perturb: move or slow a few ops
                    moved = rng.randint(1, min(3, len(ops)))
                    for name in rng.sample(sorted(schedule), moved):
                        if rng.random() < 0.5:
                            schedule[name] = rng.randint(0, horizon)
                        else:
                            latencies[name] = rng.randint(1, 4)
                cache.refresh(schedule, latencies, wcg.op_names)
                want = reference_bindselect(
                    wcg, schedule, latencies, area, grow, shrink
                )
                got = bindselect(
                    wcg, schedule, latencies, area, grow, shrink,
                    chain_cache=cache,
                )
                assert got == want, (trial, step, label, schedule, latencies)
                if not step:
                    assert bindselect(
                        wcg, schedule, latencies, area, grow, shrink
                    ) == want
                seen[label] += 1
                seen[grow, shrink] += 1
            seen["hits"] += cache.hits
        assert sum(seen[c] for c in self.COMBOS) >= 2000
        assert all(seen[c] >= 500 for c in self.COMBOS)
        assert all(seen[label] >= 200 for label in models)
        assert seen["hits"] > 0
