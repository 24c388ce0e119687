"""Tests for Algorithm Bindselect and its chain machinery."""

import itertools

import pytest

from repro.core.binding import (
    Binding,
    BoundClique,
    ChainCache,
    bindselect,
    max_chain,
)
from repro.core.wcg import WordlengthCompatibilityGraph
from repro.ir.ops import Operation
from repro.resources.area import SonicAreaModel
from repro.resources.latency import SonicLatencyModel
from repro.resources.types import ResourceType

LAT = SonicLatencyModel()
AREA = SonicAreaModel()


def brute_force_max_chain(candidates, schedule, latencies):
    best = 0
    for k in range(len(candidates), 0, -1):
        for combo in itertools.combinations(candidates, k):
            ordered = sorted(combo, key=lambda n: schedule[n])
            if all(
                schedule[a] + latencies[a] <= schedule[b]
                for a, b in zip(ordered, ordered[1:])
            ):
                return k
    return best


class TestMaxChain:
    def test_empty(self):
        assert max_chain([], {}, {}) == []

    def test_single(self):
        assert max_chain(["a"], {"a": 0}, {"a": 2}) == ["a"]

    def test_sequential_ops_form_chain(self):
        schedule = {"a": 0, "b": 2, "c": 4}
        latencies = {"a": 2, "b": 2, "c": 2}
        assert max_chain(["a", "b", "c"], schedule, latencies) == ["a", "b", "c"]

    def test_overlapping_ops_break_chain(self):
        schedule = {"a": 0, "b": 1, "c": 4}
        latencies = {"a": 2, "b": 2, "c": 2}
        chain = max_chain(["a", "b", "c"], schedule, latencies)
        assert len(chain) == 2

    def test_matches_brute_force_on_random_intervals(self):
        import random

        rng = random.Random(42)
        for trial in range(25):
            names = [f"o{i}" for i in range(7)]
            schedule = {n: rng.randint(0, 12) for n in names}
            latencies = {n: rng.randint(1, 4) for n in names}
            got = len(max_chain(names, schedule, latencies))
            want = brute_force_max_chain(names, schedule, latencies)
            assert got == want, f"trial {trial}: {got} != {want}"

    def test_deterministic(self):
        schedule = {"a": 0, "b": 0, "c": 2}
        latencies = {n: 2 for n in schedule}
        runs = {tuple(max_chain(list(schedule), schedule, latencies)) for _ in range(5)}
        assert len(runs) == 1


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


class TestChainCache:
    def setup_method(self):
        self.schedule = {"a": 0, "b": 2, "c": 4, "d": 1}
        self.latencies = {"a": 2, "b": 2, "c": 2, "d": 2}
        self.names = ("a", "b", "c", "d")
        self.wcg = make_wcg(
            [Operation(n, "mul", (8, 8)) for n in self.names], [SMALL, BIG]
        )

    def make_cache(self):
        cache = ChainCache()
        cache.ensure_index(self.wcg, AREA)
        cache.refresh(self.schedule, self.latencies, self.names)
        return cache

    def lookup(self, cache, resource, candidates, schedule=None):
        mask = sum(1 << self.wcg.op_id[n] for n in candidates)
        return cache.chain_for_mask(
            self.wcg.resource_id[resource], mask, schedule or self.schedule,
            self.latencies,
        )

    def test_miss_then_hit_returns_same_chain(self):
        cache = self.make_cache()
        first = self.lookup(cache, SMALL, ["a", "b", "c"])
        second = self.lookup(cache, SMALL, ["a", "b", "c"])
        assert first == second == max_chain(
            ["a", "b", "c"], self.schedule, self.latencies
        )
        assert (cache.hits, cache.misses) == (1, 1)

    def test_cached_chain_is_a_private_copy(self):
        cache = self.make_cache()
        first = self.lookup(cache, SMALL, ["a", "b"])
        first.append("junk")
        assert self.lookup(cache, SMALL, ["a", "b"]) == ["a", "b"]

    def test_different_candidates_are_distinct_keys(self):
        cache = self.make_cache()
        self.lookup(cache, SMALL, ["a", "b", "c"])
        narrowed = self.lookup(cache, SMALL, ["b", "c"])
        assert narrowed == ["b", "c"]
        assert cache.misses == 2

    def test_refresh_evicts_only_touching_entries(self):
        cache = self.make_cache()
        self.lookup(cache, SMALL, ["a", "b"])
        self.lookup(cache, BIG, ["c", "d"])
        moved = dict(self.schedule, a=1)
        dropped = cache.refresh(moved, self.latencies, self.names)
        assert dropped == 1  # only the (a, b) entry contained 'a'
        self.lookup(cache, BIG, ["c", "d"], schedule=moved)
        assert cache.hits == 1

    def test_latency_change_also_evicts(self):
        cache = self.make_cache()
        self.lookup(cache, SMALL, ["a", "b"])
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
        from repro.resources.area import TableAreaModel

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
        from repro.resources.area import TableAreaModel

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
