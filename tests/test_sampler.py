from __future__ import annotations

import hashlib
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgzsl import sampler
from kgzsl.errors import ConfigError, ContractError, UnknownNodeError
from kgzsl.kg import Graph
from kgzsl.seeding import derive_seed, derive_seeds, uniform_blocks
from kgzsl.synth import SynthSpec, generate_synthetic

from .helpers import (
    entry_tuple_tables, lexsort_rank_order, markov_hit_table, reference_hit_entries,
    reference_walk_counts, searchsorted_landing_counts, stepwise_sample, total_variation,
)


def path_graph(ids):
    return Graph([("r", a, b) for a, b in zip(ids, ids[1:])])


def uniform_streams(seeds, n):
    """The (len(seeds), n) array of `uniform_blocks`'s blocks side by side."""
    return np.concatenate([np.empty((len(seeds), 0)), *uniform_blocks(seeds, n)], axis=1)


class TestWalkConfig:
    def test_defaults(self):
        cfg = sampler.WalkConfig()
        assert cfg.steps == 20
        assert cfg.restarts == 10

    @pytest.mark.parametrize("kwargs", [{"steps": 0}, {"restarts": 0}, {"steps": -3}])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ConfigError):
            sampler.WalkConfig(**kwargs)

    @pytest.mark.parametrize("value", [True, 1.0, "3"])
    @pytest.mark.parametrize("name", ["steps", "restarts", "seed"])
    def test_rejects_non_integers(self, name, value):
        # the kernel uses steps and restarts as array shapes, and a bool
        # seed would name every stream "True"
        with pytest.raises(ConfigError, match=name):
            sampler.WalkConfig(**{name: value})


def landings(g, center, cfg):
    """{node id: landing count} of `center`'s walks, decoded from the kernel's keys."""
    csr = g.csr()
    cidx = sampler._positions(csr, [center])
    keys = np.concatenate([np.zeros(0, dtype=np.int64), *sampler._walk_steps(csr, [center], cidx, cfg)])
    nodes, counts = np.unique(keys, return_counts=True)
    return {csr.ids[v]: c for v, c in zip(nodes.tolist(), counts.tolist())}


def reference_table(g, center, cfg):
    return reference_hit_entries(g, center, reference_walk_counts(g, center, cfg))


class TestSimulateWalks:
    """The walk kernel's landings and the tables they make."""

    def test_two_node_graph_counts_are_exact(self):
        # the walk must alternate a,b,a,b..., so counts are fully determined
        g = Graph([("r", "a", "b")])
        assert landings(g, "a", sampler.WalkConfig(steps=20, restarts=10)) == {"a": 100, "b": 100}

    def test_start_occupation_not_counted(self):
        g = Graph([("r", "a", "b")])
        assert landings(g, "a", sampler.WalkConfig(steps=1, restarts=5)) == {"b": 5}

    def test_isolated_center_walks_nowhere(self):
        # an isolated center is a dead end from the start: its walks stop
        # there, and the walks of centers sampled in the same run go on
        g = Graph([("r", "a", "b"), ("r", "b", "c")], extra_nodes=["b0"])
        cfg = sampler.WalkConfig(seed=3)
        assert landings(g, "b0", cfg) == {}
        centers = ["a", "b0", "b", "c"]
        tables = sampler._sample(g, centers, cfg)
        assert tables[1].entries == ()
        assert [t.entries for t in tables] == [reference_table(g, c, cfg) for c in centers]

    def test_no_centers_no_tables(self):
        g = Graph([("r", "a", "b")])
        assert sampler._sample(g, [], sampler.WalkConfig()) == []

    def test_unknown_center(self):
        g = Graph([("r", "a", "b")])
        with pytest.raises(UnknownNodeError):
            sampler.sample_neighborhood(g, "nope", sampler.WalkConfig())

    def test_deterministic_for_fixed_seed(self):
        g = path_graph(["a", "b", "c", "d"])
        cfg = sampler.WalkConfig(seed=7)
        assert sampler.sample_neighborhood(g, "b", cfg) == sampler.sample_neighborhood(g, "b", cfg)

    def test_seed_changes_counts(self):
        g = Graph([("r", "c", f"l{i}") for i in range(5)] + [("r", f"l{i}", f"m{i}") for i in range(5)])
        t1 = sampler.sample_neighborhood(g, "c", sampler.WalkConfig(seed=0))
        t2 = sampler.sample_neighborhood(g, "c", sampler.WalkConfig(seed=1))
        assert t1 != t2

    def test_total_steps_bounded(self):
        # from b every other step lands on a or c: 10 of each walk's 20, so
        # the smoothed table's denominator is 10 * 10 + 2
        g = path_graph(["a", "b", "c"])
        table = sampler.sample_neighborhood(g, "b", sampler.WalkConfig(steps=20, restarts=10))
        smoothed = [p * 102 for _, p in table.entries]
        assert [round(c) for c in smoothed] == pytest.approx(smoothed, abs=1e-9)
        assert sum(round(c) for c in smoothed) == 102


class TestHitProbabilities:
    def test_single_neighbor_gets_probability_one(self):
        g = Graph([("r", "a", "b")])
        table = sampler.sample_neighborhood(g, "a", sampler.WalkConfig())
        assert table.entries == (("b", 1.0),)

    def test_smoothing_keeps_unvisited_neighbor(self):
        # one one-step walk lands on e; the other four keep 1/6 each and
        # rank last, in id order
        g = Graph([("r", "hub", n) for n in "bcdef"])
        table = sampler.sample_neighborhood(g, "hub", sampler.WalkConfig(steps=1, restarts=1, seed=3))
        assert table.entries == (("e", 2 / 6), ("b", 1 / 6), ("c", 1 / 6), ("d", 1 / 6), ("f", 1 / 6))

    def test_only_neighbors_eligible(self):
        g = path_graph(["a", "b", "c", "d"])
        cfg = sampler.WalkConfig()
        assert {"c", "d"} <= landings(g, "a", cfg).keys()
        assert sampler.sample_neighborhood(g, "a", cfg).entries == (("b", 1.0),)

    def test_ranking_desc_with_id_tiebreak(self):
        # seed 128 lands on n2 three times and on n1 and n3 once each
        g = Graph([("r", "hub", n) for n in ["n1", "n2", "n3", "n4"]])
        cfg = sampler.WalkConfig(steps=1, restarts=5, seed=128)
        assert landings(g, "hub", cfg) == {"n1": 1, "n2": 3, "n3": 1}
        table = sampler.sample_neighborhood(g, "hub", cfg)
        assert [n for n, _ in table.entries] == ["n2", "n1", "n3", "n4"]

    def test_probabilities_sum_to_one(self):
        g = Graph([("r", "a", n) for n in "bcdef"] + [("r", "b", "c"), ("r", "f", "g")])
        table = sampler.sample_neighborhood(g, "a", sampler.WalkConfig(seed=2))
        assert abs(sum(p for _, p in table.entries) - 1.0) < 1e-12

    def test_isolated_center_empty_table(self):
        g = Graph([("r", "a", "b")], extra_nodes=["x"])
        table = sampler.sample_neighborhood(g, "x", sampler.WalkConfig())
        assert table.entries == ()

    def test_invariant_enforced_on_construction(self):
        with pytest.raises(ContractError):
            sampler.HitTable("a", (("b", 0.7), ("c", 0.2)))

    @pytest.mark.parametrize("entries", [
        (("b", float("nan")), ("c", 0.5)),
        (("b", 0.5), ("c", float("nan"))),
        (("b", float("inf")), ("c", 0.5)),
        (("b", 1.5), ("c", -0.5)),
        (("b", 1.0), ("c", 0.0)),
        (("b", 1.0), ("c", -0.0)),
        (("b", 1.0), ("c", float("-inf"))),
        (("b", float("inf")), ("c", float("-inf"))),
    ], ids=["nan-first", "nan-last", "inf", "negative", "zero", "negative-zero", "minus-inf",
            "inf-and-minus-inf"])
    def test_invalid_probability_rejected(self, entries):
        with pytest.raises(ContractError):
            sampler.HitTable("a", entries)

    RUN_CASES = [
        (("b", 0.7), ("c", 0.2)),
        (("b", 0.5), ("c", 0.25), ("d", 0.25 + 2e-9)),
        (("b", float("nan")), ("c", 0.5)),
        (("b", 0.5), ("c", float("nan"))),
        (("b", float("inf")), ("c", 0.5)),
        (("b", 1.0), ("c", float("-inf"))),
        (("b", float("inf")), ("c", float("-inf"))),
        (("b", 1.5), ("c", -0.5)),
        (("b", 1.0), ("c", 0.0)),
        (("b", 1.0), ("c", -0.0)),
    ]

    @pytest.mark.parametrize("entries", RUN_CASES, ids=[
        "sum-low", "sum-high", "nan-first", "nan-last", "inf", "minus-inf", "inf-and-minus-inf",
        "negative", "zero", "negative-zero"])
    def test_run_check_matches_table_check(self, entries):
        # the bad table sits between valid ones, at a nonzero offset
        with pytest.raises(ContractError) as own:
            sampler.HitTable("a", entries)
        valid = [0.5, 0.25, 0.25]
        probs = np.array(valid + [p for _, p in entries] + valid + [1.0])
        starts = np.array([0, 3, 3 + len(entries), 6 + len(entries)])
        with pytest.raises(ContractError) as run:
            sampler._check_probs(probs, starts)
        assert str(run.value) == str(own.value)

    def test_run_check_raises_for_the_first_bad_table(self):
        # a positivity failure ahead of a sum failure is the one reported
        probs = np.array([1.0, 1.5, -0.5, 0.7, 0.2])
        with pytest.raises(ContractError, match="strictly positive"):
            sampler._check_probs(probs, np.array([0, 1, 3]))
        with pytest.raises(ContractError, match="sum to 0.8999999999999999"):
            sampler._check_probs(probs[3:], np.array([0]))

    def test_run_check_passes_valid_and_empty_runs(self):
        sampler._check_probs(np.array([0.5, 0.5, 1.0]), np.array([0, 2]))
        sampler._check_probs(np.zeros(0), np.zeros(0, dtype=np.intp))

    @given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_table_invariants_random(self, extra_counts, seed):
        g = Graph(
            [("r", "hub", n) for n in "pqrst"] + [("r", "p", "q"), ("r", "t", "deep")]
        )
        cfg = sampler.WalkConfig(steps=5, restarts=max(1, extra_counts), seed=seed)
        table = sampler.sample_neighborhood(g, "hub", cfg)
        probs = [p for _, p in table.entries]
        assert abs(sum(probs) - 1.0) < 1e-9
        assert all(p > 0 for p in probs)
        assert probs == sorted(probs, reverse=True)
        ids = [n for n, _ in table.entries]
        for (n1, p1), (n2, p2) in zip(table.entries, table.entries[1:]):
            if p1 == p2:
                assert n1 < n2
        assert set(ids) <= set(g.neighbors("hub"))


class TestMarkovOracle:
    """Empirical tables against exact transition-matrix powering."""

    @pytest.mark.parametrize(
        "edges,center",
        [
            ([("r", "a", "b"), ("r", "b", "c"), ("r", "c", "d")], "b"),
            ([("r", "a", "b"), ("r", "b", "c"), ("r", "c", "a")], "a"),
            ([("r", "hub", n) for n in "wxyz"], "hub"),
        ],
    )
    def test_small_graphs_converge(self, edges, center):
        g = Graph(edges)
        cfg = sampler.WalkConfig(steps=20, restarts=2000, seed=3)
        table = sampler.sample_neighborhood(g, center, cfg)
        exact = markov_hit_table(g, center, steps=20, restarts=2000)
        assert total_variation(table, exact) <= 0.08


class TestTopN:
    TABLE = sampler.HitTable("a", (("d", 0.5), ("c", 0.3), ("b", 0.1), ("e", 0.1)))
    SINGLE = sampler.HitTable("a", (("b", 1.0),))

    def test_truncates_in_rank_order(self):
        assert sampler.top_n(self.TABLE, 2) == ["d", "c"]

    def test_n_larger_than_table(self):
        assert sampler.top_n(self.SINGLE, 10) == ["b"]

    def test_zero_n_gives_empty_selection(self):
        assert sampler.top_n(self.SINGLE, 0) == []

    def test_rejects_negative_n(self):
        with pytest.raises(ContractError):
            sampler.top_n(self.SINGLE, -1)


class TestHitSource:
    def test_caches_and_matches_direct_call(self):
        g = path_graph(["a", "b", "c"])
        cfg = sampler.WalkConfig(seed=5)
        source = sampler.HitSource(g, cfg)
        direct = sampler.sample_neighborhood(g, "b", cfg)
        assert source("b") == direct
        assert source("b") is source("b")

    def test_query_order_does_not_matter(self):
        g = path_graph(["a", "b", "c", "d"])
        cfg = sampler.WalkConfig(seed=11)
        s1 = sampler.HitSource(g, cfg)
        s2 = sampler.HitSource(g, cfg)
        first_then_second = (s1("a"), s1("c"))
        second_then_first = (s2("c"), s2("a"))
        assert first_then_second[0] == second_then_first[1]
        assert first_then_second[1] == second_then_first[0]

    def test_jsonable_shape(self):
        g = Graph([("r", "a", "b")])
        table = sampler.HitSource(g, sampler.WalkConfig())("a")
        obj = table.to_jsonable()
        assert obj == {"center": "a", "neighbors": [{"id": "b", "p": 1.0}]}


# small graphs with isolated, self-loop-only and edge-free cases
@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    names = [f"n{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=12))
    return Graph([("r", a, b) for a, b in pairs], extra_nodes=names)


class TestAgainstReferenceWalks:
    """The lockstep kernel against the per-node, per-step Python walk."""

    @given(
        small_graphs(),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=-(2 ** 64), max_value=2 ** 64 - 1),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_tables_equal_reference(self, g, steps, restarts, seed, rnd):
        cfg = sampler.WalkConfig(steps=steps, restarts=restarts, seed=seed)
        source = sampler.HitSource(g, cfg)
        order = list(g.nodes)
        rnd.shuffle(order)
        for node in order:
            assert source(node).entries == reference_table(g, node, cfg)

    @given(
        small_graphs(),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=2 ** 64 - 1),
    )
    @example(Graph([("r", "a", "b"), ("r", "b", "c")], extra_nodes=["z"]), 5,
             sampler.CHUNK_STREAMS // 2 + 1, 3)
    @settings(max_examples=30, deadline=None)
    def test_run_equals_old_path(self, g, steps, restarts, seed):
        # every node in one run: isolated centers, and at 4 centers and the
        # example's restarts the run spans three stream chunks
        cfg = sampler.WalkConfig(steps=steps, restarts=restarts, seed=seed)
        csr = g.csr()
        centers = list(csr.ids)
        cidx = sampler._positions(csr, centers)
        slot, nbr = sampler._neighbor_rows(csr, cidx)
        pair_keys = slot * len(csr.ids) + nbr
        counts = sampler._landing_counts(csr, centers, cidx, cfg, pair_keys)
        old = searchsorted_landing_counts(pair_keys, sampler._walk_steps(csr, centers, cidx, cfg))
        assert counts.tolist() == old.tolist()
        tables = sampler._sample(g, centers, cfg)
        want = entry_tuple_tables(csr, centers, slot, nbr, old)
        assert [(t.center, t.entries) for t in tables] == want
        assert [t.to_jsonable() for t in tables] == [
            {"center": c, "neighbors": [{"id": n, "p": p} for n, p in entries]} for c, entries in want
        ]

    @given(
        small_graphs(),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=2 ** 64 - 1),
    )
    @example(Graph([("r", "a", "b"), ("r", "b", "c")], extra_nodes=["z"]), 5,
             sampler.CHUNK_STREAMS // 2 + 1, 3)
    @settings(max_examples=30, deadline=None)
    def test_tables_equal_the_stepwise_oracle(self, g, steps, restarts, seed):
        # the per-step liveness loop and per-table assembly this kernel replaced,
        # over a sorted sweep and over each node's single-node miss
        def bits(tables):
            return [(t.center, t.ids, np.array(t.probs, dtype=np.float64).tobytes()) for t in tables]

        cfg = sampler.WalkConfig(steps=steps, restarts=restarts, seed=seed)
        nodes = sorted(g.nodes)
        source = sampler.HitSource(g, cfg)
        want = bits(stepwise_sample(g, nodes, cfg))
        assert bits(source(node) for node in nodes) == want
        assert [bits(sampler._sample(g, [node], cfg))[0] for node in nodes] == want

    @given(
        small_graphs(),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2 ** 64 - 1),
        st.randoms(use_true_random=False),
    )
    @example(Graph([], extra_nodes=["a", "b"]), 3, 4, 0, random.Random(0))
    @settings(max_examples=40, deadline=None)
    def test_only_centers_with_neighbors_walk(self, g, steps, restarts, seed, rnd):
        # every node a step lands on has a neighbor, so every live walk takes
        # all its steps, and a degree-0 center derives no seed and draws nothing
        cfg = sampler.WalkConfig(steps=steps, restarts=restarts, seed=seed)
        csr = g.csr()
        centers = list(csr.ids)
        rnd.shuffle(centers)
        live = [c for c in centers if g.neighbors(c)]
        cidx = sampler._positions(csr, centers)
        with mock.patch.object(sampler, "derive_seeds", wraps=derive_seeds) as seeding, \
                mock.patch.object(sampler, "uniform_blocks", wraps=uniform_blocks) as drawing:
            keys = np.concatenate([np.zeros(0, dtype=np.int64),
                                   *sampler._walk_steps(csr, centers, cidx, cfg)])
        assert len(keys) == steps * restarts * len(live)
        assert set((keys // len(csr.ids)).tolist()) == {i for i, c in enumerate(centers) if c in live}
        assert [list(call.args[1]) for call in seeding.call_args_list] == [live]
        assert sum(len(call.args[0]) for call in drawing.call_args_list) == restarts * len(live)
        for center, table in zip(centers, sampler._sample(g, centers, cfg)):
            if center not in live:
                assert table.ids == () and table.probs == ()

    def test_edge_free_graph(self):
        g = Graph([], extra_nodes=["a", "b"])
        source = sampler.HitSource(g, sampler.WalkConfig())
        assert source("a").entries == () and source("b").entries == ()

    def test_one_center_over_several_stream_chunks(self):
        # CHUNK_STREAMS + 300 restarts: the hub's streams span two kernel groups
        g = Graph([("r", "hub", n) for n in "pqrst"] + [("r", "p", "q"), ("r", "t", "deep")])
        cfg = sampler.WalkConfig(steps=6, restarts=sampler.CHUNK_STREAMS + 300, seed=4)
        assert sampler.HitSource(g, cfg)("hub").entries == reference_table(g, "hub", cfg)


class TestRankOrder:
    """One stable sort of slot * top + (top - smoothed) orders rows as the lexsort did."""

    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_lexsort_on_tie_heavy_counts(self, slots, top, data):
        rows = data.draw(st.lists(st.tuples(st.integers(0, slots - 1), st.integers(1, top)), max_size=40))
        slot = np.array([r for r, _ in rows], dtype=np.int64)
        smoothed = np.array([c for _, c in rows], dtype=np.int64)
        got = sampler._rank_order(slot, smoothed, slots, top)
        assert got.tolist() == lexsort_rank_order(slot, smoothed).tolist()

    def test_equals_lexsort_up_to_the_largest_key(self):
        # 2 slots * top 2 ** 62 is the bound; slot 1's count 1 keys 2 ** 63 - 1
        slot, smoothed = np.array([1, 1, 0, 1, 0]), np.array([1, 2 ** 62, 7, 2 ** 62, 2 ** 62])
        got = sampler._rank_order(slot, smoothed, 2, 2 ** 62)
        assert got.tolist() == lexsort_rank_order(slot, smoothed).tolist() == [4, 2, 1, 3, 0]

    def test_keys_past_int64_are_a_contract_error(self):
        slot, smoothed = np.array([0, 1]), np.array([1, 1])
        with pytest.raises(ContractError, match="int64"):
            sampler._rank_order(slot, smoothed, 2, 2 ** 62 + 1)


class TestUniformStreams:
    @staticmethod
    def numpy_draws(seeds, n):
        return np.stack([np.random.Generator(np.random.PCG64(s)).random(n) for s in seeds])

    def test_edge_seeds_bitwise(self):
        seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
        got = uniform_streams(seeds, 40)
        assert got.shape == (6, 40)
        assert got.tobytes() == self.numpy_draws(seeds, 40).tobytes()

    @pytest.mark.parametrize("streams, n", [(1, 600), (7, 100), (300, 3)])
    def test_block_widths_bitwise(self, streams, n):
        # one stream jumps 256 draws per block, seven 36, and 300 step one at a time
        seeds = [2 ** 64 - 1 - 977 * i for i in range(streams)]
        assert uniform_streams(seeds, n).tobytes() == self.numpy_draws(seeds, n).tobytes()

    @given(
        st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_seeds_bitwise(self, seeds, n):
        assert uniform_streams(seeds, n).tobytes() == self.numpy_draws(seeds, n).tobytes()


# stream label parts: any integer, or text without lone surrogates (which UTF-8 cannot encode)
LABELS = st.one_of(st.integers(), st.text(st.characters(blacklist_categories=("Cs",))))


class TestDeriveSeeds:
    @pytest.mark.parametrize("head, keys, lasts", [
        (("walk", 0), ["/c/fr/fête", "/c/ja/日本語", "plain"], range(4)),
        (("walk", 2 ** 64), [-7, "b", 2 ** 70 + 3, "ü"], [0, -1, 2 ** 64, "é"]),
    ])
    def test_equal_to_derive_seed(self, head, keys, lasts):
        got = derive_seeds(head, keys, lasts)
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(*head, k, x) for k in keys for x in lasts]

    @given(st.lists(LABELS, max_size=3), st.lists(LABELS, max_size=4), st.lists(LABELS, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_random_labels(self, head, keys, lasts):
        got = derive_seeds(head, keys, lasts)
        assert got.tolist() == [derive_seed(*head, k, x) for k in keys for x in lasts]


class TestHitSourceChunks:
    def test_golden_digest_of_the_default_world(self):
        # tables of the per-node sampler this kernel replaced; any drift in
        # the draws, the walk or the ranking changes the digest
        g = generate_synthetic(SynthSpec(seed=0)).graph
        source = sampler.HitSource(g, sampler.WalkConfig(seed=0))
        tables = {n: source(n).to_jsonable() for n in sorted(g.nodes)}
        digest = hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()
        assert digest == "54e3b0e2c54d42c8ce4aa5d1a8cd822bcbdd61e34d3521ec6a25d9abe678b023"

    @staticmethod
    def two_chunk_graph():
        # a sweep's run holds two centers; five nodes
        g = path_graph(["a", "b", "c", "d", "e"])
        return g, sampler.WalkConfig(steps=5, restarts=sampler.CHUNK_STREAMS // 2, seed=2)

    def test_sparse_misses_sample_only_their_nodes(self):
        g, cfg = self.two_chunk_graph()
        source = sampler.HitSource(g, cfg)
        for node in ("d", "a", "c", "e"):
            source(node)
        assert sorted(source._cache) == ["a", "c", "d", "e"]

    def test_sweep_fills_a_run_per_miss(self):
        g, cfg = self.two_chunk_graph()
        source = sampler.HitSource(g, cfg)
        filled = []
        for node in sorted(g.nodes):
            source(node)
            filled.append(len(source._cache))
        # a alone, then b starts a sweep: b-c, then d-e
        assert filled == [1, 3, 3, 5, 5]

    def test_run_skips_cached_nodes(self):
        g, cfg = self.two_chunk_graph()
        source = sampler.HitSource(g, cfg)
        c_table = source("c")
        source("a")
        source("b")  # right after a: a run over b and c, which is cached
        assert source("c") is c_table
        assert sorted(source._cache) == ["a", "b", "c"]

    def test_kernel_runs_gather_from_the_graph_id_array(self):
        # the id array is built once, with the graph: a one-node miss gathers
        # its neighbors' ids from it and builds nothing per graph node
        gathers = []

        class Spy(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, np.ndarray):
                    gathers.append(self)
                return super().__getitem__(key)

        g, cfg = self.two_chunk_graph()
        g._csr = g.csr()._replace(id_array=g.csr().id_array.view(Spy))
        source = sampler.HitSource(g, cfg)
        tables = [source(node) for node in ("d", "a")]
        assert source.kernel_runs == 2
        assert len(gathers) == 2 and all(ids is g.csr().id_array for ids in gathers)
        plain = self.two_chunk_graph()[0]
        assert tables == [sampler.sample_neighborhood(plain, node, cfg) for node in ("d", "a")]

    def test_fill_order_does_not_change_tables(self):
        g, cfg = self.two_chunk_graph()
        swept, single = sampler.HitSource(g, cfg), sampler.HitSource(g, cfg)
        forward = [swept(n) for n in sorted(g.nodes)]
        backward = [single(n) for n in sorted(g.nodes, reverse=True)]
        assert forward == backward[::-1]
        assert forward == [sampler.sample_neighborhood(g, n, cfg) for n in sorted(g.nodes)]

    def test_unknown_node(self):
        g, cfg = self.two_chunk_graph()
        with pytest.raises(UnknownNodeError):
            sampler.HitSource(g, cfg)("nope")

    def test_sweep_over_several_runs_equals_one_node_sampling(self):
        # 300 nodes, 64 to a run: n000 alone, then five sweep runs of the kernel
        ids = [f"n{i:03d}" for i in range(300)]
        g = Graph([("r", ids[i], ids[(i + 1) % 300]) for i in range(300)]
                  + [("s", ids[i], ids[i * 7 % 300]) for i in range(0, 300, 3)])
        cfg = sampler.WalkConfig(steps=5, restarts=sampler.CHUNK_STREAMS // 64, seed=9)
        source = sampler.HitSource(g, cfg)
        swept = {node: source(node) for node in sorted(g.nodes)}
        assert (source.kernel_runs, source.tables_sampled) == (6, 300)
        for node in sorted(g.nodes)[::50]:
            assert swept[node] == sampler.sample_neighborhood(g, node, cfg)

    @pytest.mark.parametrize("n,restarts", [(1, 10), (5, 10), (820, 10), (821, 10), (9, 3000),
                                            (5, sampler.CHUNK_STREAMS // 2), (4, 9000)])
    def test_cold_sorted_sweep_counts_its_runs(self, n, restarts):
        g = path_graph([f"n{i:03d}" for i in range(n)]) if n > 1 else Graph([], extra_nodes=["n0"])
        source = sampler.HitSource(g, sampler.WalkConfig(steps=2, restarts=restarts))
        for node in sorted(g.nodes):
            source(node)
        # the first node alone, then sweep runs of per_run nodes each
        per_run = max(1, sampler.CHUNK_STREAMS // restarts)
        expected = (1 + math.ceil((n - 1) / per_run), n)
        assert (source.kernel_runs, source.tables_sampled) == expected
        for node in sorted(g.nodes):
            source(node)
        assert (source.kernel_runs, source.tables_sampled) == expected

    def test_each_sparse_miss_is_one_run(self):
        g, cfg = self.two_chunk_graph()
        source = sampler.HitSource(g, cfg)
        for node in ("d", "a", "c", "e", "a", "d"):
            source(node)
        assert (source.kernel_runs, source.tables_sampled) == (4, 4)
