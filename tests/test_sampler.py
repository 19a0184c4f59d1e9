from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgzsl import sampler
from kgzsl.errors import ConfigError, ContractError, UnknownNodeError
from kgzsl.kg import Graph
from kgzsl.seeding import uniform_blocks
from kgzsl.synth import SynthSpec, generate_synthetic

from .helpers import (
    markov_hit_table, reference_hit_entries, reference_walk_counts, total_variation,
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
    keys = np.concatenate([np.zeros(0, dtype=np.int64), *sampler._walk_steps(csr, [center], cfg)])
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

    def test_edge_free_graph(self):
        g = Graph([], extra_nodes=["a", "b"])
        source = sampler.HitSource(g, sampler.WalkConfig())
        assert source("a").entries == () and source("b").entries == ()

    def test_one_center_over_several_stream_chunks(self):
        # 1,324 restarts: the hub's streams span two kernel groups
        g = Graph([("r", "hub", n) for n in "pqrst"] + [("r", "p", "q"), ("r", "t", "deep")])
        cfg = sampler.WalkConfig(steps=6, restarts=sampler.CHUNK_STREAMS + 300, seed=4)
        assert sampler.HitSource(g, cfg)("hub").entries == reference_table(g, "hub", cfg)


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
