from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kgzsl import aggregators as agg
from kgzsl import autodiff as ad
from kgzsl import zeroshot
from kgzsl.errors import ConfigError, ContractError, UnknownNodeError, UnknownRelationError
from kgzsl.kg import FeatureTable, Graph
from kgzsl.sampler import HitSource, HitTable, WalkConfig
from kgzsl.seeding import make_rng
from kgzsl.zeroshot import GnnClassEncoder

from .helpers import (
    ComposedTransformerLayer, fresh_forward, per_node_forward, reference_canonical_rows,
    reference_union_forward, union_dag_size,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def vecs(r, n, d):
    return [ad.constant(r.normal(size=d)) for _ in range(n)]


def out_bytes(t):
    return t.data.tobytes()


class TestMeanPool:
    def test_matches_hand_computation(self):
        layer = agg.MeanPoolLayer(2, 2, activation="relu", rng=rng(1))
        layer.weight.data = np.array([[1.0, 0.0], [0.0, -1.0]])
        self_feat = ad.constant([1.0, 1.0])
        nbrs = [ad.constant([3.0, -1.0]), ad.constant([2.0, 3.0])]
        out = layer.forward(self_feat, nbrs)
        np.testing.assert_allclose(out.data, [2.0, 0.0])  # mean=(2,1), relu(W@mean)

    def test_no_neighbors_uses_self_only(self):
        layer = agg.MeanPoolLayer(2, 2, activation="identity", rng=rng(1))
        layer.weight.data = np.eye(2)
        out = layer.forward(ad.constant([0.5, -0.5]), [])
        np.testing.assert_allclose(out.data, [0.5, -0.5])


class TestAttentionPool:
    def test_zero_scorer_reduces_to_mean(self):
        layer = agg.AttentionPoolLayer(3, 2, activation="identity", rng=rng(2))
        layer.attn.data = np.zeros(4)
        r = rng(3)
        self_feat = ad.constant(r.normal(size=3))
        nbrs = vecs(r, 3, 3)
        out = layer.forward(self_feat, nbrs)
        projected = [layer.weight.data @ t.data for t in [self_feat] + nbrs]
        np.testing.assert_allclose(out.data, np.mean(projected, axis=0), atol=1e-12)

    def test_attention_weights_shift_toward_high_score(self):
        layer = agg.AttentionPoolLayer(2, 2, activation="identity", rng=rng(4))
        r = rng(5)
        out_a = layer.forward(ad.constant(r.normal(size=2)), vecs(r, 2, 2))
        assert out_a.data.shape == (2,)


class TestRelationalMean:
    def test_identity_coefficients_equal_per_relation_weights(self):
        r = rng(6)
        layer = agg.RelationalMeanLayer(
            2, 2, relations=["likes", "hates"], num_bases=2, activation="identity", rng=rng(6)
        )
        layer.coeff["likes"].data = np.array([1.0, 0.0])
        layer.coeff["hates"].data = np.array([0.0, 1.0])
        self_feat = ad.constant(r.normal(size=2))
        n1, n2, n3 = (r.normal(size=2) for _ in range(3))
        tagged = [("likes", ad.constant(n1)), ("likes", ad.constant(n2)), ("hates", ad.constant(n3))]
        out = layer.forward(self_feat, tagged)
        v_likes = layer.bases[0].data
        v_hates = layer.bases[1].data
        expect = (
            v_likes @ ((n1 + n2) / 2.0)
            + v_hates @ n3
            + layer.self_weight.data @ self_feat.data
        )
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_no_neighbors_is_self_transform(self):
        layer = agg.RelationalMeanLayer(2, 3, relations=["r"], activation="identity", rng=rng(7))
        x = np.array([1.0, -2.0])
        out = layer.forward(ad.constant(x), [])
        np.testing.assert_allclose(out.data, layer.self_weight.data @ x)

    def test_unknown_relation_raises(self):
        layer = agg.RelationalMeanLayer(2, 2, relations=["r"], rng=rng(8))
        with pytest.raises(UnknownRelationError):
            layer.forward(ad.constant([1.0, 2.0]), [("q", ad.constant([1.0, 2.0]))])

    def test_per_relation_count_normalization(self):
        layer = agg.RelationalMeanLayer(1, 1, relations=["r"], num_bases=1, activation="identity", rng=rng(9))
        layer.bases[0].data = np.array([[1.0]])
        layer.coeff["r"].data = np.array([1.0])
        layer.self_weight.data = np.array([[0.0]])
        tagged = [("r", ad.constant([4.0])), ("r", ad.constant([2.0]))]
        out = layer.forward(ad.constant([0.0]), tagged)
        np.testing.assert_allclose(out.data, [3.0])

    def test_group_rows_equal_per_node_forward(self):
        # nodes lack relations that others in the group have, and node 0
        # reaches one neighbor through two relations
        layer = agg.RelationalMeanLayer(3, 2, relations=["a", "b", "c"], num_bases=2, rng=rng(52))
        prev = ad.constant(rng(53).normal(size=(7, 3)))
        rows = np.array([[0, 1, 2, 3], [4, 5, 6, 1], [2, 0, 6, 5]])
        node_args = [
            [("a", "b"), ("a",), ("c",)],
            [("b",), ("b",), ("b",)],
            [("a",), ("c",), ("a",)],
        ]
        # forward_group takes each node's neighbors in canonical order
        rows, node_args = agg.canonical_rows(prev.data, rows, node_args)
        group = layer.forward_group(prev, rows, node_args)
        for b, (r, relations) in enumerate(zip(rows, node_args)):
            tagged = [(rel, ad.constant(prev.data[u])) for u, rels in zip(r[1:], relations) for rel in rels]
            want = layer.forward(ad.constant(prev.data[r[0]]), tagged)
            assert group.data[b].tobytes() == want.data.tobytes(), b

    def test_group_unknown_relation_raises(self):
        layer = agg.RelationalMeanLayer(2, 2, relations=["r"], rng=rng(54))
        prev = ad.constant(rng(55).normal(size=(3, 2)))
        with pytest.raises(UnknownRelationError):
            layer.forward_group(prev, np.array([[0, 1], [1, 2]]), [[("r",)], [("q",)]])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def lstm_layer_oracle(layer, self_feat, neighbors, permutation):
    """SequencePoolLayer in plain numpy: LSTM gates over the permuted
    (neighbors..., self) sequence, then act(W [h_v ; a_v]) with relu."""
    cell = layer.cell
    members = list(neighbors) + [self_feat]
    h = np.zeros(cell.hidden_dim)
    c = np.zeros(cell.hidden_dim)
    for j in permutation:
        x = members[j]
        pre = {g: cell.wx[g].data @ x + cell.wh[g].data @ h + cell.b[g].data for g in "ifgo"}
        c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["g"])
        h = _sigmoid(pre["o"]) * np.tanh(c)
    return np.maximum(layer.weight.data @ np.concatenate([self_feat, h]), 0.0)


class TestSequencePool:
    def test_matches_numpy_oracle_per_node(self):
        layer = agg.SequencePoolLayer(3, 4, rng=rng(56))
        r = rng(57)
        self_feat, nbrs = r.normal(size=3), [r.normal(size=3) for _ in range(3)]
        perm = [2, 0, 3, 1]
        out = layer.forward(ad.constant(self_feat), [ad.constant(n) for n in nbrs], permutation=perm)
        np.testing.assert_allclose(out.data, lstm_layer_oracle(layer, self_feat, nbrs, perm), rtol=0, atol=1e-12)

    def test_matches_numpy_oracle_in_a_group(self):
        layer = agg.SequencePoolLayer(3, 4, rng=rng(58))
        prev = ad.constant(rng(59).normal(size=(6, 3)))
        rows = np.array([[0, 1, 2], [3, 4, 5], [5, 0, 3]])
        perms = [[0, 1, 2], [2, 1, 0], [1, 2, 0]]
        out = layer.forward_group(prev, rows, perms)
        assert out.data.shape == (3, 4)
        for b, (r, perm) in enumerate(zip(rows, perms)):
            want = lstm_layer_oracle(layer, prev.data[r[0]], [prev.data[u] for u in r[1:]], perm)
            np.testing.assert_allclose(out.data[b], want, rtol=0, atol=1e-12)

    def test_hidden_width_equals_input_width(self):
        layer = agg.SequencePoolLayer(5, 2, rng=rng(11))
        assert layer.cell.hidden_dim == 5
        assert layer.weight.data.shape == (2, 10)

    def test_permutation_required(self):
        layer = agg.SequencePoolLayer(2, 2, rng=rng(12))
        with pytest.raises(ContractError):
            layer.forward(ad.constant([1.0, 2.0]), vecs(rng(0), 2, 2))

    def test_bad_permutation_rejected(self):
        layer = agg.SequencePoolLayer(2, 2, rng=rng(12))
        with pytest.raises(ContractError):
            layer.forward(ad.constant([1.0, 2.0]), vecs(rng(0), 2, 2), permutation=[0, 0, 1])

    def test_same_permutation_is_bitwise_stable(self):
        layer = agg.SequencePoolLayer(3, 2, rng=rng(13))
        r = rng(14)
        self_feat, nbrs = ad.constant(r.normal(size=3)), vecs(r, 3, 3)
        a = layer.forward(self_feat, nbrs, permutation=[2, 0, 3, 1])
        b = layer.forward(self_feat, nbrs, permutation=[2, 0, 3, 1])
        assert out_bytes(a) == out_bytes(b)

    def test_order_sensitivity(self):
        layer = agg.SequencePoolLayer(3, 2, rng=rng(15))
        r = rng(16)
        self_feat, nbrs = ad.constant(r.normal(size=3)), vecs(r, 3, 3)
        a = layer.forward(self_feat, nbrs, permutation=[0, 1, 2, 3])
        b = layer.forward(self_feat, nbrs, permutation=[3, 2, 1, 0])
        assert out_bytes(a) != out_bytes(b)


class TestTransformerPool:
    def test_projection_is_half_width(self):
        layer = agg.TransformerPoolLayer(6, 4, rng=rng(19))
        assert layer.proj_dim == 3
        assert layer.p_in.data.shape == (3, 6)
        assert layer.p_out.data.shape == (6, 3)
        assert layer.ff1.data.shape == (3, 3)

    def test_single_attention_block_parameter_set(self):
        layer = agg.TransformerPoolLayer(4, 4, rng=rng(20))
        names = set(layer.parameters())
        # exactly one q/k/v/o quartet exists
        assert sum(1 for n in names if n.endswith("/Wq")) == 1
        assert sum(1 for n in names if n.endswith("/Wk")) == 1

    def test_lone_node_forward(self):
        layer = agg.TransformerPoolLayer(4, 3, rng=rng(21))
        out = layer.forward(ad.constant(rng(22).normal(size=4)), [])
        assert out.data.shape == (3,)

    def test_combine_self_widens_final_weight(self):
        layer = agg.TransformerPoolLayer(4, 3, rng=rng(23))
        # TrGCN's combine act(W [h_v ; a_v]) takes the node and the pool side by side
        assert layer.weight.data.shape == (3, 8)


PERMUTATION_FREE = ["gcn", "gat", "transformer"]


class TestPermutationInvariance:
    @pytest.mark.parametrize("kind", PERMUTATION_FREE)
    def test_bitwise_under_neighbor_shuffles(self, kind):
        layer = agg.make_layer(kind, 4, 3, rng=rng(24), name=f"perm-{kind}")
        r = rng(25)
        self_feat = ad.constant(r.normal(size=4))
        nbrs = vecs(r, 5, 4)
        baseline = out_bytes(layer.forward(self_feat, nbrs))
        for i in range(20):
            perm = rng(100 + i).permutation(len(nbrs))
            shuffled = [nbrs[j] for j in perm]
            assert out_bytes(layer.forward(self_feat, shuffled)) == baseline

    def test_rgcn_bitwise_under_shuffles(self):
        layer = agg.RelationalMeanLayer(4, 3, relations=["a", "b"], num_bases=2, rng=rng(26))
        r = rng(27)
        self_feat = ad.constant(r.normal(size=4))
        tagged = [("a", t) for t in vecs(r, 3, 4)] + [("b", t) for t in vecs(r, 3, 4)]
        baseline = out_bytes(layer.forward(self_feat, tagged))
        for i in range(20):
            perm = rng(200 + i).permutation(len(tagged))
            shuffled = [tagged[j] for j in perm]
            assert out_bytes(layer.forward(self_feat, shuffled)) == baseline


class TestLayerGradients:
    def make_loss(self, layer, kind, r):
        self_feat = ad.constant(r.normal(size=(layer.in_dim,)))
        if kind == "rgcn":
            tagged = [(rel, t) for rel in layer.relations for t in vecs(r, 2, layer.in_dim)]
            forward = lambda: layer.forward(self_feat, tagged)
        elif kind == "lstm":
            nbrs = vecs(r, 3, layer.in_dim)
            forward = lambda: layer.forward(self_feat, nbrs, permutation=[1, 3, 0, 2])
        else:
            nbrs = vecs(r, 3, layer.in_dim)
            forward = lambda: layer.forward(self_feat, nbrs)
        weights = ad.constant(r.normal(size=(layer.out_dim,)))
        return lambda: ad.sum(ad.multiply(forward(), weights))

    @pytest.mark.parametrize("kind", ["gcn", "gat", "rgcn", "lstm", "transformer"])
    def test_grad_check(self, kind):
        kwargs = {"relations": ["a", "b"], "num_bases": 2} if kind == "rgcn" else {}
        layer = agg.make_layer(kind, 4, 3, rng=rng(30), name=f"gc-{kind}", **kwargs)
        fn = self.make_loss(layer, kind, rng(31))
        report = ad.grad_check(fn, layer.parameters())
        assert report.passed, report.max_rel_err


class TestGnnStack:
    def test_dims_must_chain(self):
        l1 = agg.MeanPoolLayer(4, 3, rng=rng(32))
        l2 = agg.MeanPoolLayer(5, 2, rng=rng(33))
        with pytest.raises(ConfigError):
            agg.GnnStack([l1, l2], [2, 2])

    def test_limits_must_match_layer_count(self):
        l1 = agg.MeanPoolLayer(4, 3, rng=rng(34))
        with pytest.raises(ConfigError):
            agg.GnnStack([l1], [2, 2])

    def test_parameters_prefixed_per_layer(self):
        l1 = agg.MeanPoolLayer(4, 3, rng=rng(35), name="m")
        stack = agg.GnnStack([l1], [5])
        assert list(stack.parameters()) == ["layer0/m/W"]

    @pytest.mark.parametrize("limit", [1.5, "2", True])
    def test_hop_limits_must_be_integers(self, limit):
        # refused when the stack is built: a float would fail only at the
        # first forward, inside top_n's slice, and True would count as 1
        l1 = agg.MeanPoolLayer(4, 3, rng=rng(36))
        with pytest.raises(ConfigError, match=re.escape(repr(limit))):
            agg.GnnStack([l1], [limit])

    def test_numpy_integer_hop_limits_are_counts(self):
        l1 = agg.MeanPoolLayer(4, 3, rng=rng(36))
        assert agg.GnnStack([l1], [np.int64(2)]).hop_limits == [2]


def two_hop_fixture(extra_edges=(), seed=0, dim=3):
    edges = [
        ("r", "c", "n1"),
        ("r", "c", "n2"),
        ("r", "c", "n3"),
        ("r", "n1", "m1"),
        ("r", "n2", "m2"),
        ("r", "n3", "m3"),
    ] + list(extra_edges)
    g = Graph(edges)
    r = rng(seed)
    feats = FeatureTable(dim, {v: r.normal(size=dim) for v in g.nodes})
    hits = HitSource(g, WalkConfig(seed=seed))
    return g, feats, hits


class TestGnnForward:
    def test_one_layer_equals_direct_layer_call(self):
        g, feats, hits = two_hop_fixture()
        layer = agg.MeanPoolLayer(3, 2, rng=rng(40))
        stack = agg.GnnStack([layer], [10])
        out = fresh_forward(stack, g, feats, hits, "c")
        direct = layer.forward(
            ad.constant(feats["c"]), [ad.constant(feats[u]) for u in g.neighbors("c")]
        )
        assert out_bytes(out) == out_bytes(direct)

    def test_truncation_respects_hit_ranking(self):
        from kgzsl.sampler import top_n

        g, feats, hits = two_hop_fixture()
        layer = agg.MeanPoolLayer(3, 2, rng=rng(41))
        stack = agg.GnnStack([layer], [2])
        out = fresh_forward(stack, g, feats, hits, "c")
        kept = top_n(hits("c"), 2)
        direct = layer.forward(ad.constant(feats["c"]), [ad.constant(feats[u]) for u in kept])
        assert out_bytes(out) == out_bytes(direct)

    def test_eval_mode_bitwise_deterministic(self):
        g, feats, hits = two_hop_fixture()
        layers = [
            agg.SequencePoolLayer(3, 3, rng=rng(42), name="s1"),
            agg.TransformerPoolLayer(3, 2, rng=rng(43), name="t1"),
        ]
        stack = agg.GnnStack(layers, [2, 2])
        a = fresh_forward(stack, g, feats, hits, "c", mode="eval", seed=9)
        b = fresh_forward(stack, g, feats, hits, "c", mode="eval", seed=9)
        assert out_bytes(a) == out_bytes(b)

    def test_train_mode_resamples_sequence_order(self):
        g, feats, hits = two_hop_fixture()
        stack = agg.GnnStack([agg.SequencePoolLayer(3, 2, rng=rng(44))], [3])
        from kgzsl.seeding import make_rng

        shared = make_rng("test-train", 0)
        outs = {
            out_bytes(fresh_forward(stack, g, feats, hits, "c", mode="train", rng=shared))
            for _ in range(6)
        }
        assert len(outs) > 1

    def test_perturbing_outside_truncated_neighborhood_is_invisible(self):
        from kgzsl.sampler import top_n

        g, feats, hits = two_hop_fixture()
        stack = agg.GnnStack(
            [agg.MeanPoolLayer(3, 3, rng=rng(45)), agg.TransformerPoolLayer(3, 2, rng=rng(46))],
            [2, 2],
        )
        kept = set(top_n(hits("c"), 2))
        dropped = [n for n in ("n1", "n2", "n3") if n not in kept][0]
        outside = {dropped, {"n1": "m1", "n2": "m2", "n3": "m3"}[dropped]}

        base = fresh_forward(stack, g, feats, hits, "c", seed=1)
        bumped = {
            v: (np.asarray(feats[v]) + (5.0 if v in outside else 0.0)) for v in g.nodes
        }
        feats2 = FeatureTable(3, bumped)
        after = fresh_forward(stack, g, feats2, hits, "c", seed=1)
        assert out_bytes(base) == out_bytes(after)

    def test_perturbing_inside_neighborhood_changes_output(self):
        from kgzsl.sampler import top_n

        g, feats, hits = two_hop_fixture()
        stack = agg.GnnStack(
            [agg.MeanPoolLayer(3, 3, rng=rng(45)), agg.TransformerPoolLayer(3, 2, rng=rng(46))],
            [2, 2],
        )
        inside = top_n(hits("c"), 2)[0]
        base = fresh_forward(stack, g, feats, hits, "c", seed=1)
        bumped = {v: (np.asarray(feats[v]) + (5.0 if v == inside else 0.0)) for v in g.nodes}
        after = fresh_forward(stack, g, FeatureTable(3, bumped), hits, "c", seed=1)
        assert out_bytes(base) != out_bytes(after)

    def test_cycle_back_to_center_is_consistent(self):
        g, feats, hits = two_hop_fixture(extra_edges=[("r", "n1", "c")])
        stack = agg.GnnStack(
            [agg.MeanPoolLayer(3, 3, rng=rng(47)), agg.MeanPoolLayer(3, 2, rng=rng(48))],
            [3, 3],
        )
        out = fresh_forward(stack, g, feats, hits, "c")
        assert out.data.shape == (2,)

    def test_unknown_node(self):
        g, feats, hits = two_hop_fixture()
        stack = agg.GnnStack([agg.MeanPoolLayer(3, 2, rng=rng(49))], [2])
        with pytest.raises(UnknownNodeError):
            fresh_forward(stack, g, feats, hits, "nope")

    def test_train_mode_needs_an_rng(self):
        g, feats, hits = two_hop_fixture()
        stack = agg.GnnStack([agg.SequencePoolLayer(3, 2, rng=rng(52))], [3])
        with pytest.raises(ContractError, match="rng"):
            fresh_forward(stack, g, feats, hits, "c", mode="train")

    def test_rgcn_sees_relation_tags(self):
        edges = [("likes", "c", "a"), ("hates", "c", "b")]
        g = Graph(edges)
        r = rng(50)
        feats = FeatureTable(2, {v: r.normal(size=2) for v in g.nodes})
        hits = HitSource(g, WalkConfig(seed=3))
        layer = agg.RelationalMeanLayer(2, 2, relations=["likes", "hates"], num_bases=2, rng=rng(51))
        stack = agg.GnnStack([layer], [5])
        out = fresh_forward(stack, g, feats, hits, "c")
        tagged = [("likes", ad.constant(feats["a"])), ("hates", ad.constant(feats["b"]))]
        direct = layer.forward(ad.constant(feats["c"]), tagged)
        assert out_bytes(out) == out_bytes(direct)


KINDS = ["gcn", "gat", "rgcn", "lstm", "transformer"]
RELATIONS = ["r0", "r1"]


def random_world(seed, num_nodes, dim):
    """A connected random multigraph over n0..n{num_nodes-1}, two relations."""
    r = rng(seed)
    edges = {("r0", f"n{i}", f"n{i + 1}") for i in range(num_nodes - 1)}
    for _ in range(2 * num_nodes):
        a, b = (int(i) for i in r.integers(0, num_nodes, 2))
        if a != b:
            edges.add((RELATIONS[int(r.integers(0, 2))], f"n{a}", f"n{b}"))
    g = Graph(sorted(edges))
    feats = FeatureTable(dim, {v: r.normal(size=dim) for v in g.nodes})
    return g, feats, HitSource(g, WalkConfig(steps=8, restarts=4, seed=seed))


def tied_world(seed, num_nodes, dim):
    """A random world like `random_world` whose features tie.

    Each node's feature row is one of three rows drawn from 0.0, -0.0,
    1.0 and -1.0, so members often tie in bytes, or in value only, at
    level 1 and above; and about a third of the extra edges join their
    pair through both relations.
    """
    r = rng(seed)
    edges = {("r0", f"n{i}", f"n{i + 1}") for i in range(num_nodes - 1)}
    for _ in range(2 * num_nodes):
        a, b = (int(i) for i in r.integers(0, num_nodes, 2))
        if a != b:
            relations = RELATIONS if r.integers(0, 3) == 0 else [RELATIONS[int(r.integers(0, 2))]]
            edges.update((rel, f"n{a}", f"n{b}") for rel in relations)
    g = Graph(sorted(edges))
    palette = np.array([0.0, -0.0, 1.0, -1.0])[r.integers(0, 4, size=(3, dim))]
    feats = FeatureTable(dim, {v: palette[int(r.integers(0, 3))] for v in g.nodes})
    return g, feats, HitSource(g, WalkConfig(steps=8, restarts=4, seed=seed))


def make_stack(kinds, limits, dim, seed, activation="tanh"):
    layers = []
    for i, kind in enumerate(kinds):
        kwargs = {"relations": RELATIONS, "num_bases": 2} if kind == "rgcn" else {}
        layers.append(agg.make_layer(kind, dim, dim, activation=activation,
                                     rng=make_rng("stack-test", seed, i), name=f"{kind}{i}", **kwargs))
    return agg.GnnStack(layers, limits)


class TestLevelBatchedForward:
    @pytest.mark.parametrize("kind", KINDS)
    @given(
        seed=st.integers(0, 10_000),
        num_nodes=st.integers(2, 10),
        dim=st.integers(1, 6),
        limits=st.lists(st.integers(0, 5), min_size=1, max_size=3),
        others=st.lists(st.sampled_from(KINDS), min_size=2, max_size=2),
        mode=st.sampled_from(["eval", "train"]),
    )
    # rgcn: n1 reaches neighbors through both relations, and its 8
    # (neighbor, relation) pairs once rounded differently from the
    # level-batched path's 5 neighbors
    @example(seed=885, num_nodes=6, dim=1, limits=[5], others=["gcn", "gcn"], mode="eval")
    @settings(max_examples=15, deadline=None)
    def test_matches_per_node_reference_bitwise(self, kind, seed, num_nodes, dim, limits, others, mode):
        g, feats, hits = random_world(seed, num_nodes, dim)
        stack = make_stack([kind] + others[:len(limits) - 1], limits, dim, seed)
        batched_rng, reference_rng = make_rng("perm", seed), make_rng("perm", seed)
        for v in g.nodes:
            got = fresh_forward(stack, g, feats, hits, v, mode=mode, seed=seed, rng=batched_rng)
            want = per_node_forward(stack, g, feats, hits, v, mode=mode, seed=seed, rng=reference_rng)
            assert got.data.tobytes() == want.data.tobytes(), v
        # train-mode permutations came off the stream in the same order
        assert batched_rng.random() == reference_rng.random()

    @pytest.mark.parametrize("kind", KINDS)
    def test_grad_check_two_layer_stack(self, kind):
        # width 4, so the transformer's projection is 2 wide: layer norm
        # over a single feature is constant and parks ff relus on the kink
        g, feats, hits = random_world(3, 6, 4)
        stack = make_stack([kind, kind], [2, 3], 4, seed=4)
        weights = ad.constant(rng(5).normal(size=4))

        def loss():
            outs = [fresh_forward(stack, g, feats, hits, v, seed=1) for v in ("n0", "n3")]
            return ad.sum(ad.multiply(ad.add(outs[0], outs[1]), weights))

        report = ad.grad_check(loss, stack.parameters())
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradients_match_per_node_reference(self, kind):
        # three levels, so a node's row feeds several nodes of the level above
        g, feats, hits = random_world(7, 9, 4)
        stack = make_stack([kind] * 3, [3, 3, 3], 4, seed=8)
        params = stack.parameters()
        weights = ad.constant(rng(9).normal(size=4))

        def grads(forward):
            for t in params.values():
                t.zero_grad()
            perm_rng = make_rng("grad-perm", 0)
            outs = [forward(stack, g, feats, hits, v, mode="train", rng=perm_rng) for v in g.nodes]
            ad.backward(ad.sum(ad.multiply(ad.sum(ad.stack(outs), axis=0), weights)))
            return {name: t.grad.copy() for name, t in params.items()}

        batched, reference = grads(fresh_forward), grads(per_node_forward)
        for name, want in reference.items():
            err = np.linalg.norm(batched[name] - want) / max(np.linalg.norm(want), 1e-300)
            assert err <= 1e-12, (name, err)

    def test_fused_transformer_matches_composed_block_bitwise(self):
        # three levels; below the top, each level runs several member
        # counts whose groups share rows of `prev`, so their gradients
        # add up there in the tape's order
        g, feats, hits = random_world(11, 9, 5)
        stack = make_stack(["transformer"] * 3, [4, 3, 3], 5, seed=12)
        oracle = agg.GnnStack([
            ComposedTransformerLayer(5, 5, activation="tanh", rng=make_rng("stack-test", 12, i),
                                     name=f"transformer{i}")
            for i in range(3)
        ], stack.hop_limits)
        weights = ad.constant(rng(13).normal(size=5))

        def spy(layer, calls):
            inner = layer.forward_group

            def forward_group(prev, rows, node_args=None):
                calls.append(rows)
                return inner(prev, rows, node_args)
            layer.forward_group = forward_group

        groups = {0: [], 1: []}
        for level, calls in groups.items():
            spy(stack.layers[level], calls)
        fresh_forward(stack, g, feats, hits, "n2", seed=2)
        for level, calls in groups.items():
            del stack.layers[level].forward_group
            assert len(calls) >= 2, level
            assert set(calls[0].ravel()) & set(calls[1].ravel()), level

        def run(s):
            perm_rng = make_rng("fused-perm", 2)
            outs = [fresh_forward(s, g, feats, hits, v, mode="train", rng=perm_rng) for v in g.nodes]
            ad.backward(ad.sum(ad.multiply(ad.sum(ad.stack(outs), axis=0), weights)))
            grads = {name: t.grad.tobytes() for name, t in s.parameters().items()}
            return [o.data.tobytes() for o in outs], grads

        assert run(stack) == run(oracle)

    @pytest.mark.parametrize("kind", ["gcn", "gat", "rgcn", "transformer"])
    def test_tape_scales_with_depth_not_neighborhood_size(self, kind):
        # in a complete graph on n + 1 nodes every node has n neighbors,
        # so with hop limits n every node of the DAG has n + 1 members
        def tape_nodes(n):
            nodes = [f"v{i}" for i in range(n + 1)]
            g = Graph([("r0", a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]])
            feats = FeatureTable(4, {v: rng(n).normal(size=4) for v in g.nodes})
            stack = make_stack([kind, kind], [n, n], 4, seed=0, activation="relu")
            out = fresh_forward(stack, g, feats, HitSource(g, WalkConfig(seed=0)), "v0",
                                mode="train", rng=rng(n))
            return len(ad.Tape.from_output(out))

        assert tape_nodes(2) == tape_nodes(8)


class TestSharedEval:
    """One eval pass is one encode of a sequence of roots."""

    @pytest.mark.parametrize("kind", KINDS)
    @given(
        seed=st.integers(0, 10_000),
        num_nodes=st.integers(2, 10),
        dim=st.integers(1, 6),
        limits=st.lists(st.integers(0, 5), min_size=1, max_size=3),
        others=st.lists(st.sampled_from(KINDS), min_size=2, max_size=2),
        picks=st.lists(st.integers(0, 9), min_size=1, max_size=12),
    )
    # hop limits that differ by depth: a node's neighbor list, and so its
    # rows, depend on the depth at which each root reaches it
    @example(seed=3, num_nodes=9, dim=3, limits=[3, 1], others=["gat", "gcn"], picks=[0, 4, 4, 7])
    @example(seed=4, num_nodes=10, dim=2, limits=[2, 0, 1], others=["lstm", "rgcn"], picks=[1, 2, 3, 1])
    @settings(max_examples=15, deadline=None)
    def test_pass_matches_fresh_per_root_forward_bitwise(self, kind, seed, num_nodes, dim, limits,
                                                          others, picks):
        from kgzsl.sampler import top_n

        g, feats, hits = random_world(seed, num_nodes, dim)
        stack = make_stack([kind] + others[:len(limits) - 1], limits, dim, seed)
        roots = [g.nodes[i % len(g.nodes)] for i in picks]
        # repeats, and roots that are the first root's own sampled neighbors
        roots += roots[:1] + top_n(hits(roots[0]), limits[0])
        with ad.no_grad():
            want = [fresh_forward(stack, g, feats, hits, v, seed=seed).data.tobytes() for v in roots]
            got = fresh_forward(stack, g, feats, hits, roots, seed=seed).data
        assert got.shape == (len(roots), stack.out_dim)
        assert [row.tobytes() for row in got] == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_wide_groups_go_in_capped_slices(self, kind):
        # every leaf of a star is a root with one neighbor, the hub, so
        # each level holds one member-count group of over 150 nodes
        leaves = [f"leaf{i:03d}" for i in range(150)]
        g = Graph([("r0", "hub", v) for v in leaves])
        r = rng(21)
        feats = FeatureTable(3, {v: r.normal(size=3) for v in g.nodes})
        hits = HitSource(g, WalkConfig(steps=4, restarts=4, seed=2))
        stack = make_stack([kind, kind], [1, 1], 3, seed=22)
        with ad.no_grad():
            want = [fresh_forward(stack, g, feats, hits, v, seed=5).data.tobytes() for v in leaves]
            sizes = []
            for layer in stack.layers:
                def spy(prev, rows, node_args, forward=layer.forward_group):
                    sizes.append(len(rows))
                    return forward(prev, rows, node_args)
                layer.forward_group = spy
            got = fresh_forward(stack, g, feats, hits, leaves, seed=5).data
        assert [row.tobytes() for row in got] == want
        assert max(sizes) == agg.GROUP_ROWS
        assert sum(sizes) > 2 * len(leaves)

    def test_unknown_declared_root_is_named(self):
        g, feats, source = random_world(9, 5, 2)
        # sources that would serve a node the graph lacks
        feats = FeatureTable(2, {**{v: feats[v] for v in g.nodes}, "nowhere": np.ones(2)})

        def hits(v):
            return source(v) if v in g else HitTable(v, ())

        stack = make_stack(["gcn"], [2], 2, seed=1)
        with ad.no_grad(), pytest.raises(UnknownNodeError, match="nowhere"):
            fresh_forward(stack, g, feats, hits, ["n0", "nowhere"])

    def test_empty_sequence_is_contract_error(self):
        g, feats, hits = random_world(9, 5, 2)
        stack = make_stack(["gcn"], [2], 2, seed=1)
        with pytest.raises(ContractError, match="no nodes"):
            fresh_forward(stack, g, feats, hits, [])


class TestUnionBuild:
    """The union DAG build, against the one it replaced and by what it reads."""

    @pytest.mark.parametrize("kind", KINDS)
    @given(
        seed=st.integers(0, 10_000),
        num_nodes=st.integers(2, 10),
        dim=st.integers(1, 6),
        limits=st.lists(st.integers(0, 5), min_size=1, max_size=3),
        others=st.lists(st.sampled_from(KINDS), min_size=2, max_size=2),
        picks=st.lists(st.integers(0, 9), min_size=1, max_size=12),
        mode=st.sampled_from(["eval", "train"]),
    )
    @example(seed=3, num_nodes=9, dim=3, limits=[3, 1], others=["gat", "gcn"], picks=[0, 4, 4, 7],
             mode="train")
    @example(seed=4, num_nodes=10, dim=2, limits=[2, 0, 1], others=["lstm", "rgcn"], picks=[1, 2, 3, 1],
             mode="train")
    @example(seed=5, num_nodes=10, dim=3, limits=[4, 2, 3], others=["lstm", "lstm"], picks=[5, 0, 9, 5],
             mode="train")
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_union_forward_bitwise(self, kind, seed, num_nodes, dim, limits, others,
                                                     picks, mode):
        from kgzsl.sampler import top_n

        g, feats, hits = random_world(seed, num_nodes, dim)
        stack = make_stack([kind] + others[:len(limits) - 1], limits, dim, seed)
        roots = [g.nodes[i % len(g.nodes)] for i in picks]
        roots += roots[:1] + top_n(hits(roots[0]), limits[0])
        params = stack.parameters()
        weights = ad.constant(make_rng("union-weights", seed).normal(size=(len(roots), dim)))

        def run(forward):
            for t in params.values():
                t.zero_grad()
            perm_rng = make_rng("union-perm", seed)
            out = forward(stack, g, feats, hits, roots, mode=mode, seed=seed, rng=perm_rng)
            ad.backward(ad.sum(ad.multiply(out, weights)))
            grads = {name: None if t.grad is None else t.grad.tobytes() for name, t in params.items()}
            # train-mode permutations came off the stream in the same order
            return out.data.tobytes(), grads, perm_rng.random()

        assert run(fresh_forward) == run(reference_union_forward)

    @pytest.mark.parametrize("roots, hit, read", [
        # a path: from p3, p0 and p6 are first reached at depth 3, so
        # only p0 itself, as a root, expands
        (["p3", "p0", "p3"], {"p0", "p1", "p2", "p3", "p4", "p5"},
         {"p0", "p1", "p2", "p3", "p4", "p5", "p6"}),
        (["p6"], {"p6", "p5", "p4"}, {"p6", "p5", "p4", "p3"}),
        # a star: the hub keeps its two top-ranked spokes, so s2 is never read
        (["s3"], {"s3", "hub", "s0", "s1"}, {"s3", "hub", "s0", "s1"}),
    ])
    def test_reads_each_node_once_and_walks_no_leaf(self, roots, hit, read):
        path = [f"p{i}" for i in range(7)]
        spokes = [f"s{i}" for i in range(4)]
        g = Graph([("r0", a, b) for a, b in zip(path, path[1:])]
                  + [("r0", "hub", s) for s in spokes])
        r = rng(37)
        feats = FeatureTable(2, {v: r.normal(size=2) for v in g.nodes})
        hit_calls, reads = Counter(), Counter()

        def hits(v):
            hit_calls[v] += 1
            nbrs = g.neighbors(v)
            return HitTable(v, tuple((u, 1 / len(nbrs)) for u in sorted(nbrs)))

        class CountingFeatures:
            dimension = 2

            def __getitem__(self, v):
                reads[v] += 1
                return feats[v]

        stack = make_stack(["gcn"] * 3, [2, 2, 2], 2, seed=38)
        with ad.no_grad():
            fresh_forward(stack, g, CountingFeatures(), hits, roots)
        assert dict(hit_calls) == dict.fromkeys(hit, 1)
        assert dict(reads) == dict.fromkeys(read, 1)


ORDER_FREE = ["gcn", "gat", "rgcn", "transformer"]

TRAIN_WORLDS = dict(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(2, 10),
    dim=st.integers(1, 6),
    limits=st.lists(st.integers(0, 5), min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 9), min_size=1, max_size=12),
)


def train_roots(g, hits, limits, picks):
    # repeats, and roots that are the first root's own sampled neighbors
    from kgzsl.sampler import top_n

    roots = [g.nodes[i % len(g.nodes)] for i in picks]
    return roots + roots[:1] + top_n(hits(roots[0]), limits[0])


class CountingRng:
    """A permutation stream that counts its draws."""

    def __init__(self, seed):
        self.rng = make_rng("union-train-perm", seed)
        self.draws = 0

    def permutation(self, n):
        self.draws += 1
        return self.rng.permutation(n)


class TestUnionTrain:
    """A train step encodes its classes as one union forward, as `_fit` calls it."""

    @pytest.mark.parametrize("kind", ORDER_FREE)
    @given(others=st.lists(st.sampled_from(ORDER_FREE), min_size=2, max_size=2), **TRAIN_WORLDS)
    # hop limits that differ by depth, and a repeated root
    @example(others=["gat", "rgcn"], seed=3, num_nodes=9, dim=3, limits=[3, 1, 2], picks=[0, 4, 4, 7])
    @settings(max_examples=15, deadline=None)
    def test_loss_and_gradients_match_stacked_per_root_calls(self, kind, others, seed, num_nodes,
                                                             dim, limits, picks):
        g, feats, hits = random_world(seed, num_nodes, dim)
        stack = make_stack([kind] + others[:len(limits) - 1], limits, dim, seed)
        roots = train_roots(g, hits, limits, picks)
        params = stack.parameters()
        weights = make_rng("union-train-weights", seed).normal(size=(len(roots), dim))

        def run(encode):
            for t in params.values():
                t.zero_grad()
            out = encode(make_rng("union-train-perm", seed))
            loss = ad.sum(ad.multiply(out, ad.constant(weights)))
            ad.backward(loss)
            grads = {name: np.zeros(t.shape) if t.grad is None else t.grad.copy()
                     for name, t in params.items()}
            return float(loss.data), np.abs(out.data * weights).sum(), grads

        union = run(lambda r: fresh_forward(stack, g, feats, hits, roots, mode="train", seed=seed, rng=r))
        apart = run(lambda r: ad.stack([fresh_forward(stack, g, feats, hits, v, mode="train", seed=seed,
                                                      rng=r) for v in roots]))
        # the loss is compared with the size of its terms, which may cancel
        assert abs(union[0] - apart[0]) <= 1e-12 * apart[1]
        # and each gradient with the whole gradient's norm: attention over
        # near-equal members leaves Wq and Wk gradients that cancel to 1e-6
        # of it or less, and their rounding is relative to the terms
        scale = np.sqrt(sum(np.sum(want ** 2) for want in apart[2].values()))
        for name, want in apart[2].items():
            err = np.linalg.norm(union[2][name] - want)
            assert err <= 1e-12 * scale, (name, err)

    @given(**TRAIN_WORLDS)
    @example(seed=5, num_nodes=10, dim=3, limits=[4, 2, 3], picks=[5, 0, 9, 5])
    @settings(max_examples=15, deadline=None)
    def test_lstm_draws_one_permutation_per_union_node_and_reruns_bitwise(self, seed, num_nodes, dim,
                                                                        limits, picks):
        g, feats, hits = random_world(seed, num_nodes, dim)
        stack = make_stack(["lstm"] * len(limits), limits, dim, seed)
        roots = train_roots(g, hits, limits, picks)
        params = stack.parameters()
        weights = ad.constant(make_rng("union-train-weights", seed).normal(size=(len(roots), dim)))

        def run():
            for t in params.values():
                t.zero_grad()
            perm_rng = CountingRng(seed)
            out = fresh_forward(stack, g, feats, hits, roots, mode="train", seed=seed, rng=perm_rng)
            ad.backward(ad.sum(ad.multiply(out, weights)))
            grads = {name: None if t.grad is None else t.grad.tobytes() for name, t in params.items()}
            return out.data.tobytes(), grads, perm_rng.draws

        first = run()
        assert run() == first
        assert first[2] == union_dag_size(stack, hits, roots)


def plan_arrays(obj):
    """Every ndarray a ForwardPlan holds, through its dataclasses, tuples and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from plan_arrays(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from plan_arrays(item)


class TestPlanReuse:
    """`GnnClassEncoder.encode` plans a root sequence once per binding and runs that plan again."""

    @pytest.mark.parametrize("kind", KINDS)
    @given(others=st.lists(st.sampled_from(KINDS), min_size=2, max_size=2),
           mode=st.sampled_from(["eval", "train"]), single=st.booleans(), calls=st.integers(2, 3),
           tied=st.booleans(), **TRAIN_WORLDS)
    @example(others=["lstm", "rgcn"], mode="train", single=False, calls=3, tied=False, seed=4, num_nodes=10,
             dim=2, limits=[2, 0, 1], picks=[1, 2, 3, 1])
    @example(others=["rgcn", "gcn"], mode="train", single=False, calls=3, tied=True, seed=5, num_nodes=8,
             dim=2, limits=[3, 3, 2], picks=[0, 3, 5])
    @example(others=["transformer", "gat"], mode="eval", single=True, calls=2, tied=True, seed=6,
             num_nodes=9, dim=1, limits=[4, 3], picks=[2])
    @settings(max_examples=10, deadline=None)
    def test_kept_plans_match_fresh_reference_bitwise(self, kind, others, mode, single, calls, tied, seed,
                                                     num_nodes, dim, limits, picks):
        # the reference sorts each order-free group inside its call, at
        # every level and on every run; a kept plan and a fresh forward
        # must order members as it does, on rows that tie too
        g, feats, hits = (tied_world if tied else random_world)(seed, num_nodes, dim)
        stack = make_stack([kind] + others[:len(limits) - 1], limits, dim, seed)
        roots = g.nodes[picks[0] % len(g.nodes)] if single else train_roots(g, hits, limits, picks)
        enc = GnnClassEncoder(stack, g, feats, hits, seed=seed)
        params = stack.parameters()
        shape = (dim,) if single else (len(roots), dim)
        weights = ad.constant(make_rng("plan-weights", seed).normal(size=shape))

        def run(forward, perm_rng):
            for t in params.values():
                t.zero_grad()
            out = forward(roots, mode=mode, rng=perm_rng)
            ad.backward(ad.sum(ad.multiply(out, weights)))
            grads = {name: None if t.grad is None else t.grad.tobytes() for name, t in params.items()}
            # train-mode permutations came off the stream in the same order
            return out.data.shape, out.data.tobytes(), grads, perm_rng.bit_generator.state

        def fresh(roots, mode, rng):
            return fresh_forward(stack, g, feats, hits, roots, mode=mode, seed=seed, rng=rng)

        def reference(roots, mode, rng):
            return reference_union_forward(stack, g, feats, hits, roots, mode=mode, seed=seed, rng=rng)

        streams = {f: make_rng("plan-perm", seed) for f in (reference, enc.encode, fresh)}
        for _ in range(calls):
            want = run(reference, streams[reference])
            assert run(enc.encode, streams[enc.encode]) == want
            assert run(fresh, streams[fresh]) == want
            # an in-place step, as Adam takes, changes the order above level 1
            for t in params.values():
                if t.grad is not None:
                    t.data -= 0.5 * t.grad

    def test_second_encode_reads_no_feature_and_no_hit_table(self, monkeypatch):
        g, feats, source = random_world(17, 9, 3)
        hit_calls, reads, plans = Counter(), Counter(), []

        def hits(v):
            hit_calls[v] += 1
            return source(v)

        class CountingFeatures:
            dimension = 3

            def __getitem__(self, v):
                reads[v] += 1
                return feats[v]

        def counting_plan(*args):
            plans.append(agg.plan_forward(*args))
            return plans[-1]

        monkeypatch.setattr(zeroshot, "plan_forward", counting_plan)
        stack = make_stack(["lstm", "rgcn"], [3, 2], 3, seed=18)
        enc = GnnClassEncoder(stack, g, CountingFeatures(), hits, seed=4)
        roots = ["n0", "n5", "n0"]
        with ad.no_grad():
            first = enc.encode(roots).data.tobytes()
            first_hits, first_reads = Counter(hit_calls), Counter(reads)
            hit_calls.clear()
            reads.clear()
            assert enc.encode(roots).data.tobytes() == first
        assert len(plans) == 1
        # planning read each leaf's features once; the kept plan reads none, and no hit table
        assert set(first_reads.values()) == {1} and set(first_reads) == set(plans[0].leaves)
        assert not hit_calls and not reads

        def planned_afresh(encode, roots):
            hit_calls.clear()
            with ad.no_grad():
                got = encode(roots).data.tobytes()
                planned = len(plans)
                want = fresh_forward(stack, g, feats, source, roots, seed=4).data.tobytes()
            # the reference's own plan is not one the binding under test made
            del plans[planned:]
            assert got == want
            return Counter(hit_calls)

        # a new binding plans again, reading each hit table once
        assert planned_afresh(enc.rebind(g, CountingFeatures(), hits).encode, roots) == first_hits
        assert len(plans) == 2
        # other roots, and the same roots under other hop limits, get plans of their own
        assert planned_afresh(enc.encode, ["n0", "n5"])
        stack.hop_limits[0] = 1
        assert planned_afresh(enc.encode, roots)
        assert len(plans) == 4
        assert planned_afresh(enc.encode, roots) == Counter()
        assert len(plans) == 4

    def test_checks_run_on_a_binding_that_holds_a_plan(self):
        g, feats, hits = random_world(19, 6, 2)
        enc = GnnClassEncoder(make_stack(["lstm"], [2], 2, seed=20), g, feats, hits)
        with ad.no_grad():
            enc.encode(["n0", "n1"])
            enc.encode(["n0", "n1"], mode="train", rng=rng(1))
        with pytest.raises(UnknownNodeError, match="nowhere"):
            enc.encode(["n0", "nowhere"])
        with pytest.raises(ContractError, match="mode must be"):
            enc.encode(["n0", "n1"], mode="test")
        with pytest.raises(ContractError, match="needs an rng"):
            enc.encode(["n0", "n1"], mode="train")
        with pytest.raises(ContractError, match="no nodes"):
            enc.encode([])

    def test_encode_is_the_package_s_one_way_into_a_forward(self):
        # tests may plan or run a forward directly, to inspect it; in the
        # package only `encode` names either part
        users = set()
        for path in sorted(Path(agg.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if (getattr(node, "id", None) or getattr(node, "attr", None)) not in ("plan_forward", "run_forward"):
                    continue
                scope, up = [], node
                while up in parents:
                    up = parents[up]
                    if isinstance(up, (ast.FunctionDef, ast.ClassDef)):
                        scope.insert(0, up.name)
                users.add(f"{path.name}:{'.'.join(scope)}")
        assert users == {"zeroshot.py:GnnClassEncoder.encode"}

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_plan_holds_integer_arrays_only(self, kind):
        g, feats, hits = random_world(23, 10, 3)
        stack = make_stack([kind, kind], [3, 2], 3, seed=24)
        plan = agg.plan_forward(stack, g, feats, hits, list(g.nodes), seed=5)
        # but for the leaf matrix: the leaves' feature rows, read-only
        leaf_matrix = plan.leaf_matrix
        assert not leaf_matrix.flags.writeable
        assert leaf_matrix.tobytes() == np.array([feats[v] for v in plan.leaves]).tobytes()
        arrays = [a for a in plan_arrays(plan) if a is not leaf_matrix]
        # the leaf index, and per slice its rows and positions at least
        assert len(arrays) >= 1 + 2 * 2
        assert all(a.dtype.kind == "i" for a in arrays), [a.dtype for a in arrays]
        assert not any(isinstance(v, float) for v in plan.leaves)


# signed zeros, NaNs with two payloads and a few repeated values, so rows
# tie in value but not in bytes, or in both
NAN_PAYLOADS = [float(np.frombuffer(np.uint64(bits).tobytes())[0])
                for bits in (0x7FF8000000000000, 0xFFF8000000000001)]
ROW_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, *NAN_PAYLOADS]), st.floats(-4, 4, width=64))
# past GROUP_ROWS, and member counts from 1 (no neighbor) to 24, past the
# 16 items below which numpy sorts by insertion, which is stable anyway
CANONICAL_GROUPS = dict(data=st.data(), num_rows=st.integers(1, 6), dim=st.integers(1, 3),
                        batch=st.integers(1, 70), size=st.integers(1, 24))


def draw_level(data, num_rows, dim):
    """A (num_rows, dim) level below, now and then a column slice of a
    wider array, which is not contiguous."""
    wide = data.draw(hnp.arrays(np.float64, (num_rows, 2 * dim), elements=ROW_VALUES))
    return wide[:, ::2] if data.draw(st.booleans()) else np.ascontiguousarray(wide[:, :dim])


class TestCanonicalOrder:
    @given(**CANONICAL_GROUPS)
    @settings(max_examples=100, deadline=None)
    def test_canonical_rows_sorts_by_row_bytes(self, data, num_rows, dim, batch, size):
        values = draw_level(data, num_rows, dim)
        rows = data.draw(hnp.arrays(np.intp, (batch, size), elements=st.integers(0, num_rows - 1)))
        got, args = agg.canonical_rows(values, rows)
        assert got.dtype.kind == "i" and got.shape == rows.shape and args is None
        assert got.tolist() == reference_canonical_rows(values, rows)[0]

    @given(**CANONICAL_GROUPS)
    @settings(max_examples=100, deadline=None)
    def test_rgcn_order_and_masks_match_byte_sort(self, data, num_rows, dim, batch, size):
        # equal rows that carry different relations keep their given order
        layer = agg.RelationalMeanLayer(dim, 2, relations=RELATIONS, rng=rng(56))
        values = draw_level(data, num_rows, dim)
        rows = data.draw(hnp.arrays(np.intp, (batch, size), elements=st.integers(0, num_rows - 1)))
        subsets = [("r0",), ("r1",), ("r0", "r1"), ("r1", "r0")]
        picks = data.draw(hnp.arrays(np.intp, (batch, size - 1), elements=st.integers(0, len(subsets) - 1)))
        node_args = [[subsets[i] for i in row] for row in picks.tolist()]
        ordered, relations = agg.canonical_rows(values, rows, node_args)
        want_rows, want_relations = reference_canonical_rows(values, rows, node_args)
        assert ordered.tolist() == want_rows
        assert [list(r) for r in relations] == want_relations
        masks = layer._relation_masks(ordered, relations)
        want_masks = np.zeros_like(masks)
        for b, node_relations in enumerate(want_relations):
            for k, rels in enumerate(node_relations):
                for rel in rels:
                    want_masks[RELATIONS.index(rel), b, k] = 1.0
        assert masks.shape == (len(RELATIONS), batch, size - 1, 1)
        assert masks.tobytes() == want_masks.tobytes()

    @pytest.mark.parametrize("size", [1, 2])
    def test_one_neighbor_or_none_is_already_canonical(self, size):
        values = np.array([[2.0], [-0.0], [0.0]])
        rows = np.array([[0, 2, 1][:size], [1, 0, 2][:size]], dtype=np.intp)
        node_args = [[("r0",)][:size - 1]] * 2
        got, args = agg.canonical_rows(values, rows, node_args)
        assert got is rows and args is node_args
        assert got.tolist() == reference_canonical_rows(values, rows)[0]


class TestMemberOrder:
    """Member order is decided outside the layers; `TestPlanReuse` checks
    it against the reference's sort inside each call, on `tied_world`s too."""

    def test_tied_worlds_tie_rows_and_repeat_relations(self):
        g, feats, _ = tied_world(5, 8, 2)
        assert any(len(g.relations_between(v, u)) > 1 for v in g.nodes for u in g.neighbors(v))
        rows = [feats[v].tobytes() for v in g.nodes]
        assert len(set(rows)) < len(rows)

    def test_no_forward_group_orders_its_members(self):
        # member order is decided by canonical_rows, called from the plan,
        # the run and the per-node forward, never from inside a layer's call
        tree = ast.parse(inspect.getsource(agg))
        checked = []
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
            todo, seen = ["forward_group"] if "forward_group" in methods else [], set()
            while todo:
                name = todo.pop()
                if name in seen:
                    continue
                seen.add(name)
                for node in ast.walk(methods[name]):
                    ordering = isinstance(node, ast.Name) and node.id in ("canonical_rows", "_member_order")
                    assert not ordering, (cls.name, name)
                    # the layer's own methods that the call reaches
                    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                            and node.value.id == "self" and node.attr in methods):
                        todo.append(node.attr)
            if seen:
                checked.append(cls.name)
        assert len(checked) == len(agg.LAYER_KINDS), checked


class TestMakeLayer:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            agg.make_layer("nope", 2, 2, rng=rng())

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            agg.MeanPoolLayer(2, 2, activation="swish", rng=rng())
