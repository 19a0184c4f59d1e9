from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgzsl import aggregators as agg
from kgzsl import autodiff as ad
from kgzsl.errors import ConfigError, ContractError, UnknownNodeError, UnknownRelationError
from kgzsl.kg import FeatureTable, Graph
from kgzsl.sampler import HitSource, HitTable, WalkConfig
from kgzsl.seeding import make_rng

from .helpers import per_node_forward


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
        out = agg.gnn_forward(stack, g, feats, hits, "c")
        direct = layer.forward(
            ad.constant(feats["c"]), [ad.constant(feats[u]) for u in g.neighbors("c")]
        )
        assert out_bytes(out) == out_bytes(direct)

    def test_truncation_respects_hit_ranking(self):
        from kgzsl.sampler import top_n

        g, feats, hits = two_hop_fixture()
        layer = agg.MeanPoolLayer(3, 2, rng=rng(41))
        stack = agg.GnnStack([layer], [2])
        out = agg.gnn_forward(stack, g, feats, hits, "c")
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
        a = agg.gnn_forward(stack, g, feats, hits, "c", mode="eval", seed=9)
        b = agg.gnn_forward(stack, g, feats, hits, "c", mode="eval", seed=9)
        assert out_bytes(a) == out_bytes(b)

    def test_train_mode_resamples_sequence_order(self):
        g, feats, hits = two_hop_fixture()
        stack = agg.GnnStack([agg.SequencePoolLayer(3, 2, rng=rng(44))], [3])
        from kgzsl.seeding import make_rng

        shared = make_rng("test-train", 0)
        outs = {
            out_bytes(agg.gnn_forward(stack, g, feats, hits, "c", mode="train", rng=shared))
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

        base = agg.gnn_forward(stack, g, feats, hits, "c", seed=1)
        bumped = {
            v: (np.asarray(feats[v]) + (5.0 if v in outside else 0.0)) for v in g.nodes
        }
        feats2 = FeatureTable(3, bumped)
        after = agg.gnn_forward(stack, g, feats2, hits, "c", seed=1)
        assert out_bytes(base) == out_bytes(after)

    def test_perturbing_inside_neighborhood_changes_output(self):
        from kgzsl.sampler import top_n

        g, feats, hits = two_hop_fixture()
        stack = agg.GnnStack(
            [agg.MeanPoolLayer(3, 3, rng=rng(45)), agg.TransformerPoolLayer(3, 2, rng=rng(46))],
            [2, 2],
        )
        inside = top_n(hits("c"), 2)[0]
        base = agg.gnn_forward(stack, g, feats, hits, "c", seed=1)
        bumped = {v: (np.asarray(feats[v]) + (5.0 if v == inside else 0.0)) for v in g.nodes}
        after = agg.gnn_forward(stack, g, FeatureTable(3, bumped), hits, "c", seed=1)
        assert out_bytes(base) != out_bytes(after)

    def test_cycle_back_to_center_is_consistent(self):
        g, feats, hits = two_hop_fixture(extra_edges=[("r", "n1", "c")])
        stack = agg.GnnStack(
            [agg.MeanPoolLayer(3, 3, rng=rng(47)), agg.MeanPoolLayer(3, 2, rng=rng(48))],
            [3, 3],
        )
        out = agg.gnn_forward(stack, g, feats, hits, "c")
        assert out.data.shape == (2,)

    def test_unknown_node(self):
        g, feats, hits = two_hop_fixture()
        stack = agg.GnnStack([agg.MeanPoolLayer(3, 2, rng=rng(49))], [2])
        with pytest.raises(UnknownNodeError):
            agg.gnn_forward(stack, g, feats, hits, "nope")

    def test_rgcn_sees_relation_tags(self):
        edges = [("likes", "c", "a"), ("hates", "c", "b")]
        g = Graph(edges)
        r = rng(50)
        feats = FeatureTable(2, {v: r.normal(size=2) for v in g.nodes})
        hits = HitSource(g, WalkConfig(seed=3))
        layer = agg.RelationalMeanLayer(2, 2, relations=["likes", "hates"], num_bases=2, rng=rng(51))
        stack = agg.GnnStack([layer], [5])
        out = agg.gnn_forward(stack, g, feats, hits, "c")
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
    @settings(max_examples=15, deadline=None)
    def test_matches_per_node_reference_bitwise(self, kind, seed, num_nodes, dim, limits, others, mode):
        g, feats, hits = random_world(seed, num_nodes, dim)
        stack = make_stack([kind] + others[:len(limits) - 1], limits, dim, seed)
        batched_rng, reference_rng = make_rng("perm", seed), make_rng("perm", seed)
        for v in g.nodes:
            got = agg.gnn_forward(stack, g, feats, hits, v, mode=mode, seed=seed, rng=batched_rng)
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
            outs = [agg.gnn_forward(stack, g, feats, hits, v, seed=1) for v in ("n0", "n3")]
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

        batched, reference = grads(agg.gnn_forward), grads(per_node_forward)
        for name, want in reference.items():
            err = np.linalg.norm(batched[name] - want) / max(np.linalg.norm(want), 1e-300)
            assert err <= 1e-12, (name, err)

    @pytest.mark.parametrize("kind", ["gcn", "gat", "rgcn", "transformer"])
    def test_tape_scales_with_depth_not_neighborhood_size(self, kind):
        # in a complete graph on n + 1 nodes every node has n neighbors,
        # so with hop limits n every node of the DAG has n + 1 members
        def tape_nodes(n):
            nodes = [f"v{i}" for i in range(n + 1)]
            g = Graph([("r0", a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]])
            feats = FeatureTable(4, {v: rng(n).normal(size=4) for v in g.nodes})
            stack = make_stack([kind, kind], [n, n], 4, seed=0, activation="relu")
            out = agg.gnn_forward(stack, g, feats, HitSource(g, WalkConfig(seed=0)), "v0", mode="train")
            return len(ad.Tape.from_output(out))

        assert tape_nodes(2) == tape_nodes(8)


class TestMakeLayer:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            agg.make_layer("nope", 2, 2)

    def test_unknown_activation(self):
        with pytest.raises(ConfigError):
            agg.MeanPoolLayer(2, 2, activation="swish")
