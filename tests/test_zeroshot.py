from __future__ import annotations

import numpy as np
import pytest

from kgzsl import autodiff as ad
from kgzsl import zeroshot as zs
from kgzsl.aggregators import GnnStack, MeanPoolLayer
from kgzsl.encoders import VectorEncoder
from kgzsl.errors import ConfigError, ContractError, DataError, DivergenceError
from kgzsl.kg import FeatureTable, Graph
from kgzsl.sampler import HitSource, WalkConfig


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestBilinearHead:
    def test_score_matches_matrix_form(self):
        head = zs.BilinearHead(3, 4, rank=2, rng=rng(1))
        r = rng(2)
        theta, phi = r.normal(size=3), r.normal(size=4)
        s = head.score(ad.constant(theta), ad.constant(phi))
        np.testing.assert_allclose(s.data, theta @ head.b.data @ head.a.data @ phi, rtol=1e-12)

    def test_scores_vectorized_equals_loop(self):
        head = zs.BilinearHead(3, 4, rank=2, rng=rng(3))
        r = rng(4)
        theta = ad.constant(r.normal(size=3))
        phis = [ad.constant(r.normal(size=4)) for _ in range(5)]
        batched = head.scores(theta, phis).data
        single = [head.score(theta, p).data for p in phis]
        np.testing.assert_allclose(batched, single, rtol=1e-12)

    def test_rank_bound_by_construction(self):
        # independent oracle: count nonzero singular values of B A
        head = zs.BilinearHead(6, 5, rank=2, rng=rng(5))
        sv = np.linalg.svd(head.score_matrix(), compute_uv=False)
        assert (sv > 1e-12).sum() <= 2

    def test_rank_validation(self):
        with pytest.raises(ConfigError):
            zs.BilinearHead(3, 4, rank=0)
        with pytest.raises(ConfigError):
            zs.BilinearHead(3, 4, rank=4)

    def test_rectangular_sides(self):
        head = zs.BilinearHead(7, 3, rank=3, rng=rng(6))
        s = head.scores(ad.constant(rng(7).normal(size=7)),
                        [ad.constant(rng(8).normal(size=3))])
        assert s.data.shape == (1,)


class TestClassSet:
    def test_disjointness_enforced(self):
        with pytest.raises(ContractError):
            zs.ClassSet(seen=("a", "b"), unseen=("b",))
        with pytest.raises(ContractError):
            zs.ClassSet(seen=("a",), unseen=("b",), dev=("a",))

    def test_requires_seen(self):
        with pytest.raises(ContractError):
            zs.ClassSet(seen=(), unseen=("a",))


def toy_world(num_classes=2, dim=3, seed=0):
    """Tiny solvable setup: one attribute node per class, basis features."""
    edges = [("has", f"class_{i}", f"attr_{i}") for i in range(num_classes)]
    g = Graph(edges)
    feats = {}
    for i in range(num_classes):
        e = np.zeros(dim)
        e[i % dim] = 1.0
        feats[f"attr_{i}"] = e
        feats[f"class_{i}"] = np.zeros(dim)
    features = FeatureTable(dim, feats)
    hits = HitSource(g, WalkConfig(seed=seed))
    layer = MeanPoolLayer(dim, dim, activation="identity", rng=rng(seed + 100))
    stack = GnnStack([layer], [5])
    return g, features, hits, stack


def toy_examples(classes, dim, per_class, noise, seed):
    r = rng(seed)
    out = []
    for i, c in enumerate(classes):
        proto = np.zeros(dim)
        proto[i % dim] = 1.0
        for _ in range(per_class):
            out.append((proto + noise * r.normal(size=dim), c))
    return out


class TestGnnClassEncoder:
    def test_feature_dim_must_match(self):
        g, features, hits, stack = toy_world()
        bad = FeatureTable(5, {v: np.zeros(5) for v in g.nodes})
        with pytest.raises(ConfigError):
            zs.GnnClassEncoder(stack, g, bad, hits)

    def test_rebind_shares_stack(self):
        g, features, hits, stack = toy_world()
        enc = zs.GnnClassEncoder(stack, g, features, hits)
        enc2 = enc.rebind(g, features, hits)
        assert enc2.stack is enc.stack

    def test_encode_shape(self):
        g, features, hits, stack = toy_world()
        enc = zs.GnnClassEncoder(stack, g, features, hits)
        assert enc.encode("class_0").data.shape == (3,)


def build_training(seed=0, dev=False):
    num = 4 if dev else 2
    g, features, hits, stack = toy_world(num_classes=num, dim=3, seed=seed)
    class_encoder = zs.GnnClassEncoder(stack, g, features, hits, seed=seed)
    encoder = VectorEncoder(3)
    head = zs.BilinearHead(3, 3, rank=2, rng=rng(seed + 200))
    seen = ("class_0", "class_1")
    dev_classes = ("class_2", "class_3") if dev else ()
    classes = zs.ClassSet(seen=seen, unseen=(), dev=dev_classes)
    train = toy_examples(seen, 3, per_class=6, noise=0.05, seed=seed + 300)
    dev_ex = toy_examples(dev_classes, 3, per_class=3, noise=0.05, seed=seed + 400) if dev else []
    # dev prototypes live at dims 2 and 0 (i % dim wraps), matching toy_world
    return encoder, class_encoder, head, classes, train, dev_ex


class TestTrainBilinear:
    def test_learns_separable_toy(self):
        encoder, class_encoder, head, classes, train, _ = build_training()
        result = zs.train_bilinear(
            train, [], encoder, class_encoder, head, classes,
            epochs=40, seed=0, batch_size=4, lr=0.05,
        )
        assert result.best_epoch >= 0
        reps = zs.class_representations(class_encoder, classes.seen)
        correct = 0
        for x, label in train:
            ranked = zs.predict(encoder.encode(x), head, reps)
            correct += ranked[0] == label
        assert correct / len(train) >= 0.9

    def test_bitwise_reproducible(self):
        def run():
            encoder, class_encoder, head, classes, train, _ = build_training(seed=5)
            return zs.train_bilinear(
                train, [], encoder, class_encoder, head, classes,
                epochs=3, seed=9, batch_size=4, lr=0.01,
            )

        r1, r2 = run(), run()
        assert r1.log == r2.log
        assert r1.best_epoch == r2.best_epoch
        assert set(r1.best_params) == set(r2.best_params)
        for k in r1.best_params:
            assert r1.best_params[k].tobytes() == r2.best_params[k].tobytes()

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        encoder, class_encoder, head, classes, train, _ = build_training()
        with pytest.raises(ConfigError, match="epochs"):
            zs.train_bilinear(train, [], encoder, class_encoder, head, classes, epochs=epochs)

    def test_dev_selection_is_argmin(self):
        encoder, class_encoder, head, classes, train, dev_ex = build_training(seed=2, dev=True)
        result = zs.train_bilinear(
            train, dev_ex, encoder, class_encoder, head, classes,
            epochs=5, seed=1, batch_size=4, lr=0.02,
        )
        dev_losses = [entry["dev_loss"] for entry in result.log]
        assert all(d is not None for d in dev_losses)
        assert result.best_epoch == int(np.argmin(dev_losses))

    def test_train_label_outside_seen_rejected(self):
        encoder, class_encoder, head, classes, train, _ = build_training()
        bad = train + [(np.zeros(3), "class_77")]
        with pytest.raises(DataError) as err:
            zs.train_bilinear(bad, [], encoder, class_encoder, head, classes, epochs=1)
        assert "class_77" in str(err.value)

    def test_dev_label_outside_dev_rejected(self):
        encoder, class_encoder, head, classes, train, dev_ex = build_training(dev=True)
        bad_dev = dev_ex + [(np.zeros(3), "class_0")]
        with pytest.raises(DataError):
            zs.train_bilinear(train, bad_dev, encoder, class_encoder, head, classes, epochs=1)

    def test_multilabel_mode_runs_and_learns_sign(self):
        encoder, class_encoder, head, classes, train, _ = build_training()
        multi = [(x, (label,)) for x, label in train]
        result = zs.train_bilinear(
            multi, [], encoder, class_encoder, head, classes,
            loss_mode="multilabel", epochs=40, seed=0, batch_size=4, lr=0.05,
        )
        reps = zs.class_representations(class_encoder, classes.seen)
        hits = 0
        for x, labels in multi:
            pred = zs.predict(encoder.encode(x), head, reps, mode="multilabel")
            hits += pred == set(labels)
        assert hits / len(multi) >= 0.8

    def test_non_finite_dev_loss_raises(self):
        encoder, class_encoder, head, classes, train, dev_ex = build_training(seed=2, dev=True)
        bad_dev = dev_ex + [(np.full(3, np.nan), "class_2")]
        with pytest.raises(DivergenceError) as err:
            zs.train_bilinear(train, bad_dev, encoder, class_encoder, head, classes,
                              epochs=3, seed=1, batch_size=4, lr=0.02)
        assert "dev loss" in str(err.value) and "epoch 0" in str(err.value)

    def test_multilabel_empty_label_set_rejected(self):
        encoder, class_encoder, head, classes, train, _ = build_training()
        multi = [(train[0][0], ())]
        with pytest.raises(DataError):
            zs.train_bilinear(multi, [], encoder, class_encoder, head, classes,
                              loss_mode="multilabel", epochs=1)

    def test_no_examples_rejected(self):
        encoder, class_encoder, head, classes, _, _ = build_training()
        with pytest.raises(DataError):
            zs.train_bilinear([], [], encoder, class_encoder, head, classes)

    def test_loss_decreases_monotonically_on_separable_world(self):
        # recorded-seed fixture: 3 seen classes, near-zero noise
        from kgzsl.aggregators import make_layer
        from kgzsl.seeding import make_rng
        from kgzsl.synth import SynthSpec, generate_synthetic

        seed = 0
        spec = SynthSpec(num_classes=4, num_unseen=1, attribute_pool=6,
                         attrs_per_class=2, feature_dim=8, noise=0.01,
                         examples_per_class=20, seed=seed)
        data = generate_synthetic(spec)
        hits = HitSource(data.train_graph, WalkConfig(steps=20, restarts=10, seed=seed))
        layers = [make_layer("gcn", 8, 8, rng=make_rng("gnn-init", seed, i))
                  for i in range(2)]
        class_encoder = zs.GnnClassEncoder(
            GnnStack(layers, [4, 4]), data.train_graph, data.features, hits, seed=seed)
        head = zs.BilinearHead(8, 8, 4, rng=make_rng("head-init", seed))
        result = zs.train_bilinear(
            data.train_pairs(), data.dev_pairs(), VectorEncoder(8), class_encoder,
            head, data.classes, epochs=3, seed=seed, lr=0.01, batch_size=8,
        )
        losses = [entry["train_loss"] for entry in result.log]
        assert len(losses) == 3
        assert losses[0] > losses[1] > losses[2]


class TestLabelSmoothing:
    index = {"a": 0, "b": 1, "c": 2, "d": 3}

    def test_zero_smoothing_is_plain_cross_entropy(self):
        scores = ad.constant(rng(40).normal(size=4))
        got = zs._example_loss(scores, "c", self.index, "multiclass", 0.0)
        want = ad.cross_entropy(scores, 2)
        assert got.data.tobytes() == want.data.tobytes()

    def test_smoothed_loss_matches_hand_computation(self):
        z = rng(41).normal(size=4) * 3.0
        eps = 0.2
        log_p = z - np.log(np.sum(np.exp(z)))
        want = (1 - eps) * -log_p[1] + eps * np.mean(-log_p)
        got = zs._example_loss(ad.constant(z), "b", self.index, "multiclass", eps)
        np.testing.assert_allclose(got.data, want, rtol=1e-12)

    def test_smoothed_loss_stays_finite_when_a_probability_underflows(self):
        z = np.array([0.0, 2000.0, -2000.0, 5.0])
        eps = 0.1
        got = zs._example_loss(ad.constant(z), "b", self.index, "multiclass", eps)
        # log p = z - logsumexp(z), and logsumexp(z) is 2000 to float precision
        want = eps * np.mean(2000.0 - z)
        np.testing.assert_allclose(got.data, want, rtol=1e-12)

    def test_smoothed_loss_gradient(self):
        scores = ad.Tensor(rng(42).normal(size=4), requires_grad=True, name="s")
        fn = lambda: zs._example_loss(scores, "d", self.index, "multiclass", 0.3)
        report = ad.grad_check(fn, {"s": scores})
        assert report.passed, report.max_rel_err

    @pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5])
    def test_out_of_range_rejected(self, eps):
        encoder, class_encoder, head, classes, train, _ = build_training()
        with pytest.raises(ConfigError):
            zs.train_bilinear(train, [], encoder, class_encoder, head, classes,
                              epochs=1, label_smoothing=eps)

    def test_multilabel_rejected(self):
        encoder, class_encoder, head, classes, train, _ = build_training()
        multi = [(x, (label,)) for x, label in train]
        with pytest.raises(ConfigError):
            zs.train_bilinear(multi, [], encoder, class_encoder, head, classes,
                              loss_mode="multilabel", epochs=1, label_smoothing=0.1)

    def test_smoothed_training_learns_separable_toy(self):
        encoder, class_encoder, head, classes, train, _ = build_training()
        result = zs.train_bilinear(
            train, [], encoder, class_encoder, head, classes,
            epochs=40, seed=0, batch_size=4, lr=0.05, label_smoothing=0.1,
        )
        assert all(np.isfinite(entry["train_loss"]) for entry in result.log)
        reps = zs.class_representations(class_encoder, classes.seen)
        correct = sum(
            zs.predict(encoder.encode(x), head, reps)[0] == label for x, label in train
        )
        assert correct / len(train) >= 0.9


class TestTrainL2:
    def test_single_class_linear_converges(self):
        g, features, hits, stack = toy_world(num_classes=1, dim=3)
        class_encoder = zs.GnnClassEncoder(stack, g, features, hits)
        target = np.array([0.3, -0.7, 1.1])
        classes = zs.ClassSet(seen=("class_0",), unseen=(), targets={"class_0": target})
        result = zs.train_l2(class_encoder, classes, epochs=500, lr=0.05, seed=0)
        phi = class_encoder.encode("class_0").data
        assert np.abs(phi - target).max() <= 1e-3
        assert result.log[-1]["train_loss"] <= 1e-5

    def test_bitwise_reproducible(self):
        def run():
            g, features, hits, stack = toy_world(num_classes=3, dim=3, seed=5)
            class_encoder = zs.GnnClassEncoder(stack, g, features, hits, seed=5)
            r = rng(7)
            classes = zs.ClassSet(
                seen=("class_0", "class_1"), unseen=(), dev=("class_2",),
                targets={f"class_{i}": r.normal(size=3) for i in range(3)},
            )
            return zs.train_l2(class_encoder, classes, epochs=4, seed=9, lr=0.05)

        r1, r2 = run(), run()
        assert r1.log == r2.log
        assert r1.best_epoch == r2.best_epoch
        assert set(r1.best_params) == set(r2.best_params)
        for k in r1.best_params:
            assert r1.best_params[k].tobytes() == r2.best_params[k].tobytes()

    def test_missing_target_rejected(self):
        g, features, hits, stack = toy_world(num_classes=2)
        class_encoder = zs.GnnClassEncoder(stack, g, features, hits)
        classes = zs.ClassSet(seen=("class_0", "class_1"), unseen=(),
                              targets={"class_0": np.zeros(3)})
        with pytest.raises(DataError):
            zs.train_l2(class_encoder, classes, epochs=1)

    def test_target_dim_checked(self):
        g, features, hits, stack = toy_world(num_classes=1)
        class_encoder = zs.GnnClassEncoder(stack, g, features, hits)
        classes = zs.ClassSet(seen=("class_0",), unseen=(), targets={"class_0": np.zeros(5)})
        with pytest.raises(ConfigError):
            zs.train_l2(class_encoder, classes, epochs=1)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        g, features, hits, stack = toy_world(num_classes=1, dim=3)
        class_encoder = zs.GnnClassEncoder(stack, g, features, hits)
        classes = zs.ClassSet(seen=("class_0",), unseen=(), targets={"class_0": np.ones(3)})
        with pytest.raises(ConfigError, match="epochs"):
            zs.train_l2(class_encoder, classes, epochs=epochs)

    def test_diverging_train_loss_raises(self):
        # Adam moves each weight by about lr on its first step, so a huge
        # lr leaves epoch 0 finite and overflows the loss in epoch 1
        g, features, hits, stack = toy_world(num_classes=1, dim=3)
        class_encoder = zs.GnnClassEncoder(stack, g, features, hits)
        classes = zs.ClassSet(seen=("class_0",), unseen=(), targets={"class_0": np.ones(3)})
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore", invalid="ignore"):
            zs.train_l2(class_encoder, classes, epochs=5, lr=1e300)
        assert "train loss" in str(err.value) and "epoch 1" in str(err.value)

    def test_dev_class_drives_selection(self):
        g, features, hits, stack = toy_world(num_classes=2, dim=3)
        class_encoder = zs.GnnClassEncoder(stack, g, features, hits)
        classes = zs.ClassSet(
            seen=("class_0",), unseen=(), dev=("class_1",),
            targets={"class_0": np.array([1.0, 0.0, 0.0]), "class_1": np.array([0.0, 1.0, 0.0])},
        )
        result = zs.train_l2(class_encoder, classes, epochs=30, lr=0.05)
        dev_losses = [e["dev_loss"] for e in result.log]
        assert result.best_epoch == int(np.argmin(dev_losses))


class TestPredict:
    def make_head(self):
        head = zs.BilinearHead(2, 2, rank=2, rng=rng(50))
        head.b.data = np.eye(2)
        head.a.data = np.eye(2)
        return head

    def test_multiclass_ranks_desc_with_id_tiebreak(self):
        head = self.make_head()
        reps = {"b": np.array([1.0, 0.0]), "a": np.array([1.0, 0.0]), "c": np.array([5.0, 0.0])}
        ranked = zs.predict(np.array([1.0, 0.0]), head, reps)
        assert ranked == ["c", "a", "b"]

    def test_multilabel_positive_scores(self):
        head = self.make_head()
        reps = {"pos": np.array([1.0, 0.0]), "neg": np.array([-1.0, 0.0]),
                "zero": np.array([0.0, 1.0])}
        chosen = zs.predict(np.array([1.0, 0.0]), head, reps, mode="multilabel")
        assert chosen == {"pos"}

    def test_l2_mode_dot_product(self):
        reps = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        ranked = zs.predict(np.array([0.2, 0.9]), None, reps, mode="l2")
        assert ranked == ["b", "a"]

    def test_l2_mode_bias_append(self):
        # phi one dim wider: last entry acts as a bias with theta
        # extended by 1
        reps = {"a": np.array([0.0, 0.0, 10.0]), "b": np.array([1.0, 1.0, 0.0])}
        ranked = zs.predict(np.array([1.0, 1.0]), None, reps, mode="l2")
        assert ranked == ["a", "b"]

    def test_l2_dim_mismatch(self):
        reps = {"a": np.array([1.0, 2.0, 3.0, 4.0])}
        with pytest.raises(ContractError):
            zs.predict(np.array([1.0, 1.0]), None, reps, mode="l2")

    def test_empty_candidates(self):
        with pytest.raises(ContractError):
            zs.predict(np.array([1.0]), None, {}, mode="l2")

    def test_unknown_mode(self):
        head = self.make_head()
        with pytest.raises(ConfigError):
            zs.predict(np.array([1.0, 0.0]), head, {"a": np.array([1.0, 0.0])}, mode="wat")

    def test_mixed_widths_raise_contract_error(self):
        head = self.make_head()
        reps = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0, 2.0])}
        for mode in ("multiclass", "multilabel", "l2"):
            with pytest.raises(ContractError):
                zs.predict(np.array([1.0, 0.0]), head, reps, mode=mode)

    def test_head_width_mismatch_raises_contract_error(self):
        head = self.make_head()
        with pytest.raises(ContractError):
            zs.predict(np.array([1.0, 0.0]), head, {"a": np.array([1.0, 0.0, 2.0])})

    @pytest.mark.parametrize("mode", ["multiclass", "multilabel", "l2"])
    def test_scores_and_ranking_equal_per_candidate_reference_bitwise(self, mode):
        r = rng(51)
        head = zs.BilinearHead(6, 5, rank=3, rng=rng(52))
        theta = r.normal(size=6)
        width = 7 if mode == "l2" else 5
        reps = {f"c{i:03d}": r.normal(size=width) for i in range(40)}
        reps["c999"] = reps["c007"].copy()  # a tie, broken by id
        vec = np.concatenate([theta, [1.0]]) if mode == "l2" else theta @ head.score_matrix()
        want = {c: vec @ phi for c, phi in reps.items()}

        ids, scores = zs.candidate_scores(theta, head, reps, mode)
        assert ids == sorted(reps)
        assert scores.tobytes() == np.array([want[c] for c in ids]).tobytes()
        got = zs.predict(theta, head, reps, mode)
        if mode == "multilabel":
            assert got == {c for c, s in want.items() if s > 0.0}
        else:
            assert got == sorted(want, key=lambda c: (-want[c], c))


class TestClassReps:
    def encoded(self):
        g, features, hits, stack = toy_world(num_classes=4, dim=3)
        enc = zs.GnnClassEncoder(stack, g, features, hits)
        ids = ["class_2", "class_0", "class_3", "class_1"]
        return enc, ids, zs.class_representations(enc, ids)

    def test_rows_are_read_only(self):
        _, _, reps = self.encoded()
        with pytest.raises(ValueError):
            reps["class_1"][0] = 1.0
        with pytest.raises(ValueError):
            reps.matrix[0, 0] = 1.0

    def test_mapping_behaves_like_a_dict(self):
        _, ids, reps = self.encoded()
        assert list(reps) == sorted(ids)
        assert list(reps.ids) == sorted(ids)
        assert len(reps) == 4
        assert "class_3" in reps and "class_9" not in reps
        with pytest.raises(KeyError):
            reps["class_9"]
        assert dict(reps).keys() == set(ids)

    def test_rows_equal_single_encodes_bitwise(self):
        enc, ids, reps = self.encoded()
        assert reps.matrix.shape == (4, 3)
        for c in ids:
            assert reps[c].tobytes() == enc.encode(c, mode="eval").data.tobytes()

    def test_empty_and_non_vector_rows_rejected(self):
        with pytest.raises(ContractError):
            zs.ClassReps({})
        with pytest.raises(ContractError):
            zs.ClassReps({"a": np.ones((2, 2))})
        with pytest.raises(ContractError):
            zs.ClassReps({"a": np.ones(2), "b": np.ones(3)})

    @pytest.mark.parametrize("mode", ["multiclass", "multilabel", "l2"])
    def test_every_mapping_form_scores_the_same_bits(self, mode):
        _, _, reps = self.encoded()
        head = zs.BilinearHead(3, 3, rank=2, rng=rng(53))
        forms = [
            reps,
            dict(reps),
            {c: np.array(phi) for c, phi in reps.items()},
            {c: ad.Tensor(phi) for c, phi in reps.items()},
        ]
        for theta in rng(54).normal(size=(5, 3)):
            want_ids, want = zs.candidate_scores(theta, head, reps, mode)
            ranked = zs.predict(theta, head, reps, mode)
            for form in forms[1:]:
                ids, scores = zs.candidate_scores(theta, head, form, mode)
                assert ids == want_ids
                assert scores.tobytes() == want.tobytes()
                assert zs.predict(theta, head, form, mode) == ranked
