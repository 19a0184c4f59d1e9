from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kgzsl import autodiff as ad
from kgzsl import zeroshot as zs
from kgzsl.aggregators import LAYER_KINDS, GnnStack, MeanPoolLayer, make_layer
from kgzsl.encoders import MentionEncoder, SentenceEncoder, VectorEncoder
from kgzsl.errors import ConfigError, ContractError, DataError, DivergenceError
from kgzsl.kg import FeatureTable, Graph
from kgzsl.sampler import HitSource, WalkConfig

from .helpers import candidates, ranking_reference, reference_scores


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
            zs.BilinearHead(3, 4, rank=0, rng=rng(0))
        with pytest.raises(ConfigError):
            zs.BilinearHead(3, 4, rank=4, rng=rng(0))

    def test_rectangular_sides(self):
        head = zs.BilinearHead(7, 3, rank=3, rng=rng(6))
        s = head.scores(ad.constant(rng(7).normal(size=7)),
                        [ad.constant(rng(8).normal(size=3))])
        assert s.data.shape == (1,)


class TestKeptScoreMatrix:
    """`score_matrix` keeps B A per parameter state; every way a parameter
    changes must reach `predict` and `candidate_scores` bitwise."""

    def check(self, head, seed=0):
        r = rng(seed)
        theta = r.normal(size=head.theta_dim)
        reps = candidates({f"c{i:02d}": r.normal(size=head.phi_dim) for i in range(12)})
        for mode in ("multiclass", "multilabel"):
            want = reference_scores(theta, head, reps, mode)
            ids, scores = zs.candidate_scores(theta, head, reps, mode)
            assert scores.tobytes() == np.array([want[c] for c in ids]).tobytes(), mode
            got = zs.predict(theta, head, reps, mode)
            if mode == "multilabel":
                assert got == {c for c, s in want.items() if s > 0.0}
            else:
                assert got == ranking_reference(theta, head, reps, mode)[:1]
        assert head.score_matrix().tobytes() == (head.b.data @ head.a.data).tobytes()

    def test_formed_once_per_parameter_state(self):
        head = zs.BilinearHead(5, 4, rank=2, rng=rng(60))
        first = head.score_matrix()
        assert head.score_matrix() is first
        head.a.data[0, 0] += 1.0
        assert head.score_matrix() is not first

    def test_read_only(self):
        head = zs.BilinearHead(5, 4, rank=2, rng=rng(61))
        matrix = head.score_matrix()
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
        self.check(head)

    def test_adam_step(self):
        head = zs.BilinearHead(6, 5, rank=3, rng=rng(62))
        self.check(head)
        before = head.b.data.tobytes(), head.a.data.tobytes()
        r = rng(63)
        for p in head.parameters().values():
            p.grad = r.normal(size=p.data.shape)
        ad.Adam(head.parameters(), lr=0.01).step()
        assert (head.b.data.tobytes(), head.a.data.tobytes()) != before
        self.check(head)

    def test_data_assignment(self):
        # as `_fit` restores its best epoch: new arrays, other values, then equal bytes
        head = zs.BilinearHead(6, 5, rank=3, rng=rng(64))
        other = zs.BilinearHead(6, 5, rank=3, rng=rng(65))
        self.check(head)
        head.b.data = other.b.data.copy()
        self.check(head)
        head.a.data = other.a.data.copy()
        self.check(head)
        head.b.data = head.b.data.copy()
        self.check(head)

    def test_load_into(self, tmp_path):
        head = zs.BilinearHead(6, 5, rank=3, rng=rng(66))
        other = zs.BilinearHead(6, 5, rank=3, rng=rng(67))
        self.check(head)
        ad.save_checkpoint(other.parameters(), tmp_path / "ckpt.json")
        ad.load_into(head.parameters(), tmp_path / "ckpt.json")
        assert head.b.data.tobytes() == other.b.data.tobytes()
        self.check(head)

    def test_in_place_write_to_one_entry(self):
        head = zs.BilinearHead(6, 5, rank=3, rng=rng(68))
        self.check(head)
        head.b.data[2, 1] = 3.5
        self.check(head)
        head.a.data[0, 4] *= -1.0
        self.check(head)

    def test_signed_zero_flip(self):
        # equal values, other bytes: the key sees the flip, so B A is formed again
        head = zs.BilinearHead(4, 3, rank=2, rng=rng(69))
        head.b.data[1] = 0.0
        head.a.data[:, 2] = -0.0
        self.check(head)
        for zero in (-0.0, 0.0):
            kept = head.score_matrix()
            head.b.data[1, 0] = zero
            head.a.data[0, 2] = -zero
            assert head.score_matrix() is not kept
            self.check(head)

    def test_same_bytes_other_shapes(self):
        # views of one layout: equal bytes and strides, only the shapes differ
        head = zs.BilinearHead(3, 3, rank=2, rng=rng(70))
        values = rng(71).normal(size=6)
        wide_b, wide_a = np.zeros((3, 4)), np.zeros((3, 4))
        head.b.data, head.a.data = wide_b[:, :2], wide_a[:2, :3]
        head.b.data[...] = values.reshape(3, 2)
        head.a.data[...] = values[::-1].reshape(2, 3)
        self.check(head)
        wide_b, wide_a = np.zeros((2, 4)), np.zeros((3, 4))
        head.b.data, head.a.data = wide_b[:, :3], wide_a[:, :2]
        head.b.data[...] = values.reshape(2, 3)
        head.a.data[...] = values[::-1].reshape(3, 2)
        head.theta_dim, head.rank, head.phi_dim = 2, 3, 2
        self.check(head)

    def test_other_layout_same_values(self):
        # numpy's matmul picks its kernel by layout, so a Fortran-ordered
        # copy of B is a new parameter state (with OpenBLAS, this head's
        # two layouts round differently)
        head = zs.BilinearHead(24, 20, rank=18, rng=rng(72))
        self.check(head)
        head.b.data = np.asfortranarray(head.b.data)
        self.check(head)

    def test_only_score_matrix_forms_b_a(self):
        # a function that reads some head's b.data and a.data and multiplies
        # matrices forms B A; only score_matrix may, so nothing forms it per example
        def reads(node, name):
            return (isinstance(node, ast.Attribute) and node.attr == "data"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == name)

        def multiplies(node):
            return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Call) and getattr(node.func, "attr", None)
                    in {"matmul", "dot", "einsum", "vecdot", "multi_dot", "tensordot", "inner"})

        def functions(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    yield from functions(child, f"{prefix}{child.name}.")
                    if isinstance(child, ast.FunctionDef):
                        yield f"{prefix}{child.name}", child

        forming = set()
        for path in sorted(Path(zs.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for name, fn in functions(tree, f"{path.stem}."):
                body = list(ast.walk(fn))
                if (any(reads(n, "b") for n in body) and any(reads(n, "a") for n in body)
                        and any(multiplies(n) for n in body)):
                    forming.add(name)
        assert forming == {"zeroshot.BilinearHead.score_matrix"}


class TestClassSet:
    def test_disjointness_enforced(self):
        with pytest.raises(ContractError):
            zs.ClassSet(seen=("a", "b"), unseen=("b",))
        with pytest.raises(ContractError):
            zs.ClassSet(seen=("a",), unseen=("b",), dev=("a",))

    def test_requires_seen(self):
        with pytest.raises(ContractError):
            zs.ClassSet(seen=(), unseen=("a",))

    @pytest.mark.parametrize("split", ["seen", "unseen", "dev"])
    def test_class_listed_twice_rejected(self, split):
        # a repeated seen class would take two score columns and two losses
        splits = {"seen": ("a", "c"), "unseen": ("b",), "dev": ("d",)}
        splits[split] += splits[split][:1]
        with pytest.raises(ContractError, match=f"class {splits[split][0]!r} is listed twice in {split}"):
            zs.ClassSet(**splits)


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
            predicted = zs.predict(encoder.encode(x), head, reps)
            correct += predicted[0] == label
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

    @pytest.mark.parametrize("split", ["train", "dev"])
    def test_multilabel_str_label_rejected(self, split):
        # classes named by one character: "ab" must not pass as the labels a and b
        g = Graph([("has", c, f"attr_{c}") for c in "abcd"])
        features = FeatureTable(3, {v: rng(1).normal(size=3) for v in g.nodes})
        stack = GnnStack([MeanPoolLayer(3, 3, rng=rng(2))], [2])
        class_encoder = zs.GnnClassEncoder(stack, g, features, HitSource(g, WalkConfig(seed=0)))
        classes = zs.ClassSet(seen=("a", "b"), unseen=(), dev=("c", "d"))
        x = np.ones(3)
        examples = {"train": [(x, ("a",)), (x, ("a", "b"))], "dev": [(x, ("c",)), (x, ("d",))]}
        examples[split][1] = (x, "ab" if split == "train" else "cd")
        with pytest.raises(DataError, match=f"{split} example 1 .*'{examples[split][1][1]}'"):
            zs.train_bilinear(examples["train"], examples["dev"], VectorEncoder(3), class_encoder,
                              zs.BilinearHead(3, 3, rank=2, rng=rng(3)), classes,
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

    def test_every_target_width_checked_naming_class(self):
        g, features, hits, stack = toy_world(num_classes=3, dim=3)
        class_encoder = zs.GnnClassEncoder(stack, g, features, hits)
        for seen, dev in ((("class_0", "class_1"), ()), (("class_0",), ("class_1",))):
            classes = zs.ClassSet(seen=seen, unseen=(), dev=dev,
                                  targets={"class_0": np.zeros(3), "class_1": np.zeros(2)})
            with pytest.raises(ConfigError, match="'class_1'"):
                zs.train_l2(class_encoder, classes, epochs=1)

    @pytest.mark.parametrize("bad", [[0.0, np.nan, 1.0], [np.inf, 0.0, 0.0], ["a", "b", "c"]])
    @pytest.mark.parametrize("split", ["seen", "dev"])
    def test_unusable_target_is_data_error_naming_class(self, bad, split):
        g, features, hits, stack = toy_world(num_classes=2, dim=3)
        class_encoder = zs.GnnClassEncoder(stack, g, features, hits)
        targets = {"class_0": np.ones(3), "class_1": bad}
        if split == "seen":
            classes = zs.ClassSet(seen=("class_0", "class_1"), unseen=(), targets=targets)
        else:
            classes = zs.ClassSet(seen=("class_0",), unseen=(), dev=("class_1",), targets=targets)
        with pytest.raises(DataError, match="'class_1'"):
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

    def test_multiclass_picks_the_top_score_with_id_tiebreak(self):
        head = self.make_head()
        reps = {"b": np.array([1.0, 0.0]), "a": np.array([1.0, 0.0]), "c": np.array([5.0, 0.0])}
        assert zs.predict(np.array([1.0, 0.0]), head, candidates(reps)) == ["c"]
        # "a" and "b" tie for the top: the smaller id wins
        assert zs.predict(np.array([1.0, 0.0]), head, candidates({**reps, "c": np.array([-5.0, 0.0])})) == ["a"]

    def test_multilabel_positive_scores(self):
        head = self.make_head()
        reps = candidates({"pos": np.array([1.0, 0.0]), "neg": np.array([-1.0, 0.0]),
                           "zero": np.array([0.0, 1.0])})
        chosen = zs.predict(np.array([1.0, 0.0]), head, reps, mode="multilabel")
        assert chosen == {"pos"}

    def test_l2_mode_dot_product(self):
        reps = candidates({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
        assert zs.predict(np.array([0.2, 0.9]), None, reps, mode="l2") == ["b"]
        assert zs.predict(np.array([0.9, 0.2]), None, reps, mode="l2") == ["a"]

    def test_l2_mode_bias_append(self):
        # phi one dim wider: last entry acts as a bias with theta
        # extended by 1
        reps = candidates({"a": np.array([0.0, 0.0, 10.0]), "b": np.array([1.0, 1.0, 0.0])})
        assert zs.predict(np.array([1.0, 1.0]), None, reps, mode="l2") == ["a"]
        # "a" wins on its bias alone, 10 > 1 + 1, until theta outgrows it
        assert zs.predict(np.array([6.0, 6.0]), None, reps, mode="l2") == ["b"]

    def test_l2_dim_mismatch(self):
        reps = candidates({"a": np.array([1.0, 2.0, 3.0, 4.0])})
        with pytest.raises(ContractError):
            zs.predict(np.array([1.0, 1.0]), None, reps, mode="l2")

    def test_unknown_mode(self):
        head = self.make_head()
        with pytest.raises(ConfigError):
            zs.predict(np.array([1.0, 0.0]), head, candidates({"a": np.array([1.0, 0.0])}), mode="wat")

    def test_head_width_mismatch_raises_contract_error(self):
        head = self.make_head()
        with pytest.raises(ContractError):
            zs.predict(np.array([1.0, 0.0]), head, candidates({"a": np.array([1.0, 0.0, 2.0])}))

    @pytest.mark.parametrize("mode", ["multiclass", "multilabel", "l2"])
    def test_scores_and_ranking_equal_per_candidate_reference_bitwise(self, mode):
        r = rng(51)
        head = zs.BilinearHead(6, 5, rank=3, rng=rng(52))
        theta = r.normal(size=6)
        width = 7 if mode == "l2" else 5
        reps = {f"c{i:03d}": r.normal(size=width) for i in range(40)}
        top = ranking_reference(theta, head, reps, mode)[0]
        reps["b999"] = reps[top].copy()  # ties the top score with a smaller id
        want = reference_scores(theta, head, reps, mode)

        reps = candidates(reps)
        ids, scores = zs.candidate_scores(theta, head, reps, mode)
        assert ids == tuple(sorted(reps))
        assert scores.tobytes() == np.array([want[c] for c in ids]).tobytes()
        got = zs.predict(theta, head, reps, mode)
        if mode == "multilabel":
            assert got == {c for c, s in want.items() if s > 0.0}
        else:
            assert got == ["b999"]

    @pytest.mark.parametrize("mode", ["multiclass", "multilabel", "l2"])
    @pytest.mark.parametrize("scores, first", [
        *(pytest.param({"a": 1.0, "c": bad, "b": bad}, "b", id=str(bad)) for bad in (np.inf, -np.inf, np.nan)),
        # the argmax lands on a finite top score, and only the min sees it
        pytest.param({"a": 1.0, "b": 3.0, "c": 2.0, "d": -np.inf}, "d", id="lone--inf-last"),
        pytest.param({"a": 1.0, "b": np.nan, "c": 0.5, "d": -np.inf}, "b", id="nan-at-argmax"),
        pytest.param({"a": 1.0, "b": 2.0, "c": np.inf, "d": 0.5}, "c", id="only-+inf"),
    ])
    def test_non_finite_score_raises_data_error_naming_the_candidate(self, mode, scores, first):
        # theta [1, 0] through identity B and A scores each phi by its first entry
        head = self.make_head()
        reps = candidates({c: np.array([s, 0.0]) for c, s in scores.items()})
        with pytest.raises(DataError, match=f"candidate '{first}' scores {scores[first]!r}"):
            zs.predict(np.array([1.0, 0.0]), head, reps, mode=mode)

    @pytest.mark.parametrize("mode, want", [("multiclass", ["b"]), ("multilabel", {"a", "b"}), ("l2", ["b"])])
    def test_finite_scores_whose_sum_overflows_still_predict(self, mode, want):
        # every score is finite, but their sum is not; no warning either,
        # since the test run makes a RuntimeWarning an error
        head = self.make_head()
        reps = {c: np.array([s, 0.0]) for c, s in {"a": 1e308, "b": 1.5e308, "c": -1.0}.items()}
        assert zs.predict(np.array([1.0, 0.0]), head, candidates(reps), mode=mode) == want
        low = candidates({c: -phi for c, phi in reps.items()})
        want_low = {"c"} if mode == "multilabel" else ["c"]
        assert zs.predict(np.array([1.0, 0.0]), head, low, mode=mode) == want_low

    def test_candidate_ids_are_the_class_reps_own(self):
        head = self.make_head()
        reps = candidates({"b": np.array([0.0, 1.0]), "a": np.array([1.0, 0.0])})
        ids, _ = zs.candidate_scores(np.array([1.0, 0.0]), head, reps)
        assert ids is reps.ids and ids == ("a", "b")
        assert zs.predict(np.array([1.0, 0.0]), head, reps) == ["a"]

    @pytest.mark.parametrize("mode", ["multiclass", "multilabel", "l2"])
    @pytest.mark.parametrize("given", [{"a": np.array([1.0, 0.0])}, {}, [np.array([1.0, 0.0])], None],
                             ids=["dict", "empty-dict", "list", "None"])
    def test_only_a_class_reps_is_scored(self, mode, given):
        head = self.make_head()
        for call in (zs.candidate_scores, zs.predict):
            with pytest.raises(ContractError, match=f"got {type(given).__name__}$"):
                call(np.array([1.0, 0.0]), head, given, mode)

    @pytest.mark.parametrize("mode", ["multiclass", "multilabel", "l2"])
    @pytest.mark.parametrize("shape", [(), (2, 2)], ids=["0-D", "2-D"])
    def test_theta_must_be_a_vector(self, mode, shape):
        head = self.make_head()
        reps = candidates({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
        for call in (zs.candidate_scores, zs.predict):
            with pytest.raises(ContractError, match=re.escape(f"got shape {shape}")):
                call(np.ones(shape), head, reps, mode)


@st.composite
def predict_inputs(draw):
    """A theta, a head (None for l2), 1-60 candidates and a mode.

    l2 candidates are theta's width or one wider (the bias); with two
    or more candidates, one may copy another's row for an exact tie.
    """
    mode = draw(st.sampled_from(["multiclass", "multilabel", "l2"]))
    values = st.floats(-4.0, 4.0)
    theta_dim, phi_dim = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    theta = draw(hnp.arrays(np.float64, theta_dim, elements=values))
    head = None
    if mode == "l2":
        phi_dim = theta_dim + draw(st.integers(0, 1))
    else:
        rank = draw(st.integers(1, min(theta_dim, phi_dim)))
        head = zs.BilinearHead(theta_dim, phi_dim, rank, rng=rng(0))
        head.b.data = draw(hnp.arrays(np.float64, (theta_dim, rank), elements=values))
        head.a.data = draw(hnp.arrays(np.float64, (rank, phi_dim), elements=values))
    n = draw(st.integers(1, 60))
    rows = draw(hnp.arrays(np.float64, (n, phi_dim), elements=values))
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.permutations(range(n)))[:2]
        rows[dst] = rows[src]
    return theta, head, candidates({f"c{i:02d}": row for i, row in enumerate(rows)}), mode


class TestPredictMatchesTheRanking:
    @settings(max_examples=300, deadline=None)
    @given(predict_inputs())
    def test_prediction_is_the_head_of_the_reference_ranking(self, inputs):
        theta, head, reps, mode = inputs
        want = reference_scores(theta, head, reps, mode)
        ids, scores = zs.candidate_scores(theta, head, reps, mode)
        assert scores.tobytes() == np.array([want[c] for c in ids]).tobytes()
        got = zs.predict(theta, head, reps, mode)
        if mode == "multilabel":
            assert got == {c for c, s in want.items() if s > 0.0}
        else:
            assert got == ranking_reference(theta, head, reps, mode)[:1]


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

    def test_only_class_representations_builds_one(self):
        # candidates reach predict one way: the encoder's own matrix, which
        # class_representations wraps, so no call site stacks rows of its own
        def dotted(node):
            if isinstance(node, ast.Attribute):
                return dotted(node.value) + [node.attr]
            return [node.id] if isinstance(node, ast.Name) else []

        builders = set()
        for path in sorted(Path(zs.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and "ClassReps" in dotted(node.func):
                    scope = node
                    while scope in parents and not isinstance(scope, ast.FunctionDef):
                        scope = parents[scope]
                    builders.add(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
        assert builders == {"zeroshot.class_representations"}

    def test_rows_equal_single_encodes_bitwise(self):
        enc, ids, reps = self.encoded()
        assert reps.matrix.shape == (4, 3)
        for c in ids:
            assert reps[c].tobytes() == enc.encode(c, mode="eval").data.tobytes()

    def test_class_representations_hand_over_the_encoder_matrix(self):
        enc, ids, reps = self.encoded()
        with ad.no_grad():
            out = enc.encode(sorted(ids))
        # bitwise the encoder's matrix, and read-only
        assert reps.matrix.tobytes() == out.data.tobytes()
        assert not reps.matrix.flags.writeable
        # the matrix is the one the encoder returned, not a copy of it
        got = zs.class_representations(SimpleNamespace(encode=lambda c, mode: out), ids)
        assert got.matrix is out.data and got.ids == tuple(sorted(ids))


def shared_world(num_classes=6, dim=4, seed=0):
    """Classes that share attribute nodes, under a two-level transformer stack."""
    edges = [("has", f"class_{c}", f"attr_{a}")
             for c in range(num_classes) for a in sorted({c % 4, (c + 1) % 4, 4 + c % 2})]
    g = Graph(edges)
    r = rng(seed)
    features = FeatureTable(dim, {v: r.normal(size=dim) for v in g.nodes})
    layers = [make_layer("transformer", dim, dim, activation="tanh", rng=rng(seed + 10 + i), name=f"t{i}")
              for i in range(2)]
    stack = GnnStack(layers, [3, 2])
    return zs.GnnClassEncoder(stack, g, features, HitSource(g, WalkConfig(seed=seed)), seed=seed)


class CountingFeatures:
    """A feature table that counts the lookups of each node."""

    def __init__(self, table):
        self.table = table
        self.dimension = table.dimension
        self.counts = Counter()

    def __getitem__(self, node):
        self.counts[node] += 1
        return self.table[node]


class TestSharedPass:
    def classes(self, enc):
        return [v for v in enc.graph.nodes if v.startswith("class_")]

    @pytest.mark.parametrize("mode", ["train", "no_grad", None])
    def test_only_eval_mode_is_accepted(self, mode):
        # refused before any encode, with the reason, not the rng the train path lacks
        enc = shared_world()
        calls = []
        spy = SimpleNamespace(encode=lambda *args, **kw: calls.append(args))
        with pytest.raises(ContractError, match=f"eval mode only, got mode {mode!r}"):
            zs.class_representations(spy, self.classes(enc), mode=mode)
        assert calls == []
        reps = zs.class_representations(enc, self.classes(enc), mode="eval")
        assert reps.ids == tuple(sorted(self.classes(enc)))

    def test_one_pass_looks_up_each_needed_feature_once(self):
        enc = shared_world()
        ids = self.classes(enc)
        apart = CountingFeatures(enc.features)
        with ad.no_grad():
            want = {c: enc.rebind(enc.graph, apart, enc.hits).encode(c).data for c in ids}
        counting = CountingFeatures(enc.features)
        reps = zs.class_representations(enc.rebind(enc.graph, counting, enc.hits), ids)
        # every node of every class's DAG, each looked up once
        assert dict(counting.counts) == dict.fromkeys(apart.counts, 1)
        assert sum(apart.counts.values()) > len(apart.counts)
        for c in ids:
            assert reps[c].tobytes() == want[c].tobytes()

    def test_one_pass_reads_each_hit_table_once(self):
        enc = shared_world()
        ids = self.classes(enc)
        apart, counted = Counter(), Counter()

        def counting(into):
            def hits(v):
                into[v] += 1
                return enc.hits(v)
            return hits

        with ad.no_grad():
            for c in ids:
                enc.rebind(enc.graph, enc.features, counting(apart)).encode(c)
        zs.class_representations(enc.rebind(enc.graph, enc.features, counting(counted)), ids)
        assert dict(counted) == dict.fromkeys(apart, 1)
        assert sum(apart.values()) > len(apart)

    def test_ids_are_taken_once_each_in_any_order(self):
        enc = shared_world()
        ids = sorted(self.classes(enc))
        want = zs.class_representations(enc, ids)
        for given in (iter(ids[::-1]), ids[2:] + ids + ids[:1]):
            got = zs.class_representations(enc, given)
            assert got.ids == want.ids
            assert got.matrix.tobytes() == want.matrix.tobytes()

    def test_rows_do_not_outlive_the_pass(self):
        enc = shared_world()
        ids = self.classes(enc)
        first = zs.class_representations(enc, ids)
        weight = enc.stack.layers[0].weight
        weight.data = weight.data * 1.5
        second = zs.class_representations(enc, ids)
        with ad.no_grad():
            for c in ids:
                assert second[c].tobytes() == enc.encode(c).data.tobytes()
        assert all(second[c].tobytes() != first[c].tobytes() for c in ids)

    def test_encode_only_object_gets_one_call(self):
        # as the benchmark's infer-wide op passes it: an object whose
        # only attribute is `encode`
        enc = shared_world()
        ids = self.classes(enc)
        calls = []

        def encode(c, mode):
            calls.append((c, mode))
            return enc.encode(c, mode=mode)

        reps = zs.class_representations(SimpleNamespace(encode=encode), ids[::-1] + ids[:2], mode="eval")
        assert calls == [(sorted(ids), "eval")]
        with ad.no_grad():
            for c in ids:
                assert reps[c].tobytes() == enc.encode(c).data.tobytes()

    def test_fit_dev_encode_is_one_pass(self):
        enc = shared_world()
        counting = CountingFeatures(enc.features)
        enc = enc.rebind(enc.graph, counting, enc.hits)
        ids = self.classes(enc)
        targets = {c: rng(i).normal(size=4) for i, c in enumerate(ids)}
        classes = zs.ClassSet(seen=tuple(ids[:2]), unseen=(), dev=tuple(ids[2:]), targets=targets)
        eval_calls = []
        encode = enc.encode

        def spy(c, mode="eval", rng=None):
            before = Counter(counting.counts)
            out = encode(c, mode=mode, rng=rng)
            if mode == "eval":
                # what a binding with no plan gives under the same parameters
                fresh = enc.rebind(enc.graph, counting.table, enc.hits).encode(c, mode=mode)
                assert out.data.tobytes() == fresh.data.tobytes()
                eval_calls.append((c, counting.counts - before))
            return out

        enc.encode = spy
        zs.train_l2(enc, classes, epochs=3, seed=0)
        # one eval-mode call per epoch, for every dev class; the first plans
        # the dev DAG, looking each needed feature up once, and the kept plan
        # looks up none
        assert [list(c) for c, _ in eval_calls] == [list(classes.dev)] * 3
        assert set(eval_calls[0][1].values()) == {1}
        assert [lookups for _, lookups in eval_calls[1:]] == [Counter()] * 2

    @pytest.mark.parametrize("head", ["bilinear", "l2"])
    def test_fit_train_step_is_one_union_encode(self, head):
        enc = shared_world()
        ids = self.classes(enc)
        # seen out of sorted order, so the call must keep the given order
        classes = zs.ClassSet(seen=(ids[5], ids[0], ids[3]), unseen=(), dev=(ids[4], ids[1]),
                              targets={c: rng(i).normal(size=4) for i, c in enumerate(ids)})
        calls = []
        encode = enc.encode

        def spy(c, mode="eval", rng=None):
            calls.append((list(c), mode))
            return encode(c, mode=mode, rng=rng)

        enc.encode = spy
        epochs = 3
        if head == "l2":
            zs.train_l2(enc, classes, epochs=epochs, seed=0)
            steps = 1
        else:
            r = rng(7)
            train = [(r.normal(size=4), classes.seen[i % 3]) for i in range(10)]
            dev = [(r.normal(size=4), classes.dev[i % 2]) for i in range(4)]
            zs.train_bilinear(train, dev, VectorEncoder(4), enc, zs.BilinearHead(4, 4, rank=2, rng=rng(8)),
                              classes, epochs=epochs, batch_size=4)
            steps = 3
        # per epoch, one train-mode call per step, then the dev pass
        step, held = (list(classes.seen), "train"), (list(classes.dev), "eval")
        assert calls == ([step] * steps + [held]) * epochs

    def test_fit_losses_take_the_class_matrix(self):
        enc = shared_world()
        ids = self.classes(enc)
        targets = {c: rng(i).normal(size=4) for i, c in enumerate(ids)}
        classes = zs.ClassSet(seen=tuple(ids[:3]), unseen=(), dev=tuple(ids[3:]), targets=targets)
        result = zs.train_l2(enc, classes, epochs=2, seed=0, lr=0.0)
        # lr 0 leaves the parameters as built, so each epoch's losses are
        # the summed squared error of that one encoding
        with ad.no_grad():
            for split, losses in (("seen", [e["train_loss"] for e in result.log]),
                                  ("dev", [e["dev_loss"] for e in result.log])):
                split_ids = getattr(classes, split)
                phis = enc.encode(split_ids).data
                want = sum(float(np.sum((phi - targets[c]) ** 2)) for c, phi in zip(split_ids, phis))
                np.testing.assert_allclose(losses, [want] * 2, rtol=1e-12)

def _reachable_trainables(obj, seen):
    """Every requires_grad tensor reachable from `obj` through attributes, lists, tuples and dicts."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, ad.Tensor):
        return [obj] if obj.requires_grad else []
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif type(obj).__module__.startswith("kgzsl."):
        children = list(vars(obj).values())
    else:
        return []
    return [t for child in children for t in _reachable_trainables(child, seen)]


def _parts():
    kwargs = {"rgcn": {"relations": ("r1", "r2"), "num_bases": 2}}
    parts = {kind: make_layer(kind, 4, 3, rng=rng(60), **kwargs.get(kind, {})) for kind in LAYER_KINDS}
    parts["sentence"] = SentenceEncoder(input_dim=3, hidden_dim=2, attn_dim=2, rng=rng(61))
    parts["mention"] = MentionEncoder(input_dim=3, hidden_dim=2, attn_dim=2, rng=rng(62))
    parts["vector"] = VectorEncoder(4)
    parts["head"] = zs.BilinearHead(4, 3, rank=2, rng=rng(63))
    return parts


class TestParameters:
    # a trainable tensor missing from parameters() would be neither trained nor checkpointed
    @pytest.mark.parametrize("part", [pytest.param(p, id=k) for k, p in sorted(_parts().items())])
    def test_parameters_list_every_trainable_tensor(self, part):
        reachable = _reachable_trainables(part, set())
        listed = {id(t) for t in part.parameters().values()}
        missing = [t.name for t in reachable if id(t) not in listed]
        assert not missing
        assert len(listed) == len(reachable)
        assert reachable or isinstance(part, VectorEncoder)

    # weights come only from a caller's stream, which the pipeline derives from the run's seed
    @pytest.mark.parametrize("build", [
        pytest.param(lambda k=k: LAYER_KINDS[k](4, 3, **({"relations": ("r1",)} if k == "rgcn" else {})),
                     id=k)
        for k in sorted(LAYER_KINDS)
    ] + [
        pytest.param(lambda: make_layer("gcn", 4, 3), id="make_layer"),
        pytest.param(lambda: SentenceEncoder(input_dim=3, hidden_dim=2, attn_dim=2), id="sentence"),
        pytest.param(lambda: MentionEncoder(input_dim=3, hidden_dim=2, attn_dim=2), id="mention"),
        pytest.param(lambda: zs.BilinearHead(4, 3, rank=2), id="head"),
    ])
    def test_constructors_need_an_rng(self, build):
        with pytest.raises(TypeError, match="rng"):
            build()
