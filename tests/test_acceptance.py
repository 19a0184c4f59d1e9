"""Acceptance suite: one test per shipped guarantee.

Each test prints a single pass/fail line with its runtime so the suite
doubles as a release report.  Runtime ceilings are asserted, not just
reported; a regression that makes a guarantee slow is a failure.
"""

import json
import time

import numpy as np

from kgzsl import autodiff as ad
from kgzsl import config, pipeline
from kgzsl.aggregators import make_layer
from kgzsl.autodiff import grad_check
from kgzsl.cli import main as cli_main
from kgzsl.encoders import MentionEncoder, MentionInput, SentenceEncoder
from kgzsl.evaluation import fold_metrics
from kgzsl.kg import FeatureTable, Graph
from kgzsl.sampler import HitSource, WalkConfig, sample_neighborhood
from kgzsl.seeding import make_rng
from kgzsl.synth import oracle_accuracy
from kgzsl.zeroshot import BilinearHead

from .helpers import markov_hit_table, total_variation


def report(n, label, t0, limit):
    elapsed = time.monotonic() - t0
    print(f"\n[criterion {n}] {label}: PASS in {elapsed:.1f}s (limit {limit:.0f}s)")
    assert elapsed < limit


# ------------------------------------------------------------ 1: gradient suite

def _op_cases(rng):
    """(name, builder) for every forward op; builder returns (loss_fn, params)."""

    def leaf(shape, low=None):
        data = rng.standard_normal(shape)
        if low is not None:
            data = np.abs(data) + low
        return ad.Tensor(data, requires_grad=True, name="x")

    def pair(op, low=None):
        a, b = leaf((3, 4), low), leaf((3, 4), low)
        return lambda: ad.sum(ad.multiply(op(a, b), op(a, b))), {"a": a, "b": b}

    def single(op, low=None, shape=(3, 4)):
        a = leaf(shape, low)
        return lambda: ad.sum(ad.multiply(op(a), op(a))), {"a": a}

    def matmul_case():
        a, b = leaf((3, 4)), leaf((4, 2))
        return lambda: ad.sum(ad.multiply(ad.matmul(a, b), ad.matmul(a, b))), {"a": a, "b": b}

    def matmul_t_case():
        a, b = leaf((3, 4)), leaf((2, 4))
        return lambda: ad.sum(ad.multiply(ad.matmul_t(a, b), ad.matmul_t(a, b))), {"a": a, "b": b}

    def concat_case():
        a, b = leaf(4), leaf(3)
        return lambda: ad.sum(ad.multiply(ad.concat([a, b]), ad.concat([a, b]))), {"a": a, "b": b}

    def stack_case():
        a, b = leaf(4), leaf(4)
        return lambda: ad.sum(ad.multiply(ad.stack([a, b]), ad.stack([a, b]))), {"a": a, "b": b}

    def element_case():
        a = leaf(5)
        return lambda: ad.multiply(ad.element(a, 2), ad.element(a, 2)), {"a": a}

    def row_case():
        a = leaf((4, 3))
        return lambda: ad.sum(ad.multiply(ad.row(a, 1), ad.row(a, 1))), {"a": a}

    def softmax_case():
        a = leaf((3, 4))
        return lambda: ad.sum(ad.multiply(ad.softmax(a), ad.softmax(a))), {"a": a}

    def layer_norm_case():
        x, g, b = leaf((3, 4)), leaf(4, low=0.5), leaf(4)
        return (
            lambda: ad.sum(ad.multiply(ad.layer_norm(x, g, b), ad.layer_norm(x, g, b))),
            {"x": x, "g": g, "b": b},
        )

    def ce_case():
        a = leaf(4)
        return lambda: ad.cross_entropy(a, 1), {"a": a}

    def bce_case():
        a = leaf(4)
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        return lambda: ad.mean(ad.binary_cross_entropy(a, labels)), {"a": a}

    def l2_case():
        a, b = leaf(4), leaf(4)
        return lambda: ad.l2_loss(a, b), {"a": a, "b": b}

    def mean_axis_case():
        a = leaf((3, 4))
        return lambda: ad.sum(ad.multiply(ad.mean(a, axis=0), ad.mean(a, axis=0))), {"a": a}

    # the stacked (B, M, D) forms the level-batched aggregators use
    def stacked(op, *shapes):
        ts = [leaf(shape) for shape in shapes]
        return (
            lambda: ad.sum(ad.multiply(op(*ts), op(*ts))),
            {f"t{i}": t for i, t in enumerate(ts)},
        )

    def layer_norm_3d_case():
        x, g, b = leaf((2, 3, 4)), leaf(4, low=0.5), leaf(4)
        return (
            lambda: ad.sum(ad.multiply(ad.layer_norm(x, g, b), ad.layer_norm(x, g, b))),
            {"x": x, "g": g, "b": b},
        )

    def transformer_block_case():
        # prev 6 wide, so the block is 3 wide; the layer norm gains
        # stay away from zero, as in layer_norm_case.  Two member sets
        # of 3 over 5 rows of prev: each takes a row twice, row 3 is a
        # self row and a member, and row 2 is unused
        prev = leaf((5, 6))
        rows = np.array([[0, 3, 3], [3, 1, 1]])
        shapes = [(3, 6)] + [(3, 3)] * 4 + [3] * 4 + [(3, 3), 3, (3, 3), 3, (6, 3), (4, 12)]
        params = [leaf(shape, low=0.5 if i in (5, 7) else None) for i, shape in enumerate(shapes)]

        def block():
            return ad.transformer_block(prev, rows, *params)
        return (
            lambda: ad.sum(ad.multiply(block(), block())),
            {"prev": prev, **{f"w{i}": t for i, t in enumerate(params)}},
        )

    return [
        ("add", pair(ad.add)),
        ("subtract", pair(ad.subtract)),
        ("multiply", pair(ad.multiply)),
        ("divide", pair(ad.divide, low=0.5)),
        ("add_const", single(lambda t: ad.add_const(t, 1.5))),
        ("scale", single(lambda t: ad.scale(t, -0.7))),
        ("matmul", matmul_case()),
        ("matmul_t", matmul_t_case()),
        ("concat", concat_case()),
        ("stack", stack_case()),
        ("transpose", single(ad.transpose)),
        ("element", element_case()),
        ("row", row_case()),
        ("sum", single(lambda t: ad.sum(t))),
        ("sum_axis", single(lambda t: ad.sum(t, axis=1))),
        ("mean", single(lambda t: ad.mean(t))),
        ("mean_axis", mean_axis_case()),
        ("sigmoid", single(ad.sigmoid)),
        ("tanh", single(ad.tanh)),
        # kink ops get inputs bounded away from zero so the numeric
        # difference never straddles the corner
        ("relu", single(ad.relu, low=0.05)),
        ("leaky_relu", single(lambda t: ad.leaky_relu(t, 0.2), low=0.05)),
        ("exp", single(ad.exp)),
        ("log", single(ad.log, low=0.5)),
        ("softmax", softmax_case()),
        ("layer_norm", layer_norm_case()),
        ("cross_entropy", ce_case()),
        ("binary_cross_entropy", bce_case()),
        ("l2_loss", l2_case()),
        ("matmul_stacked", stacked(ad.matmul, (2, 3, 4), (2, 4, 3))),
        ("matmul_t_stacked_shared", stacked(ad.matmul_t, (2, 3, 4), (5, 4))),
        ("matmul_t_stacked", stacked(ad.matmul_t, (2, 3, 4), (2, 5, 4))),
        ("matvec", stacked(ad.matvec, (3, 4), (2, 5, 4))),
        ("dot_rows", stacked(ad.dot_rows, (2, 3, 4), (4,))),
        ("gather", stacked(lambda t: ad.gather(t, np.array([[3, 0, 3], [1, 1, 2]])), (4, 3))),
        ("reshape", stacked(lambda t: ad.reshape(t, (3, 1, 4)), (2, 6))),
        ("add_bias_3d", stacked(ad.add, (2, 3, 4), (4,))),
        ("mean_axis1_3d", stacked(lambda t: ad.mean(t, axis=1), (2, 3, 4))),
        ("softmax_3d", stacked(lambda t: ad.softmax(t, axis=-1), (2, 3, 4))),
        ("layer_norm_3d", layer_norm_3d_case()),
        ("sum_axis1_3d", stacked(lambda t: ad.sum(t, axis=1), (2, 3, 4))),
        ("transformer_block", transformer_block_case()),
    ]


def _encoder_cases(seed):
    rng = make_rng("acc-grad-enc", seed)
    sent = SentenceEncoder(input_dim=4, hidden_dim=3, attn_dim=2,
                           rng=make_rng("acc-grad-sent", seed))
    tokens = rng.standard_normal((3, 4))

    def sent_loss():
        out = sent.encode(tokens)
        return ad.sum(ad.multiply(out, out))

    ment = MentionEncoder(input_dim=4, hidden_dim=2, attn_dim=2, window=2,
                          rng=make_rng("acc-grad-ment", seed))
    x = MentionInput(
        mention=[rng.standard_normal(4) for _ in range(2)],
        left=[rng.standard_normal(4)],
        right=[rng.standard_normal(4), rng.standard_normal(4)],
    )

    def ment_loss():
        out = ment.encode(x)
        return ad.sum(ad.multiply(out, out))

    return [("sentence_encoder", (sent_loss, sent.parameters())),
            ("mention_encoder", (ment_loss, ment.parameters()))]


def _head_cases(seed):
    rng = make_rng("acc-grad-head", seed)
    head = BilinearHead(4, 5, 2, rng=make_rng("acc-grad-bil", seed))
    theta = rng.standard_normal(4)
    phis = [rng.standard_normal(5) for _ in range(3)]

    def bil_loss():
        logits = ad.stack([head.score(ad.constant(theta), ad.constant(p)) for p in phis])
        return ad.cross_entropy(logits, 1)

    w = ad.Tensor(rng.standard_normal((5, 4)) * 0.3, requires_grad=True, name="W")
    phi_in = rng.standard_normal(4)
    target = rng.standard_normal(5)

    def l2_head_loss():
        return ad.l2_loss(ad.matmul(w, ad.constant(phi_in)), ad.constant(target))

    return [("bilinear_head", (bil_loss, head.parameters())),
            ("l2_head", (l2_head_loss, {"W": w}))]


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    for seed in range(3):
        rng = make_rng("acc-grad-ops", seed)
        cases = _op_cases(rng)
        cases += [(k, pipeline.layer_probe(k, make_rng("acc-grad-data", seed, k),
                                           make_rng("acc-grad-init", seed, k), 2))
                  for k in ("gcn", "gat", "rgcn", "lstm", "transformer")]
        cases += _encoder_cases(seed)
        cases += _head_cases(seed)
        for name, (loss_fn, params) in cases:
            rep = grad_check(loss_fn, params, step=1e-4, tol=1e-3)
            assert rep.passed, (
                f"gradient check failed for {name} seed {seed}: "
                f"worst {rep.worst():.3g} in {rep.max_rel_err}"
            )
    report(1, "gradients: 5 layers, 2 encoders, 2 heads, all ops, 3 seeds", t0, 60)


# --------------------------------------------------------- 2: permutation suite

def test_criterion_2_permutation_invariance():
    t0 = time.monotonic()
    rng = make_rng("acc-perm")
    self_feat = ad.constant(rng.standard_normal(6))
    neigh = [ad.constant(rng.standard_normal(6)) for _ in range(5)]
    rels = ["r0", "r1", "r0", "r1", "r0"]

    for kind in ("gcn", "gat", "rgcn", "transformer"):
        kwargs = {"relations": ["r0", "r1"], "num_bases": 2} if kind == "rgcn" else {}
        layer = make_layer(kind, 6, 4, rng=make_rng("acc-perm-init", kind), **kwargs)
        if kind == "rgcn":
            run = lambda order: layer.forward(
                self_feat, [(rels[i], neigh[i]) for i in order]
            )
        else:
            run = lambda order: layer.forward(self_feat, [neigh[i] for i in order])
        baseline = run(range(5)).data.tobytes()
        for p in range(20):
            order = make_rng("acc-perm-order", kind, p).permutation(5)
            assert run(order).data.tobytes() == baseline, (
                f"{kind} output changed under neighbor permutation {p}"
            )

    lstm = make_layer("lstm", 6, 4, rng=make_rng("acc-perm-init", "lstm"))
    fixed = [3, 0, 4, 1, 2, 5]
    a = lstm.forward(self_feat, neigh, permutation=fixed).data.tobytes()
    b = lstm.forward(self_feat, neigh, permutation=fixed).data.tobytes()
    assert a == b, "lstm aggregator not deterministic under a fixed permutation"
    report(2, "permutation invariance (20 shuffles) + lstm determinism", t0, 10)


# ------------------------------------------------------------- 3: sampler oracle

def _oracle_graphs():
    path = Graph([("r", "a", "b"), ("r", "b", "c"), ("r", "c", "d")])
    cycle = Graph([("r", "a", "b"), ("r", "b", "c"), ("r", "c", "d"), ("r", "d", "a")])
    star = Graph([("r", "hub", x) for x in ("a", "b", "c", "d", "e")])
    clique_tail = Graph(
        [("r", a, b) for i, a in enumerate("abcd") for b in "abcd"[i + 1:]]
        + [("r", "d", "tail")]
    )
    bridge = Graph([
        ("r", "a", "b"), ("r", "b", "c"), ("r", "c", "a"),
        ("r", "c", "d"), ("r", "d", "e"), ("r", "e", "c"),
    ])
    return [(path, "b"), (cycle, "a"), (star, "hub"), (clique_tail, "d"), (bridge, "c")]


def test_criterion_3_sampler_matches_markov_oracle():
    t0 = time.monotonic()
    for i, (g, center) in enumerate(_oracle_graphs()):
        assert g.num_nodes <= 6
        cfg = WalkConfig(steps=20, restarts=10_000, seed=17 + i)
        table = sample_neighborhood(g, center, cfg)
        exact = markov_hit_table(g, center, steps=20, restarts=10_000)
        tv = total_variation(table, exact)
        assert tv <= 0.05, f"graph {i}: TV {tv:.4f} > 0.05"
    report(3, "hit distributions within TV 0.05 of exact enumeration", t0, 30)


# ------------------------------------------------------------- 4: metrics oracle

def test_criterion_4_metrics_oracle():
    t0 = time.monotonic()
    hit = (("x",), ("x",))
    miss = (("x",), ("y",))

    def fold(correct, total):
        return [hit] * correct + [miss] * (total - correct)

    multi_hit = (("a", "b"), ("b", "a"))
    multi_sub = (("a",), ("a", "b"))

    fixtures = [
        ([fold(1, 2), fold(3, 4)], 4 / 6, 0.625),
        ([fold(1, 1)], 1.0, 1.0),
        ([fold(0, 3)], 0.0, 0.0),
        ([fold(2, 4)], 0.5, 0.5),
        ([fold(1, 3), fold(1, 3)], 2 / 6, 1 / 3),
        ([fold(9, 10), fold(0, 2)], 9 / 12, 0.45),
        ([fold(1, 2), fold(1, 2), fold(3, 3)], 5 / 7, (0.5 + 0.5 + 1.0) / 3),
        ([fold(0, 1), fold(1, 1)], 0.5, 0.5),
        ([[multi_hit, multi_sub]], 0.5, 0.5),
        ([fold(7, 8), [multi_hit, multi_sub, miss]], 8 / 11, (7 / 8 + 1 / 3) / 2),
    ]
    assert len(fixtures) == 10
    for i, (folds, micro, macro) in enumerate(fixtures):
        got = fold_metrics(folds)
        assert abs(got.micro - micro) <= 1e-12, f"fixture {i} micro"
        assert abs(got.macro - macro) <= 1e-12, f"fixture {i} macro"
    report(4, "micro/macro exact on 10 fixtures incl. 4/6 and 0.625", t0, 10)


# --------------------------------------------------- 5: synthetic zero-shot

def _unseen_top1(cfg):
    """Unrounded micro top-1 of `cfg`'s model, trained and scored through
    the functions `kgzsl train` and `kgzsl eval` run."""
    model, _ = pipeline.train(cfg)
    return pipeline.evaluate(cfg, model, pipeline.eval_world(cfg)).micro


def test_criterion_5_synthetic_zero_shot():
    t0 = time.monotonic()
    accs = []
    for seed in range(3):
        cfg = config.expand({"profile": "synthetic", "seed": seed})
        oracle = oracle_accuracy(pipeline.synth_world(cfg))
        assert oracle >= 0.95, f"seed {seed}: oracle {oracle:.4f} below 0.95"
        accs.append(_unseen_top1(cfg))
    mean = float(np.mean(accs))
    assert mean >= 0.90, (
        f"unseen top-1 mean {mean:.4f} < 0.90 over 3 seeds (per-seed: "
        f"{['%.3f' % a for a in accs]}, chance 0.25)"
    )
    report(5, f"unseen top-1 mean {mean:.3f} >= 0.90 (3 seeds)", t0, 300)


# ---------------------------------------- 6: non-linear vs linear aggregation

def test_criterion_6_transformer_beats_gcn_on_relation_task():
    t0 = time.monotonic()
    means = {}
    for kind in ("transformer", "gcn"):
        accs = []
        for seed in range(5):
            accs.append(_unseen_top1(config.expand({
                "profile": "synthetic", "seed": seed,
                "model": {"aggregator": kind}, "synth": {"relation_structure": True},
            })))
        means[kind] = float(np.mean(accs))
    gap = means["transformer"] - means["gcn"]
    assert gap >= 0.05, (
        f"transformer {means['transformer']:.4f} vs gcn {means['gcn']:.4f}: "
        f"gap {gap:.4f} < 0.05 over 5 seeds"
    )
    report(6, f"relation task gap {gap:.3f} >= 0.05 (5 seeds)", t0, 900)


# ------------------------------------------------------- 7: inductive contract

def test_criterion_7_inductive_rebind_and_locality():
    t0 = time.monotonic()
    cfg = config.expand({"profile": "synthetic", "seed": 0, "optimizer": {"epochs": 2}})
    data = pipeline.synth_world(cfg)
    (class_enc, _, _), _ = pipeline.train(cfg)

    # G2: same topology, disjoint ids, plus extra structure; built by hand
    rename = lambda n: f"g2/{n}"
    edges = [(rel, rename(h), rename(t)) for rel, h, t in data.graph.edges]
    extra = [("has_attribute", "g2/class/0", "g2/attr/extra")]
    g2 = Graph(edges + extra)
    feats = {rename(n): data.features[n] for n in data.graph.nodes}
    feats["g2/attr/extra"] = np.ones(data.spec.feature_dim) * 0.1
    f2 = FeatureTable(data.spec.feature_dim, feats)
    hits2 = HitSource(g2, WalkConfig(steps=20, restarts=10, seed=5))
    bound = class_enc.rebind(g2, f2, hits2)
    target = "g2/class/7"
    baseline = bound.encode(target, mode="eval").data.tobytes()
    assert baseline  # executed on disjoint ids without error

    # perturbation far outside the 2-hop neighborhood of the target:
    # hang a new node off a class that shares no attribute with it
    two_hop = {target}
    for a in g2.neighbors(target):
        two_hop.add(a)
        two_hop.update(g2.neighbors(a))
    outside = [
        n for n in g2.nodes
        if n.startswith("g2/class/") and n not in two_hop
    ]
    assert outside, "perturbation fixture needs a class outside the 2-hop ball"
    far = outside[0]
    g3 = Graph(list(g2.edges) + [("has_attribute", far, "g2/attr/new")])
    feats3 = dict(feats)
    feats3["g2/attr/new"] = np.full(data.spec.feature_dim, 9.0)
    f3 = FeatureTable(data.spec.feature_dim, feats3)
    hits3 = HitSource(g3, WalkConfig(steps=20, restarts=10, seed=5))
    rebound = class_enc.rebind(g3, f3, hits3)
    perturbed = rebound.encode(target, mode="eval").data.tobytes()
    assert perturbed == baseline, (
        "embedding changed after a perturbation outside the 2-hop neighborhood"
    )
    report(7, "trained model rebinds to disjoint-id graph; output is 2-hop local", t0, 120)


# ------------------------------------------------------------- 8: determinism

def test_criterion_8_cli_train_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "profile": "synthetic",
        "seed": 1,
        "optimizer": {"epochs": 2},
        "synth": {"examples_per_class": 30},
    }))
    for out in ("a", "b"):
        code = cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / out)])
        assert code == 0
    for name in ("checkpoint.json", "train_log.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    report(8, "two identical `train` runs: byte-identical checkpoint and log", t0, 120)
