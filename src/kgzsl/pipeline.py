"""How a run's config becomes a world, a model, a trained model and its scores.

`kgzsl train` and `kgzsl eval` (cli.py) and the acceptance suite run
the same functions: `train` resolves the train world, assembles the
model and runs its head's trainer; `eval_world` resolves the eval
world, `assemble` builds an untrained model for a checkpoint to fill,
and `evaluate` scores every fold.  A synthetic run with no graph path
generates its world from the config's `synth` block; any other run
reads its inputs from `paths`.  The CLI adds argument parsing, the
checkpoint file and the artifacts.
"""

import logging

import numpy as np

from . import autodiff as ad
from . import config as cfgmod
from .aggregators import GnnStack, make_layer
from .encoders import MentionEncoder, MentionInput, SentenceEncoder, VectorEncoder
from .errors import ConfigError, DataError, ParseError
from .evaluation import FoldSpec, fold_metrics
from .kg import EmbeddingTable, ingest, init_features
from .sampler import HitSource, WalkConfig
from .seeding import make_rng
from .synth import SynthSpec, generate_synthetic
from .zeroshot import (
    BilinearHead, GnnClassEncoder, class_representations, predict, train_bilinear, train_l2,
)

log = logging.getLogger("kgzsl.pipeline")


# ------------------------------------------------------------- model assembly

def _build_stack(cfg, graph, feature_dim):
    model = cfg["model"]
    dims = model["dims"]
    in_dims = [feature_dim] + dims[:-1]
    kwargs = {}
    if model["aggregator"] == "rgcn":
        kwargs = {"relations": sorted(graph.relations), "num_bases": model["num_bases"]}
    layers = [
        make_layer(
            model["aggregator"], i, o,
            activation=model["activation"],
            rng=make_rng("gnn-init", cfg["seed"], depth),
            **kwargs,
        )
        for depth, (i, o) in enumerate(zip(in_dims, dims))
    ]
    return GnnStack(layers, model["hop_limits"])


def _build_example_encoder(cfg):
    # a validated encoder block holds exactly its encoder's arguments
    enc = dict(cfg["model"]["encoder"])
    kind = enc.pop("kind")
    if kind == "vector":
        return VectorEncoder(enc["input_dim"])
    make = SentenceEncoder if kind == "sentence" else MentionEncoder
    return make(**enc, rng=make_rng("enc-init", cfg["seed"]))


def walk_config(cfg):
    return WalkConfig(**cfg["sampler"], seed=cfg["seed"])


def assemble(cfg, graph, features):
    """Build class encoder, example encoder and head for one run.

    The stack takes the node features' width, which a file-backed vector
    run need not share with its examples; `config.validate` has already
    checked every width the config alone fixes.
    """
    stack = _build_stack(cfg, graph, features.dimension)
    hits = HitSource(graph, walk_config(cfg))
    class_enc = GnnClassEncoder(stack, graph, features, hits, seed=cfg["seed"])
    encoder = _build_example_encoder(cfg)
    head = None
    if cfg["model"]["head"] == "bilinear":
        head = BilinearHead(
            encoder.output_dim, cfg["model"]["dims"][-1], cfg["model"]["rank"],
            rng=make_rng("head-init", cfg["seed"]),
        )
    return class_enc, encoder, head


def layer_probe(kind, data_rng, init_rng, num_bases):
    """(loss function, parameters) probing the gradients of a 5 -> 4 `kind`
    layer from `init_rng` over three neighbors drawn from `data_rng`."""
    kwargs = {"relations": ["r0", "r1"], "num_bases": num_bases} if kind == "rgcn" else {}
    # tanh probe: a relu unit that happens to be dead for the probe data
    # would zero every gradient and pass vacuously
    layer = make_layer(kind, 5, 4, activation="tanh", rng=init_rng, **kwargs)
    self_feat = ad.constant(data_rng.standard_normal(5))
    neigh = [ad.constant(data_rng.standard_normal(5)) for _ in range(3)]

    def loss():
        if kind == "rgcn":
            h = layer.forward(self_feat, [("r0", neigh[0]), ("r1", neigh[1]), ("r0", neigh[2])])
        elif kind == "lstm":
            h = layer.forward(self_feat, neigh, permutation=[1, 3, 0, 2])
        else:
            h = layer.forward(self_feat, neigh)
        return ad.sum(ad.multiply(h, h))

    return loss, layer.parameters()


# --------------------------------------------------------------- data loading

def require_file(cfg, role):
    path = cfg["paths"].get(role)
    if not path:
        raise ConfigError(f"this run needs paths.{role} in the config")
    return path


def load_graph(cfg):
    path = require_file(cfg, "graph")
    g = ingest(path, lang_filter=cfg["ingest"]["lang"])
    log.info("graph: %d nodes, %d edges", g.num_nodes, g.num_edges)
    return g


def _numbers(raw, where):
    """A JSON list of numbers as a float64 array; anything else is a DataError,
    a boolean item too, which numpy would read as 0 or 1."""
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "iuf"
            or isinstance(raw, list) and bool in map(type, raw)):
        raise DataError(f"{where}: not a list of numbers")
    return arr.astype(np.float64)


def _strings(rec, key, where):
    """A record's list-of-strings field; an absent field is empty."""
    value = rec.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise DataError(f"{where}: {key} is not a list of strings")
    return value


def _record_to_input(rec, cfg, emb, where):
    """One examples-file record -> (encoder input, label or labels)."""
    if not isinstance(rec, dict):
        raise DataError(f"{where}: record is not a JSON object")
    kind = cfg["model"]["encoder"]["kind"]
    if cfg["model"]["loss_mode"] == "multilabel":
        label = tuple(_strings(rec, "labels", where))
        if not label:
            raise DataError(f"{where}: record has no labels")
    else:
        label = rec.get("label")
        if label is None:
            raise DataError(f"{where}: record has no label")
        if not isinstance(label, str):
            raise DataError(f"{where}: label is not a string")
    if kind == "vector":
        want = cfg["model"]["encoder"]["input_dim"]
        vec = _numbers(rec.get("vector", ()), f"{where} vector")
        if vec.shape != (want,):
            raise DataError(
                f"{where}: vector has shape {vec.shape}, config expects ({want},)"
            )
        if not np.isfinite(vec).all():
            raise DataError(f"{where}: vector has a non-finite value")
        return vec, label
    if kind == "sentence":
        tokens = _strings(rec, "tokens", where)
        if not tokens:
            raise DataError(f"{where}: record has no tokens")
        return np.stack([emb.lookup(t) for t in tokens]), label
    x = MentionInput(
        mention=[emb.lookup(t) for t in _strings(rec, "mention", where)],
        left=[emb.lookup(t) for t in _strings(rec, "left", where)],
        right=[emb.lookup(t) for t in _strings(rec, "right", where)],
    )
    if not x.mention:
        raise DataError(f"{where}: mention span is empty")
    return x, label


def _load_examples(cfg, splits, emb):
    """Read the examples file into encoder inputs for the given splits.

    Layout: {"train": [...], "dev": [...], "test": [...], "targets":
    {...}} where each record carries the fields its encoder kind needs
    plus "label" (or "labels" for multilabel runs).
    """
    path = require_file(cfg, "examples")
    obj = cfgmod.read_json(path, ParseError, "examples file")
    if not isinstance(obj, dict):
        raise DataError(f"examples file {path}: top level is not a JSON object")
    want = cfg["model"]["encoder"]["input_dim"]
    if cfg["model"]["encoder"]["kind"] in ("sentence", "mention") and emb.dimension != want:
        raise ConfigError(f"embeddings are {emb.dimension}-dimensional but the config expects {want}")
    out = {}
    for split in splits:
        rows = obj.get(split, [])
        if not isinstance(rows, list):
            raise DataError(f"examples file {path}: {split} is not a list of records")
        out[split] = [
            _record_to_input(rec, cfg, emb, f"{path} {split}[{i}]")
            for i, rec in enumerate(rows)
        ]
    targets = obj.get("targets", {})
    if not isinstance(targets, dict):
        raise DataError(f"examples file {path}: targets is not a JSON object")
    out["targets"] = {
        cls: _numbers(vec, f"{path} targets[{cls!r}]") for cls, vec in targets.items()
    }
    return out


def _load_inputs(cfg, splits):
    """A file-backed run's graph, node features, fold spec and examples.

    One parse of the embedding file serves the features and the tokens.
    """
    graph = load_graph(cfg)
    emb = EmbeddingTable.from_file(require_file(cfg, "embeddings"))
    features = init_features(graph, emb)
    examples = _load_examples(cfg, splits, emb)
    fold_spec = FoldSpec.load(require_file(cfg, "fold_spec"))
    return graph, features, fold_spec, examples


def _check_fold_classes(graph, index, classes):
    """A fold class that is not a graph node is a DataError naming fold and class."""
    for cls in classes:
        if cls not in graph:
            raise DataError(f"fold {index} class {cls!r} is not a node of the graph")


def synth_world(cfg):
    return generate_synthetic(SynthSpec(**cfg["synth"], seed=cfg["seed"]))


def _synth_l2_targets(cfg, data, classes):
    """Targets for regression training on a generated world.

    The class representation regresses onto the mean training example,
    with a trailing bias slot when the stack output carries one extra
    dimension (`config.validate` allows no other width).
    """
    targets = {}
    for cls in classes.seen + classes.dev:
        mean = np.mean(data.examples[cls], axis=0)
        if cfg["model"]["dims"][-1] == data.spec.feature_dim + 1:
            mean = np.concatenate([mean, [1.0]])
        targets[cls] = mean
    return targets


def _train_world(cfg):
    """Resolve config into (graph, features, classes, l2 targets, train/dev pairs).

    A generated world binds training to the pruned train graph so
    unseen ids are unreachable.
    """
    if cfgmod.generates_world(cfg):
        data = synth_world(cfg)
        classes = data.classes
        targets = _synth_l2_targets(cfg, data, classes) if cfg["model"]["head"] == "l2" else {}
        return data.train_graph, data.features, classes, targets, data.train_pairs(), data.dev_pairs()
    graph, features, fold_spec, examples = _load_inputs(cfg, ("train", "dev"))
    classes = fold_spec.folds[0]
    _check_fold_classes(graph, 0, [*classes.seen, *classes.dev])
    if not examples["train"] and cfg["model"]["head"] == "bilinear":
        raise DataError(f"examples file {cfg['paths']['examples']} has no training records")
    return graph, features, classes, examples["targets"], examples["train"], examples["dev"]


def eval_world(cfg):
    """Resolve config into (graph, features, fold spec, test rows); a
    generated world is the full graph, unseen classes included."""
    if cfgmod.generates_world(cfg):
        data = synth_world(cfg)
        graph, features = data.graph, data.features
        fold_spec = data.fold_spec
        if cfg["paths"]["fold_spec"]:
            fold_spec = FoldSpec.load(require_file(cfg, "fold_spec"))
        missing = [c for f in fold_spec.folds for c in f.unseen if c not in data.examples]
        if missing:
            raise DataError(f"fold test classes not in this world: {missing}")
        rows = data.pairs(sorted(data.examples))
        trained = data.classes
    else:
        graph, features, fold_spec, examples = _load_inputs(cfg, ("test",))
        rows = examples["test"]
        trained = fold_spec.folds[0]
    # `train` fits the seen classes of `trained` and picks its epoch by
    # the loss on its dev classes, so a zero-shot score must count neither
    roles = dict.fromkeys(trained.dev, "dev") | dict.fromkeys(trained.seen, "seen")
    for i, fold in enumerate(fold_spec.folds):
        _check_fold_classes(graph, i, fold.unseen)
        for cls in fold.unseen:
            if cls in roles:
                raise DataError(f"fold {i} tests class {cls!r}, which training saw as a {roles[cls]} class")
    return graph, features, fold_spec, rows


def train(cfg):
    """Train the config's model on its train world; returns
    ((class encoder, example encoder, head or None), TrainResult)."""
    graph, features, classes, targets, train_pairs, dev_pairs = _train_world(cfg)
    class_enc, encoder, head = assemble(cfg, graph, features)
    opt = cfg["optimizer"]
    if cfg["model"]["head"] == "bilinear":
        result = train_bilinear(
            train_pairs, dev_pairs, encoder, class_enc, head, classes,
            loss_mode=cfg["model"]["loss_mode"],
            epochs=opt["epochs"], seed=cfg["seed"], batch_size=opt["batch_size"],
            lr=opt["lr"], weight_decay=opt["weight_decay"],
        )
    else:
        result = train_l2(
            class_enc, classes, targets,
            epochs=opt["epochs"], seed=cfg["seed"], lr=opt["lr"],
            weight_decay=opt["weight_decay"],
        )
    return (class_enc, encoder, head), result


def _fold_test_pairs(rows, fold, multilabel):
    """The (input, gold) rows with a gold label among the fold's test classes."""
    keep = set(fold.unseen)
    if multilabel:
        return [(x, labels) for x, labels in rows if keep.intersection(labels)]
    return [(x, label) for x, label in rows if label in keep]


def evaluate(cfg, model, world):
    """Score a model on every fold of an `eval_world`, its class encoder
    rebound to the world's graph once per fold, every binding over one
    fresh HitSource, so a fold's plan goes with its binding; an EvalResult."""
    class_enc, encoder, head = model
    graph, features, fold_spec, rows = world
    hits = HitSource(graph, walk_config(cfg))
    mode = "l2" if cfg["model"]["head"] == "l2" else cfg["model"]["loss_mode"]
    multilabel = cfg["model"]["loss_mode"] == "multilabel"
    fold_predictions = []
    for i, fold in enumerate(fold_spec.folds):
        reps = class_representations(class_enc.rebind(graph, features, hits), fold.unseen)
        pairs = []
        # the example encoders' weights are parameters: no tape to record
        with ad.no_grad():
            for x, gold in _fold_test_pairs(rows, fold, multilabel):
                pred = predict(encoder.encode(x), head, reps, mode)
                if mode == "multilabel":
                    pairs.append((tuple(sorted(pred)), gold))
                else:
                    pairs.append(((pred[0],), (gold,)))
        if not pairs:
            raise DataError(f"no test examples fall in fold {i}")
        fold_predictions.append(pairs)
    return fold_metrics(fold_predictions)
