"""Command line entry point.

Subcommands cover the pipeline stages: ingest, sample, synth, train,
eval, gradcheck.  Every run reads one JSON config (see config.py),
expands it against its profile and echoes the expanded form into
out/manifest.json next to sha256 hashes of every artifact written.
Rerunning with the same config must reproduce the hashes exactly, so
nothing here may depend on wall time, filesystem order or process
state.

Exit codes: 0 success, 1 config or data problem, 2 violated internal
invariant (a bug, not a user error).
"""

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import autodiff as ad
from . import config as cfgmod
from .aggregators import GnnStack, LAYER_KINDS, make_layer
from .autodiff import grad_check, load_into, save_checkpoint
from .encoders import MentionEncoder, MentionInput, SentenceEncoder, VectorEncoder
from .errors import (
    ConfigError, ContractError, DataError, DivergenceError, EmptyNameError, KgzslError, ParseError,
    ShapeError,
)
from .evaluation import FoldSpec, fold_metrics
from .kg import EmbeddingTable, ingest, init_features, serialize
from .sampler import HitSource, WalkConfig
from .seeding import make_rng
from .synth import SynthSpec, generate_synthetic, oracle_accuracy
from .zeroshot import (
    GnnClassEncoder, BilinearHead, class_representations, predict,
    model_params, train_bilinear, train_l2,
)

log = logging.getLogger("kgzsl.cli")

_USER_ERRORS = (ParseError, ConfigError, DataError, DivergenceError, EmptyNameError)


def _setup_logging():
    level_name = os.environ.get("KGZSL_LOG", "warning").lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING}
    if level_name not in levels:
        raise ConfigError(
            f"KGZSL_LOG must be one of {sorted(levels)}, got {level_name!r}"
        )
    logging.basicConfig(
        level=levels[level_name],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def _require_file(cfg, role):
    path = cfg["paths"].get(role)
    if not path:
        raise ConfigError(f"this run needs paths.{role} in the config")
    return path


def _json_hash(obj):
    return hashlib.sha256(cfgmod.canonical_json(obj).encode("utf-8")).hexdigest()


def _write_manifest(out_dir, cfg, digests):
    """Write manifest.json: the expanded config and the digest of each artifact by name."""
    manifest = {"config": cfg, "config_hash": _json_hash(cfg), "seed": cfg["seed"], "artifacts": digests}
    path = os.path.join(out_dir, "manifest.json")
    cfgmod.write_output(path, json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    log.info("manifest written to %s", path)


def _out_dir(args, cfg):
    out = args.out or cfg["paths"].get("checkpoint_dir") or "kgzsl_out"
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        source = "--out" if args.out else "paths.checkpoint_dir"
        reason = getattr(e, "strerror", None) or e
        raise ConfigError(f"{source} {out} cannot be made a directory: {reason}") from None
    return out


def _dump_json(obj, out_dir, name):
    return cfgmod.write_output(os.path.join(out_dir, name), cfgmod.canonical_json(obj) + "\n")


# ------------------------------------------------------------- model assembly

def _build_stack(cfg, graph, feature_dim):
    model = cfg["model"]
    dims = model["dims"]
    in_dims = [feature_dim] + dims[:-1]
    kwargs = {}
    if model["aggregator"] == "rgcn":
        kwargs = {
            "relations": sorted(graph.relations),
            "num_bases": model["num_bases"],
        }
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
    enc = cfg["model"]["encoder"]
    kind = enc["kind"]
    if kind == "vector":
        return VectorEncoder(enc["input_dim"])
    if kind == "sentence":
        return SentenceEncoder(
            input_dim=enc["input_dim"],
            hidden_dim=enc["hidden_dim"],
            attn_dim=enc["attn_dim"],
            rng=make_rng("enc-init", cfg["seed"]),
        )
    return MentionEncoder(
        input_dim=enc["input_dim"],
        hidden_dim=enc["hidden_dim"],
        attn_dim=enc["attn_dim"],
        window=enc["window"],
        rng=make_rng("enc-init", cfg["seed"]),
    )


def _check_feature_dim(cfg, features):
    want = cfg["model"]["encoder"]["input_dim"]
    if features.dimension != want:
        raise ConfigError(
            f"node features are {features.dimension}-dimensional but the "
            f"config expects {want}"
        )


def _walk_config(cfg):
    return WalkConfig(
        steps=cfg["sampler"]["steps"], restarts=cfg["sampler"]["restarts"], seed=cfg["seed"],
    )


def _assemble(cfg, graph, features):
    """Build class encoder, example encoder and head for one run.

    Dimension consistency is checked here, before any training or
    evaluation arithmetic happens.
    """
    _check_feature_dim(cfg, features)
    stack = _build_stack(cfg, graph, features.dimension)
    hits = HitSource(graph, _walk_config(cfg))
    class_enc = GnnClassEncoder(stack, graph, features, hits, seed=cfg["seed"])
    encoder = _build_example_encoder(cfg)
    head = None
    if cfg["model"]["head"] == "bilinear":
        head = BilinearHead(
            encoder.output_dim, cfg["model"]["dims"][-1], cfg["model"]["rank"],
            rng=make_rng("head-init", cfg["seed"]),
        )
    return class_enc, encoder, head


# --------------------------------------------------------------- data loading

def _load_graph(cfg):
    path = _require_file(cfg, "graph")
    g = ingest(path, lang_filter=cfg["ingest"]["lang"])
    log.info("graph: %d nodes, %d edges", g.num_nodes, g.num_edges)
    return g


def _numbers(raw, where):
    """A JSON list of numbers as a float64 array; anything else is a DataError."""
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
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
    path = _require_file(cfg, "examples")
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
    graph = _load_graph(cfg)
    emb = EmbeddingTable.from_file(_require_file(cfg, "embeddings"))
    features = init_features(graph, emb)
    examples = _load_examples(cfg, splits, emb)
    fold_spec = FoldSpec.load(_require_file(cfg, "fold_spec"))
    return graph, features, fold_spec, examples


def _check_fold_classes(graph, index, classes):
    """A fold class that is not a graph node is a DataError naming fold and class."""
    for cls in classes:
        if cls not in graph:
            raise DataError(f"fold {index} class {cls!r} is not a node of the graph")


def _generates_world(cfg):
    """Whether a train or eval run regenerates its synthetic world from the config."""
    if cfg["profile"] != "synthetic" or cfg["paths"]["graph"]:
        return False
    if cfg["model"]["loss_mode"] == "multilabel":
        raise ConfigError(
            "model.loss_mode 'multilabel' needs a file-backed run: "
            "a generated world gives each example one label"
        )
    return True


def _synth_world(cfg):
    s = dict(cfg["synth"])
    s["seed"] = cfg["seed"]
    return generate_synthetic(SynthSpec(**s))


def _synth_l2_targets(cfg, data, classes):
    """Targets for regression training on a generated world.

    The class representation regresses onto the mean training example,
    with a trailing bias slot when the stack output carries one extra
    dimension.
    """
    out_dim = cfg["model"]["dims"][-1]
    fdim = data.spec.feature_dim
    if out_dim not in (fdim, fdim + 1):
        raise ConfigError(
            f"l2 head needs stack output {fdim} or {fdim + 1}, got {out_dim}"
        )
    targets = {}
    for cls in classes.seen + classes.dev:
        mean = np.mean(data.examples[cls], axis=0)
        if out_dim == fdim + 1:
            mean = np.concatenate([mean, [1.0]])
        targets[cls] = mean
    return targets


# ---------------------------------------------------------------- subcommands

def _cmd_ingest(args, cfg):
    out = _out_dir(args, cfg)
    g = _load_graph(cfg)
    _write_manifest(out, cfg, {"graph.tsv": serialize(g, os.path.join(out, "graph.tsv"))})
    print(f"ingested {g.num_nodes} nodes, {g.num_edges} edges -> {out}/graph.tsv")
    return 0


def _cmd_sample(args, cfg):
    out = _out_dir(args, cfg)
    g = _load_graph(cfg)
    wc = _walk_config(cfg)
    source = HitSource(g, wc)
    tables = {node: source(node).to_jsonable() for node in sorted(g.nodes)}
    log.info("hit source: %d kernel runs sampled %d tables",
             source.kernel_runs, source.tables_sampled)
    digest = _dump_json(
        {"walk": {"steps": wc.steps, "restarts": wc.restarts}, "tables": tables},
        out, "hits.json",
    )
    _write_manifest(out, cfg, {"hits.json": digest})
    print(f"sampled hit tables for {len(tables)} nodes -> {out}/hits.json")
    return 0


def _cmd_synth(args, cfg):
    out = _out_dir(args, cfg)
    data = _synth_world(cfg)
    examples = {
        cls: [[float(x) for x in row] for row in rows]
        for cls, rows in sorted(data.examples.items())
    }
    oracle = oracle_accuracy(data)
    summary = {
        "oracle_accuracy": oracle,
        "seen": list(data.classes.seen),
        "dev": list(data.classes.dev),
        "unseen": list(data.classes.unseen),
    }
    _write_manifest(out, cfg, {
        "graph.tsv": serialize(data.graph, os.path.join(out, "graph.tsv")),
        "features.json": _dump_json(data.features.to_jsonable(), out, "features.json"),
        "examples.json": _dump_json(examples, out, "examples.json"),
        "fold_spec.json": cfgmod.write_output(
            os.path.join(out, "fold_spec.json"), cfgmod.canonical_json(data.fold_spec.to_jsonable())),
        "summary.json": _dump_json(summary, out, "summary.json"),
    })
    print(
        f"generated world: {data.graph.num_nodes} nodes, oracle accuracy "
        f"{oracle:.4f} -> {out}"
    )
    return 0


def _train_world(cfg):
    """Resolve config into (graph, features, classes, train/dev pairs).

    A synthetic run with no graph path regenerates its world from the
    config; training binds to the pruned train graph so unseen ids are
    unreachable.  File-backed runs read every input from paths.
    """
    if _generates_world(cfg):
        data = _synth_world(cfg)
        classes = data.classes
        if cfg["model"]["head"] == "l2":
            classes = dataclasses.replace(classes, targets=_synth_l2_targets(cfg, data, classes))
        return data.train_graph, data.features, classes, data.train_pairs(), data.dev_pairs()
    graph, features, fold_spec, examples = _load_inputs(cfg, ("train", "dev"))
    classes = dataclasses.replace(fold_spec.folds[0], targets=examples["targets"] or None)
    _check_fold_classes(graph, 0, [*classes.seen, *classes.dev])
    if not examples["train"] and cfg["model"]["head"] == "bilinear":
        raise DataError(f"examples file {cfg['paths']['examples']} has no training records")
    return graph, features, classes, examples["train"], examples["dev"]


def _cmd_train(args, cfg):
    out = _out_dir(args, cfg)
    graph, features, classes, train_pairs, dev_pairs = _train_world(cfg)
    class_enc, encoder, head = _assemble(cfg, graph, features)
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
            class_enc, classes,
            epochs=opt["epochs"], seed=cfg["seed"], lr=opt["lr"],
            weight_decay=opt["weight_decay"],
        )
    params = model_params(class_enc, encoder, head)
    _write_manifest(out, cfg, {
        "checkpoint.json": save_checkpoint(
            params, os.path.join(out, "checkpoint.json"), _json_hash(cfg["model"])),
        "train_log.json": _dump_json(result.to_jsonable(), out, "train_log.json"),
    })
    last = result.log[-1]
    print(
        f"trained {len(result.log)} epochs, final train loss "
        f"{last['train_loss']:.6f}, best epoch {result.best_epoch} -> {out}"
    )
    return 0


def _fold_test_pairs(rows, fold, multilabel):
    """The (input, gold) rows with a gold label among the fold's test classes."""
    keep = set(fold.unseen)
    if multilabel:
        return [(x, labels) for x, labels in rows if keep.intersection(labels)]
    return [(x, label) for x, label in rows if label in keep]


def _cmd_eval(args, cfg):
    out = _out_dir(args, cfg)
    ckpt = _require_file(cfg, "checkpoint")
    if _generates_world(cfg):
        data = _synth_world(cfg)
        graph, features = data.graph, data.features
        fold_spec = data.fold_spec
        if cfg["paths"]["fold_spec"]:
            fold_spec = FoldSpec.load(_require_file(cfg, "fold_spec"))
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
    class_enc, encoder, head = _assemble(cfg, graph, features)
    try:
        trained_under = load_into(model_params(class_enc, encoder, head), ckpt)
    except (ContractError, ShapeError) as e:
        # a checkpoint from another model config is bad input; an unreadable
        # or corrupted one is already a DataError naming it
        raise DataError(f"checkpoint {ckpt} cannot be loaded: {e}")
    # parameters that fit in name and shape can still come from another
    # model block, say another activation
    if trained_under is None:
        raise DataError(f"checkpoint {ckpt} stores no model config hash")
    if trained_under != _json_hash(cfg["model"]):
        raise DataError(f"checkpoint {ckpt} was trained under another model config than this run's")
    mode = "l2" if cfg["model"]["head"] == "l2" else cfg["model"]["loss_mode"]
    multilabel = cfg["model"]["loss_mode"] == "multilabel"
    fold_predictions = []
    for i, fold in enumerate(fold_spec.folds):
        reps = class_representations(class_enc, fold.unseen, mode="eval")
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
    result = fold_metrics(fold_predictions)
    digest = cfgmod.write_output(os.path.join(out, "metrics.json"), cfgmod.canonical_json(result.to_jsonable()))
    _write_manifest(out, cfg, {"metrics.json": digest})
    print(
        f"evaluated {sum(f.n for f in result.per_fold)} examples: "
        f"micro {result.micro:.4f}, macro {result.macro:.4f} -> {out}/metrics.json"
    )
    return 0


def _gradcheck_one(kind, cfg):
    rng = make_rng("gradcheck-data", cfg["seed"], kind)
    kwargs = {}
    if kind == "rgcn":
        kwargs = {"relations": ["r0", "r1"], "num_bases": cfg["model"]["num_bases"]}
    # tanh probe: a relu unit that happens to be dead for the probe data
    # would zero every gradient and pass vacuously
    layer = make_layer(
        kind, 5, 4, activation="tanh",
        rng=make_rng("gradcheck-init", cfg["seed"], kind), **kwargs,
    )
    self_feat = ad.constant(rng.standard_normal(5))
    neigh = [ad.constant(rng.standard_normal(5)) for _ in range(3)]

    def loss():
        if kind == "rgcn":
            tagged = [("r0", neigh[0]), ("r1", neigh[1]), ("r0", neigh[2])]
            h = layer.forward(self_feat, tagged)
        elif kind == "lstm":
            h = layer.forward(self_feat, neigh, permutation=[1, 3, 0, 2])
        else:
            h = layer.forward(self_feat, neigh)
        return ad.sum(ad.multiply(h, h))

    return grad_check(loss, layer.parameters())


def _cmd_gradcheck(args, cfg):
    out = _out_dir(args, cfg)
    report = {}
    ok = True
    for kind in sorted(LAYER_KINDS):
        rep = _gradcheck_one(kind, cfg)
        report[kind] = {"passed": rep.passed, "max_rel_err": rep.worst()}
        ok = ok and rep.passed
        log.info("gradcheck %s: passed=%s worst=%.3g", kind, rep.passed, rep.worst())
    _write_manifest(out, cfg, {"gradcheck.json": _dump_json(report, out, "gradcheck.json")})
    for kind in sorted(report):
        r = report[kind]
        status = "pass" if r["passed"] else "FAIL"
        print(f"{kind:12s} {status}  max rel err {r['max_rel_err']:.3g}")
    if not ok:
        raise ContractError("gradient check failed for at least one layer kind")
    return 0


COMMANDS = {
    "ingest": _cmd_ingest,
    "sample": _cmd_sample,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kgzsl",
        description="zero-shot classification over knowledge graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        cfg = cfgmod.load_config(args.config, seed_override=args.seed)
        log.info(
            "running %s with profile %s seed %d",
            args.command, cfg["profile"], cfg["seed"],
        )
        return COMMANDS[args.command](args, cfg)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except KgzslError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - last resort, still a clean exit 2
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
