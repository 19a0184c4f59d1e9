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
)
from .evaluation import FoldSpec, fold_metrics
from .kg import EmbeddingTable, ingest, init_features, serialize
from .sampler import HitSource, WalkConfig
from .seeding import make_rng
from .synth import SynthSpec, generate_synthetic, oracle_accuracy
from .zeroshot import (
    ClassSet, GnnClassEncoder, BilinearHead, class_representations, predict,
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
    if not os.path.exists(path):
        raise ConfigError(f"paths.{role} file not found: {path}")
    return path


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, cfg, artifacts):
    manifest = {
        "config": cfg,
        "config_hash": hashlib.sha256(
            cfgmod.canonical_json(cfg).encode("utf-8")
        ).hexdigest(),
        "seed": cfg["seed"],
        "artifacts": {
            name: _sha256(os.path.join(out_dir, name)) for name in sorted(artifacts)
        },
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    log.info("manifest written to %s", path)
    return manifest


def _out_dir(args, cfg):
    out = args.out or cfg["paths"].get("checkpoint_dir") or "kgzsl_out"
    os.makedirs(out, exist_ok=True)
    return out


def _dump_json(obj, out_dir, name):
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


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
        feature_dim=enc["feature_dim"],
        feature_mode=enc["feature_mode"],
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
    g = ingest(
        path,
        lang_filter=cfg["ingest"]["lang"],
        bidirectional=cfg["ingest"]["bidirectional"],
    )
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


def _record_to_input(rec, cfg, emb, where):
    """One examples-file record -> (encoder input, label or labels)."""
    if not isinstance(rec, dict):
        raise DataError(f"{where}: record is not a JSON object")
    kind = cfg["model"]["encoder"]["kind"]
    if cfg["model"]["loss_mode"] == "multilabel":
        label = tuple(rec.get("labels", ()))
        if not label:
            raise DataError(f"{where}: record has no labels")
    else:
        label = rec.get("label")
        if label is None:
            raise DataError(f"{where}: record has no label")
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
        tokens = rec.get("tokens")
        if not tokens:
            raise DataError(f"{where}: record has no tokens")
        return np.stack([emb.lookup(t) for t in tokens]), label
    x = MentionInput(
        mention=[emb.lookup(t) for t in rec.get("mention", ())],
        left=[emb.lookup(t) for t in rec.get("left", ())],
        right=[emb.lookup(t) for t in rec.get("right", ())],
    )
    if not x.mention:
        raise DataError(f"{where}: mention span is empty")
    return x, label


def _load_examples(cfg, splits):
    """Read the examples file into encoder inputs for the given splits.

    Layout: {"train": [...], "dev": [...], "test": [...], "targets":
    {...}} where each record carries the fields its encoder kind needs
    plus "label" (or "labels" for multilabel runs).
    """
    path = _require_file(cfg, "examples")
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"examples file {path} is not valid JSON: {e}")
    if not isinstance(obj, dict):
        raise DataError(f"examples file {path}: top level is not a JSON object")
    emb = None
    if cfg["model"]["encoder"]["kind"] in ("sentence", "mention"):
        emb = EmbeddingTable.from_file(_require_file(cfg, "embeddings"))
        if emb.dimension != cfg["model"]["encoder"]["input_dim"]:
            raise ConfigError(
                f"embeddings are {emb.dimension}-dimensional but the config "
                f"expects {cfg['model']['encoder']['input_dim']}"
            )
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


def _check_fold_classes(graph, index, classes):
    """A fold class that is not a graph node is a DataError naming fold and class."""
    for cls in classes:
        if cls not in graph:
            raise DataError(f"fold {index} class {cls!r} is not a node of the graph")


def _synth_world(cfg):
    s = dict(cfg["synth"])
    s["seed"] = cfg["seed"]
    try:
        spec = SynthSpec(**s)
    except TypeError as e:
        raise ConfigError(f"bad synth block: {e}")
    return generate_synthetic(spec)


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
    serialize(g, os.path.join(out, "graph.tsv"))
    _write_manifest(out, cfg, ["graph.tsv"])
    print(f"ingested {g.num_nodes} nodes, {g.num_edges} edges -> {out}/graph.tsv")
    return 0


def _cmd_sample(args, cfg):
    out = _out_dir(args, cfg)
    g = _load_graph(cfg)
    wc = _walk_config(cfg)
    source = HitSource(g, wc)
    tables = {node: source(node).to_jsonable() for node in sorted(g.nodes)}
    _dump_json(
        {"walk": {"steps": wc.steps, "restarts": wc.restarts}, "tables": tables},
        out, "hits.json",
    )
    _write_manifest(out, cfg, ["hits.json"])
    print(f"sampled hit tables for {len(tables)} nodes -> {out}/hits.json")
    return 0


def _cmd_synth(args, cfg):
    out = _out_dir(args, cfg)
    data = _synth_world(cfg)
    serialize(data.graph, os.path.join(out, "graph.tsv"))
    _dump_json(data.features.to_jsonable(), out, "features.json")
    examples = {
        cls: [[float(x) for x in row] for row in rows]
        for cls, rows in sorted(data.examples.items())
    }
    _dump_json(examples, out, "examples.json")
    data.fold_spec.save(os.path.join(out, "fold_spec.json"))
    oracle = oracle_accuracy(data)
    _dump_json(
        {
            "oracle_accuracy": oracle,
            "seen": list(data.classes.seen),
            "dev": list(data.classes.dev),
            "unseen": list(data.classes.unseen),
        },
        out, "summary.json",
    )
    _write_manifest(
        out, cfg,
        ["graph.tsv", "features.json", "examples.json", "fold_spec.json",
         "summary.json"],
    )
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
    if cfg["profile"] == "synthetic" and not cfg["paths"]["graph"]:
        data = _synth_world(cfg)
        classes = data.classes
        if cfg["model"]["head"] == "l2":
            classes = ClassSet(
                seen=classes.seen, unseen=classes.unseen, dev=classes.dev,
                targets=_synth_l2_targets(cfg, data, classes),
            )
        return data.train_graph, data.features, classes, data.train_pairs(), data.dev_pairs()
    graph = _load_graph(cfg)
    emb = EmbeddingTable.from_file(_require_file(cfg, "embeddings"))
    features = init_features(graph, emb)
    examples = _load_examples(cfg, ("train", "dev"))
    fold = FoldSpec.load(_require_file(cfg, "fold_spec")).folds[0]
    _check_fold_classes(graph, 0, [*fold.train, *fold.dev])
    classes = ClassSet(
        seen=fold.train, unseen=fold.test, dev=fold.dev,
        targets=examples["targets"] or None,
    )
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
    save_checkpoint(params, os.path.join(out, "checkpoint.json"))
    _dump_json(result.to_jsonable(), out, "train_log.json")
    _write_manifest(out, cfg, ["checkpoint.json", "train_log.json"])
    last = result.log[-1]
    print(
        f"trained {len(result.log)} epochs, final train loss "
        f"{last['train_loss']:.6f}, best epoch {result.best_epoch} -> {out}"
    )
    return 0


def _predict_mode(cfg):
    if cfg["model"]["head"] == "l2":
        return "l2"
    return cfg["model"]["loss_mode"]


def _cmd_eval(args, cfg):
    out = _out_dir(args, cfg)
    ckpt = _require_file(cfg, "checkpoint")
    if cfg["profile"] == "synthetic" and not cfg["paths"]["graph"]:
        data = _synth_world(cfg)
        graph, features = data.graph, data.features
        if cfg["paths"]["fold_spec"]:
            fold_spec = FoldSpec.load(_require_file(cfg, "fold_spec"))
        else:
            fold_spec = data.fold_spec

        def test_pairs_of(fold):
            missing = [c for c in fold.test if c not in data.examples]
            if missing:
                raise DataError(f"fold test classes not in this world: {missing}")
            return data.pairs(fold.test)
    else:
        graph = _load_graph(cfg)
        emb = EmbeddingTable.from_file(_require_file(cfg, "embeddings"))
        features = init_features(graph, emb)
        rows = _load_examples(cfg, ("test",))["test"]
        fold_spec = FoldSpec.load(_require_file(cfg, "fold_spec"))

        def test_pairs_of(fold):
            keep = set(fold.test)
            return [
                (x, label) for x, label in rows
                if (label in keep if isinstance(label, str)
                    else any(l in keep for l in label))
            ]
    for i, fold in enumerate(fold_spec.folds):
        _check_fold_classes(graph, i, fold.test)
    class_enc, encoder, head = _assemble(cfg, graph, features)
    load_into(model_params(class_enc, encoder, head), ckpt)
    mode = _predict_mode(cfg)
    fold_predictions = []
    for i, fold in enumerate(fold_spec.folds):
        reps = class_representations(class_enc, fold.test, mode="eval")
        pairs = []
        # the example encoders' weights are parameters: no tape to record
        with ad.no_grad():
            for x, gold in test_pairs_of(fold):
                pred = predict(encoder.encode(x), head, reps, mode)
                if mode == "multilabel":
                    pairs.append((tuple(sorted(pred)), gold))
                else:
                    pairs.append(((pred[0],), (gold,)))
        if not pairs:
            raise DataError(f"no test examples fall in fold {i}")
        fold_predictions.append(pairs)
    result = fold_metrics(fold_predictions)
    result.save(os.path.join(out, "metrics.json"))
    _write_manifest(out, cfg, ["metrics.json"])
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
    _dump_json(report, out, "gradcheck.json")
    _write_manifest(out, cfg, ["gradcheck.json"])
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
