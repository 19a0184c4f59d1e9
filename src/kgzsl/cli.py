"""Command line entry point.

Subcommands cover the pipeline stages: ingest, sample, synth, train,
eval, gradcheck.  Every run reads one JSON config (see config.py),
expands it against its profile and echoes the expanded form into
out/manifest.json next to sha256 hashes of every artifact written.
How the config becomes a world, a model, a trained model and its
scores is pipeline.py's, and whether a checkpoint fits the model is
`autodiff.load_into`'s; this module parses arguments, loads the config
and writes.  Rerunning with the same config must reproduce the hashes
exactly, so nothing here may depend on wall time, filesystem order or
process state.

Exit codes: 0 success, 1 config or data problem, 2 violated internal
invariant (a bug, not a user error).
"""

import argparse
import hashlib
import json
import logging
import os
import sys

from . import config as cfgmod
from . import pipeline
from .aggregators import LAYER_KINDS
from .autodiff import grad_check, load_into, save_checkpoint
from .errors import (
    ConfigError, ContractError, DataError, DivergenceError, EmptyNameError, KgzslError, ParseError,
)
from .kg import serialize
from .sampler import HitSource
from .seeding import make_rng
from .synth import oracle_accuracy
from .zeroshot import model_params

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


# ---------------------------------------------------------------- subcommands

def _cmd_ingest(args, cfg):
    out = _out_dir(args, cfg)
    g = pipeline.load_graph(cfg)
    _write_manifest(out, cfg, {"graph.tsv": serialize(g, os.path.join(out, "graph.tsv"))})
    print(f"ingested {g.num_nodes} nodes, {g.num_edges} edges -> {out}/graph.tsv")
    return 0


def _cmd_sample(args, cfg):
    out = _out_dir(args, cfg)
    g = pipeline.load_graph(cfg)
    wc = pipeline.walk_config(cfg)
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
    data = pipeline.synth_world(cfg)
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


def _cmd_train(args, cfg):
    out = _out_dir(args, cfg)
    model, result = pipeline.train(cfg)
    _write_manifest(out, cfg, {
        "checkpoint.json": save_checkpoint(
            model_params(*model), os.path.join(out, "checkpoint.json"), _json_hash(cfg["model"])),
        "train_log.json": _dump_json(result.to_jsonable(), out, "train_log.json"),
    })
    last = result.log[-1]
    print(
        f"trained {len(result.log)} epochs, final train loss "
        f"{last['train_loss']:.6f}, best epoch {result.best_epoch} -> {out}"
    )
    return 0


def _cmd_eval(args, cfg):
    out = _out_dir(args, cfg)
    ckpt = pipeline.require_file(cfg, "checkpoint")
    world = pipeline.eval_world(cfg)
    model = pipeline.assemble(cfg, world[0], world[1])
    load_into(model_params(*model), ckpt, _json_hash(cfg["model"]))
    result = pipeline.evaluate(cfg, model, world)
    digest = cfgmod.write_output(os.path.join(out, "metrics.json"), cfgmod.canonical_json(result.to_jsonable()))
    _write_manifest(out, cfg, {"metrics.json": digest})
    print(
        f"evaluated {sum(f.n for f in result.per_fold)} examples: "
        f"micro {result.micro:.4f}, macro {result.macro:.4f} -> {out}/metrics.json"
    )
    return 0


def _cmd_gradcheck(args, cfg):
    out = _out_dir(args, cfg)
    report = {}
    ok = True
    for kind in sorted(LAYER_KINDS):
        rep = grad_check(*pipeline.layer_probe(
            kind, make_rng("gradcheck-data", cfg["seed"], kind),
            make_rng("gradcheck-init", cfg["seed"], kind), cfg["model"]["num_bases"],
        ))
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
