"""Run configuration: profiles, expansion, validation.

A run is configured by one JSON file.  The file names a task profile
and overrides; loading expands the profile into a fully enumerated
config so that the manifest never depends on defaults hidden in code.
Silent defaults are a reproducibility hazard: the expanded config is
echoed into the manifest verbatim.
"""

import contextlib
import copy
import hashlib
import json
import sys

from .errors import ConfigError, ParseError

# per-task defaults; every leaf a run can depend on appears here, so
# expansion always yields a complete config
PROFILES = {
    "intent": {
        "model": {
            "aggregator": "transformer",
            "dims": [64, 64],
            "hop_limits": [50, 10],
            "activation": "relu",
            "num_bases": 10,
            "head": "bilinear",
            "rank": 16,
            "encoder": {
                "kind": "sentence",
                "input_dim": 300,
                "hidden_dim": 32,
                "attn_dim": 20,
            },
            "loss_mode": "multiclass",
        },
        "optimizer": {
            "lr": 0.001,
            "weight_decay": 5e-05,
            "epochs": 10,
            "batch_size": 32,
        },
    },
    "typing": {
        "model": {
            "aggregator": "transformer",
            "dims": [128, 128],
            "hop_limits": [50, 10],
            "activation": "relu",
            "num_bases": 1,
            "head": "bilinear",
            "rank": 20,
            "encoder": {
                "kind": "mention",
                "input_dim": 300,
                "hidden_dim": 100,
                "attn_dim": 100,
                "window": 10,
            },
            "loss_mode": "multilabel",
        },
        "optimizer": {
            "lr": 0.001,
            "weight_decay": 1e-05,
            "epochs": 5,
            "batch_size": 32,
        },
    },
    "vision": {
        "model": {
            "aggregator": "transformer",
            "dims": [2048, 2049],
            "hop_limits": [50, 10],
            "activation": "leaky_relu",
            "num_bases": 1,
            "head": "l2",
            "rank": 1,
            "encoder": {"kind": "vector", "input_dim": 2048},
            "loss_mode": "multiclass",
        },
        "optimizer": {
            "lr": 0.001,
            "weight_decay": 5e-04,
            "epochs": 10,
            "batch_size": 32,
        },
    },
    "synthetic": {
        "model": {
            "aggregator": "transformer",
            "dims": [16, 16],
            "hop_limits": [8, 8],
            "activation": "relu",
            "num_bases": 1,
            "head": "bilinear",
            "rank": 8,
            "encoder": {"kind": "vector", "input_dim": 16},
            "loss_mode": "multiclass",
        },
        "optimizer": {
            "lr": 0.01,
            "weight_decay": 0.0,
            "epochs": 25,
            "batch_size": 32,
        },
        "synth": {
            "attribute_pool": 20,
            "num_classes": 10,
            "num_unseen": 4,
            "num_dev": 0,
            "attrs_per_class": 4,
            "feature_dim": 16,
            "noise": 0.1,
            "examples_per_class": 200,
            "relation_structure": False,
        },
    },
}

_COMMON = {
    "seed": 0,
    "paths": {
        "graph": None,
        "embeddings": None,
        "examples": None,
        "fold_spec": None,
        "checkpoint": None,
        "checkpoint_dir": None,
    },
    "sampler": {"steps": 20, "restarts": 10},
    "ingest": {"lang": None},
}

HEAD_KINDS = ("bilinear", "l2")
LOSS_MODES = ("multiclass", "multilabel")
# the exact keys of each encoder kind's config block
ENCODER_KEYS = {
    "sentence": ("kind", "input_dim", "hidden_dim", "attn_dim"),
    "mention": ("kind", "input_dim", "hidden_dim", "attn_dim", "window"),
    "vector": ("kind", "input_dim"),
}
ENCODER_KINDS = tuple(ENCODER_KEYS)


def _merge(base, override, path=""):
    """Recursive dict merge; override wins, unknown keys rejected."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and not isinstance(value, dict):
            raise ConfigError(f"config key {where!r} must be an object")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def expand(raw):
    """Expand a raw config dict against its profile.

    The result enumerates every setting explicitly.  Unknown keys are
    rejected rather than ignored; a typo that silently falls back to a
    default would defeat the point of echoing the config.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    profile = raw.get("profile")
    if profile not in PROFILES:
        raise ConfigError(
            f"profile must be one of {sorted(PROFILES)}, got {profile!r}"
        )
    base = copy.deepcopy(_COMMON)
    base.update(copy.deepcopy(PROFILES[profile]))
    base["profile"] = profile
    model = raw.get("model")
    enc = model.get("encoder") if isinstance(model, dict) else None
    if isinstance(enc, dict):
        # an encoder of the profile's kind merges into its block; another kind replaces it
        block = base["model"]["encoder"]
        same = enc.get("kind", block["kind"]) == block["kind"]
        base["model"]["encoder"] = {**block, **enc} if same else dict(enc)
    cfg = _merge(base, raw)
    validate(cfg)
    return cfg


def is_int(value):
    """A JSON integer: bool is an int subclass, but `true` is not a count or a seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_leaf(ok, key, want, value):
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {value!r}")


def _check_leaf_types(cfg):
    """Types of the leaves that no range check below reads; SynthSpec checks the synth ranges."""
    enc = cfg["model"]["encoder"]
    counts = [("model.num_bases", cfg["model"]["num_bases"])] + [
        (f"model.encoder.{key}", enc[key])
        for key in ("input_dim", "hidden_dim", "attn_dim") if key in enc
    ]
    for key, value in counts:
        _check_leaf(is_int(value) and value >= 1, key, "a positive integer", value)
    if "window" in enc:
        _check_leaf(is_int(enc["window"]) and enc["window"] >= 0, "model.encoder.window",
                    "a non-negative integer (0 keeps all context)", enc["window"])
    for key, value in cfg.get("synth", {}).items():
        if key == "noise":
            _check_leaf(is_int(value) or isinstance(value, float), "synth.noise", "a number", value)
        elif key == "relation_structure":
            _check_leaf(isinstance(value, bool), "synth.relation_structure", "true or false", value)
        else:
            _check_leaf(is_int(value), f"synth.{key}", "an integer", value)
    lang = cfg["ingest"]["lang"]
    _check_leaf(lang is None or isinstance(lang, str), "ingest.lang", "a string or null", lang)
    for key, value in cfg["paths"].items():
        _check_leaf(value is None or isinstance(value, str), f"paths.{key}", "a string or null", value)


def generates_world(cfg):
    """Whether a run generates its world from the `synth` block: the synthetic profile with no graph."""
    return cfg["profile"] == "synthetic" and not cfg["paths"]["graph"]


def _judge(make, block, cfg):
    """Build `make(**cfg[block], seed=cfg["seed"])`, whose own checks judge the block; an error
    that opens with one of the block's keys gets the block's name put before that key."""
    try:
        make(**cfg[block], seed=cfg["seed"])
    except ConfigError as e:
        key = str(e).split(" ", 1)[0]
        raise ConfigError(f"{block}.{e}" if key in cfg[block] else str(e)) from None


def validate(cfg):
    """Every rule the expanded config alone decides, checked before any command reads an input."""
    model = cfg["model"]
    dims = model["dims"]
    if not isinstance(dims, list) or not dims or any(
        not is_int(d) or d < 1 for d in dims
    ):
        raise ConfigError(f"model.dims must be positive integers, got {dims!r}")
    hops = model["hop_limits"]
    if not isinstance(hops, list) or any(not is_int(h) or h < 0 for h in hops):
        raise ConfigError(f"hop limits must be non-negative integers, got {hops!r}")
    if len(hops) != len(dims):
        raise ConfigError(
            f"{len(dims)} layers but {len(hops)} hop limits"
        )
    if model["head"] not in HEAD_KINDS:
        raise ConfigError(f"head must be one of {HEAD_KINDS}, got {model['head']!r}")
    if model["loss_mode"] not in LOSS_MODES:
        raise ConfigError(f"model.loss_mode must be one of {LOSS_MODES}, got {model['loss_mode']!r}")
    # imported here: aggregators, sampler and synth each import this module
    from .aggregators import ACTIVATIONS, LAYER_KINDS
    from .sampler import WalkConfig
    from .synth import SynthSpec
    for key, names in (("aggregator", tuple(LAYER_KINDS)), ("activation", tuple(ACTIVATIONS))):
        if model[key] not in names:
            raise ConfigError(f"model.{key} must be one of {names}, got {model[key]!r}")
    if model["head"] == "l2" and model["loss_mode"] == "multilabel":
        raise ConfigError(
            "model.loss_mode 'multilabel' needs the bilinear head: "
            "an l2 head predicts one class per example"
        )
    enc = model["encoder"]
    if enc.get("kind") not in ENCODER_KINDS:
        raise ConfigError(
            f"encoder kind must be one of {ENCODER_KINDS}, got {enc.get('kind')!r}"
        )
    keys = ENCODER_KEYS[enc["kind"]]
    for key in enc:
        if key not in keys:
            raise ConfigError(f"unknown config key 'model.encoder.{key}' for a {enc['kind']} encoder")
    for key in keys:
        if key not in enc:
            raise ConfigError(f"a {enc['kind']} encoder needs config key 'model.encoder.{key}'")
    _check_leaf_types(cfg)
    _judge(WalkConfig, "sampler", cfg)
    if cfg["profile"] == "synthetic":
        _judge(SynthSpec, "synth", cfg)
    if generates_world(cfg):
        if model["loss_mode"] == "multilabel":
            raise ConfigError("model.loss_mode 'multilabel' needs a file-backed run: "
                              "a generated world gives each example one label")
        want = {"kind": "vector", "input_dim": cfg["synth"]["feature_dim"]}
        if enc != want:
            raise ConfigError(f"model.encoder must be {want} in a generated world, whose examples "
                              f"are synth.feature_dim vectors, got {enc}")
    theta = encoder_output_dim(enc)
    phi = dims[-1]
    if model["head"] == "bilinear":
        rank = model["rank"]
        if not is_int(rank) or rank < 1 or rank > min(theta, phi):
            raise ConfigError(
                f"rank must be in [1, {min(theta, phi)}] for encoder dim "
                f"{theta} and stack output {phi}, got {rank!r}"
            )
    elif enc["kind"] != "vector":
        # train_l2 fits the class encoder alone, so a text encoder would keep its initial weights
        raise ConfigError(
            f"model.encoder.kind must be 'vector' for an l2 head, which trains no example encoder, "
            f"got {enc['kind']!r}"
        )
    elif phi not in (theta, theta + 1):
        # an l2 head scores phi against theta, with a bias 1 appended when phi is one wider
        raise ConfigError(
            f"model.dims must end in {theta} or {theta + 1} for an l2 head over encoder dim {theta}, got {phi}"
        )
    opt = cfg["optimizer"]
    for key in ("lr", "weight_decay"):
        if not (is_int(opt[key]) or isinstance(opt[key], float)):
            raise ConfigError(f"{key} must be a number, got {opt[key]!r}")
    # written as negations so that NaN fails them too; json.load reads Infinity
    if not 0 < opt["lr"] <= sys.float_info.max:
        raise ConfigError(f"optimizer.lr must be positive and finite, got {opt['lr']!r}")
    if not 0 <= opt["weight_decay"] <= sys.float_info.max:
        raise ConfigError(
            f"optimizer.weight_decay must be non-negative and finite, got {opt['weight_decay']!r}"
        )
    if not is_int(opt["epochs"]) or opt["epochs"] < 1:
        raise ConfigError(f"epochs must be a positive integer, got {opt['epochs']!r}")
    if not is_int(opt["batch_size"]) or opt["batch_size"] < 1:
        raise ConfigError(f"batch_size must be a positive integer, got {opt['batch_size']!r}")


def encoder_output_dim(enc):
    kind = enc["kind"]
    if kind == "sentence":
        return 2 * enc["hidden_dim"]
    if kind == "mention":
        return 2 * enc["hidden_dim"] + enc["input_dim"]
    return enc["input_dim"]


def load_config(path, seed_override=None):
    """Read, expand and validate a config file.

    `seed_override` replaces the config seed before expansion is
    echoed anywhere, so the manifest always shows the effective seed.
    """
    raw = read_json(path, ConfigError, "config file")
    if seed_override is not None:
        raw = dict(raw)
        raw["seed"] = seed_override
    return expand(raw)


@contextlib.contextmanager
def open_input(path, role, error):
    """Open an input file as text, decoded as UTF-8 with a leading BOM dropped.

    A path that cannot be opened, or bytes that are not UTF-8, raise
    `error` naming the role and the path; a ParseError with a line number
    raised in the block gets the role and the path put before its line.
    """
    try:
        fh = open(path, encoding="utf-8-sig")
    except FileNotFoundError:
        raise error(f"{role} {path} not found") from None
    except IsADirectoryError:
        raise error(f"{role} {path} is a directory, not a file") from None
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        reason = getattr(e, "strerror", None) or e
        raise error(f"{role} {path} cannot be opened: {reason}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise error(f"{role} {path} is not UTF-8: {e}") from None
        except ParseError as e:
            if e.line is not None:  # a row error names its file as well as its line
                e.args = (f"{role} {path}: {e}",)
            raise


def write_output(path, text):
    """Write an artifact as UTF-8 bytes; returns the sha256 hex digest of those bytes.

    A path that cannot be written raises ConfigError naming it.
    """
    data = text.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except IsADirectoryError:
        raise ConfigError(f"output {path} is a directory, not a file") from None
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        reason = getattr(e, "strerror", None) or e
        raise ConfigError(f"output {path} cannot be written: {reason}") from None
    return hashlib.sha256(data).hexdigest()


def read_json(path, error, role):
    """Parse a JSON input file; text that is not JSON raises `error` naming it."""
    with open_input(path, role, error) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # RecursionError: nesting too deep to parse
        raise error(f"{role} {path} is not valid JSON: {e}") from None


def canonical_json(obj):
    """Stable serialization used for hashing, echoing configs and writing JSON artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
