"""Run configuration: profiles, expansion, validation.

A run is configured by one JSON file.  The file names a task profile
and overrides; loading expands the profile into a fully enumerated
config so that the manifest never depends on defaults hidden in code.
Silent defaults are a reproducibility hazard: the expanded config is
echoed into the manifest verbatim.
"""

import copy
import json

from .errors import ConfigError

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
                "feature_dim": 60,
                "feature_mode": "zeros",
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
    "ingest": {"lang": None, "bidirectional": False},
}

HEAD_KINDS = ("bilinear", "l2")
# the exact keys of each encoder kind's config block
ENCODER_KEYS = {
    "sentence": ("kind", "input_dim", "hidden_dim", "attn_dim"),
    "mention": ("kind", "input_dim", "hidden_dim", "attn_dim", "feature_dim", "feature_mode", "window"),
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
    # encoder blocks differ per profile, so replace wholesale when given
    override = {k: v for k, v in raw.items()}
    enc = None
    if isinstance(override.get("model"), dict) and isinstance(
        override["model"].get("encoder"), dict
    ):
        override = copy.deepcopy(override)
        enc = override["model"].pop("encoder")
    cfg = _merge(base, override)
    if enc is not None:
        if enc.get("kind", cfg["model"]["encoder"]["kind"]) == cfg["model"]["encoder"]["kind"]:
            merged = dict(cfg["model"]["encoder"])
            for k, v in enc.items():
                merged[k] = v
            cfg["model"]["encoder"] = merged
        else:
            cfg["model"]["encoder"] = enc
    validate(cfg)
    return cfg


def is_int(value):
    """A JSON integer: bool is an int subclass, but `true` is not a count or a seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate(cfg):
    """Structural checks that need no input data."""
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
    if enc["kind"] == "mention" and enc["feature_mode"] != "zeros":
        raise ConfigError(
            f"encoder.feature_mode must be 'zeros', got {enc['feature_mode']!r}: "
            "example files carry no hand features for the other modes"
        )
    if model["head"] == "bilinear":
        theta = encoder_output_dim(enc)
        phi = dims[-1]
        rank = model["rank"]
        if not is_int(rank) or rank < 1 or rank > min(theta, phi):
            raise ConfigError(
                f"rank must be in [1, {min(theta, phi)}] for encoder dim "
                f"{theta} and stack output {phi}, got {rank!r}"
            )
    opt = cfg["optimizer"]
    for key in ("lr", "weight_decay"):
        if not (is_int(opt[key]) or isinstance(opt[key], float)):
            raise ConfigError(f"{key} must be a number, got {opt[key]!r}")
    if opt["lr"] <= 0:
        raise ConfigError(f"lr must be positive, got {opt['lr']!r}")
    if opt["weight_decay"] < 0:
        raise ConfigError(f"weight_decay must not be negative, got {opt['weight_decay']!r}")
    if not is_int(opt["epochs"]) or opt["epochs"] < 1:
        raise ConfigError(f"epochs must be a positive integer, got {opt['epochs']!r}")
    if not is_int(opt["batch_size"]) or opt["batch_size"] < 1:
        raise ConfigError(f"batch_size must be a positive integer, got {opt['batch_size']!r}")
    samp = cfg["sampler"]
    if not is_int(samp["steps"]) or samp["steps"] < 1:
        raise ConfigError(f"sampler.steps must be a positive integer, got {samp['steps']!r}")
    if not is_int(samp["restarts"]) or samp["restarts"] < 1:
        raise ConfigError(f"sampler.restarts must be a positive integer, got {samp['restarts']!r}")
    if not is_int(cfg["seed"]):
        raise ConfigError(f"seed must be an integer, got {cfg['seed']!r}")


def encoder_output_dim(enc):
    kind = enc["kind"]
    if kind == "sentence":
        return 2 * enc["hidden_dim"]
    if kind == "mention":
        return 2 * enc["hidden_dim"] + enc["feature_dim"] + enc["input_dim"]
    return enc["input_dim"]


def load_config(path, seed_override=None):
    """Read, expand and validate a config file.

    `seed_override` replaces the config seed before expansion is
    echoed anywhere, so the manifest always shows the effective seed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    if seed_override is not None:
        raw = dict(raw)
        raw["seed"] = seed_override
    return expand(raw)


def canonical_json(obj):
    """Stable serialization used for hashing and echoing configs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
