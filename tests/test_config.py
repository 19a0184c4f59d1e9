"""Profile expansion and config validation."""

import json

import pytest

from kgzsl.config import (
    PROFILES, canonical_json, encoder_output_dim, expand, load_config,
)
from kgzsl.errors import ConfigError


class TestExpand:
    def test_intent_profile_fills_paper_defaults(self):
        cfg = expand({"profile": "intent"})
        assert cfg["model"]["dims"] == [64, 64]
        assert cfg["model"]["aggregator"] == "transformer"
        assert cfg["model"]["rank"] == 16
        assert cfg["model"]["num_bases"] == 10
        assert cfg["optimizer"]["lr"] == 0.001
        assert cfg["optimizer"]["epochs"] == 10
        assert cfg["model"]["encoder"]["kind"] == "sentence"
        assert cfg["seed"] == 0

    def test_every_profile_expands_clean(self):
        for name in PROFILES:
            cfg = expand({"profile": name})
            assert cfg["profile"] == name
            assert "paths" in cfg and "sampler" in cfg

    def test_override_wins_over_profile(self):
        cfg = expand({"profile": "intent", "optimizer": {"lr": 0.5}})
        assert cfg["optimizer"]["lr"] == 0.5
        # untouched siblings keep their profile values
        assert cfg["optimizer"]["epochs"] == 10

    def test_encoder_override_merges_within_kind(self):
        cfg = expand({"profile": "intent", "model": {"encoder": {"hidden_dim": 8}}})
        assert cfg["model"]["encoder"]["kind"] == "sentence"
        assert cfg["model"]["encoder"]["hidden_dim"] == 8
        assert cfg["model"]["encoder"]["attn_dim"] == 20

    def test_encoder_override_replaces_on_kind_change(self):
        cfg = expand({
            "profile": "intent",
            "model": {"rank": 4, "encoder": {"kind": "vector", "input_dim": 10}},
        })
        assert cfg["model"]["encoder"] == {"kind": "vector", "input_dim": 10}

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="profile"):
            expand({"profile": "imagenet"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="optimzer"):
            expand({"profile": "intent", "optimzer": {"lr": 0.1}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="model.depth"):
            expand({"profile": "intent", "model": {"depth": 3}})


class TestValidate:
    def test_rank_above_bound_rejected(self):
        with pytest.raises(ConfigError, match="rank"):
            expand({"profile": "synthetic", "model": {"rank": 17}})

    def test_hop_limit_length_must_match_dims(self):
        with pytest.raises(ConfigError, match="hop"):
            expand({"profile": "synthetic", "model": {"dims": [16, 16, 16]}})

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ConfigError, match="lr"):
            expand({"profile": "synthetic", "optimizer": {"lr": 0}})

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError, match="dims"):
            expand({"profile": "synthetic", "model": {"dims": [16, 0], "hop_limits": [8, 8]}})

    def test_vision_profile_skips_rank_check(self):
        # l2 head has no rank; dims 2048 -> 2049 append a bias slot
        cfg = expand({"profile": "vision"})
        assert cfg["model"]["head"] == "l2"
        assert cfg["model"]["dims"] == [2048, 2049]

    def test_mention_encoder_output_dim(self):
        cfg = expand({"profile": "typing"})
        assert encoder_output_dim(cfg["model"]["encoder"]) == 2 * 100 + 60 + 300

    def test_unknown_encoder_key_rejected(self):
        with pytest.raises(ConfigError, match="model.encoder.typo_key"):
            expand({"profile": "typing", "model": {"encoder": {"typo_key": 1}}})

    def test_missing_encoder_key_rejected(self):
        # a kind change replaces the block, so it must carry every key of the new kind
        with pytest.raises(ConfigError, match="model.encoder.hidden_dim"):
            expand({"profile": "synthetic", "model": {"encoder": {"kind": "sentence", "input_dim": 16}}})

    @pytest.mark.parametrize("mode", ["supplied", "learned"])
    def test_mention_feature_mode_other_than_zeros_rejected(self, mode):
        # example records carry no hand features, so the CLI could not feed these modes
        with pytest.raises(ConfigError, match="feature_mode must be 'zeros'.*no hand features"):
            expand({"profile": "typing", "model": {"encoder": {"feature_mode": mode}}})


class TestLoadConfig:
    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="no/such/config.json"):
            load_config("no/such/config.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(p))

    def test_seed_override_applies_before_echo(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"profile": "synthetic", "seed": 5}))
        assert load_config(str(p))["seed"] == 5
        assert load_config(str(p), seed_override=9)["seed"] == 9

    def test_canonical_json_is_stable(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b == '{"a":[1,2],"b":1}'
