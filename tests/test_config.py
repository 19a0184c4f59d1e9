"""Profile expansion and config validation."""

import ast
import hashlib
import json
import re
from pathlib import Path

import pytest

import kgzsl
from kgzsl import autodiff as ad
from kgzsl import kg
from kgzsl.config import (
    PROFILES, canonical_json, encoder_output_dim, expand, load_config, read_json, write_output,
)
from kgzsl.errors import ConfigError, DataError, ParseError
from kgzsl.evaluation import FoldSpec


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
        # an int past the float range would overflow to inf in the first update
        for key in ("lr", "weight_decay"):
            for value in (float("nan"), float("inf"), 10**400):
                with pytest.raises(ConfigError, match=f"optimizer.{key}"):
                    expand({"profile": "synthetic", "optimizer": {key: value}})

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError, match="dims"):
            expand({"profile": "synthetic", "model": {"dims": [16, 0], "hop_limits": [8, 8]}})

    def test_vision_profile_skips_rank_check(self):
        # l2 head has no rank; dims 2048 -> 2049 append a bias slot
        cfg = expand({"profile": "vision"})
        assert cfg["model"]["head"] == "l2"
        assert cfg["model"]["dims"] == [2048, 2049]

    def test_l2_head_rejects_multilabel(self):
        # an l2 head predicts one class, which never equals a gold label set
        with pytest.raises(ConfigError, match="model.loss_mode"):
            expand({"profile": "vision", "model": {"loss_mode": "multilabel"}})

    @pytest.mark.parametrize("profile", ["vision", "synthetic"])
    @pytest.mark.parametrize("mode", ["foo", "", None, ["multiclass"]])
    def test_unknown_loss_mode_rejected(self, profile, mode):
        with pytest.raises(ConfigError, match="model.loss_mode"):
            expand({"profile": profile, "model": {"loss_mode": mode}})

    @pytest.mark.parametrize("key", ["aggregator", "activation"])
    @pytest.mark.parametrize("name", ["foo", "swish", "", None, ["gcn"]])
    def test_unknown_aggregator_and_activation_rejected(self, key, name):
        with pytest.raises(ConfigError, match=f"model.{key} must be one of") as err:
            expand({"profile": "synthetic", "model": {key: name}})
        # the message lists what is allowed
        assert ("transformer" if key == "aggregator" else "leaky_relu") in str(err.value)

    @pytest.mark.parametrize("key, value", [("feature_dim", 60), ("feature_mode", "zeros")])
    def test_removed_mention_feature_keys_rejected(self, key, value):
        # examples carry no hand features, so the mention encoder has no slot for them
        with pytest.raises(ConfigError, match=f"model.encoder.{key}"):
            expand({"profile": "typing", "model": {"encoder": {key: value}}})

    @pytest.mark.parametrize("value", [False, True, "no", "yes", 1, None])
    def test_removed_ingest_bidirectional_rejected(self, value):
        # the graph is undirected, so adding each edge's reverse changed nothing it computes
        with pytest.raises(ConfigError, match="unknown config key 'ingest.bidirectional'"):
            expand({"profile": "synthetic", "ingest": {"bidirectional": value}})

    def test_mention_encoder_output_dim(self):
        cfg = expand({"profile": "typing"})
        assert encoder_output_dim(cfg["model"]["encoder"]) == 2 * 100 + 300

    def test_unknown_encoder_key_rejected(self):
        with pytest.raises(ConfigError, match="model.encoder.typo_key"):
            expand({"profile": "typing", "model": {"encoder": {"typo_key": 1}}})

    def test_missing_encoder_key_rejected(self):
        # a kind change replaces the block, so it must carry every key of the new kind
        with pytest.raises(ConfigError, match="model.encoder.hidden_dim"):
            expand({"profile": "synthetic", "model": {"encoder": {"kind": "sentence", "input_dim": 16}}})

    @pytest.mark.parametrize("value", [3, "vector", ["vector"], None])
    def test_encoder_that_is_not_an_object_names_the_key(self, value):
        with pytest.raises(ConfigError, match="config key 'model.encoder' must be an object"):
            expand({"profile": "intent", "model": {"encoder": value}})


SENTENCE = {"kind": "sentence", "input_dim": 4, "hidden_dim": 3, "attn_dim": 2}
MENTION = {"kind": "mention", "input_dim": 4, "hidden_dim": 2, "attn_dim": 2, "window": 0}


class TestRulesOfTheConfigAlone:
    """Rules that an expanded config decides by itself are judged when it loads."""

    @pytest.mark.parametrize("encoder", [SENTENCE, MENTION, {"kind": "vector", "input_dim": 8}],
                             ids=["sentence", "mention", "vector-8"])
    def test_generated_world_needs_a_vector_encoder_of_the_feature_width(self, encoder):
        raw = {"profile": "synthetic", "model": {"rank": 2, "encoder": encoder}}
        with pytest.raises(ConfigError, match="model.encoder must be"):
            expand(raw)
        # a file-backed run reads its examples, so any encoder fits it
        expand({**raw, "paths": {"graph": "g.tsv"}})

    def test_generated_world_encoder_follows_synth_feature_dim(self):
        cfg = expand({"profile": "synthetic", "model": {"rank": 2, "encoder": {"input_dim": 6}},
                      "synth": {"feature_dim": 6}})
        assert cfg["model"]["encoder"] == {"kind": "vector", "input_dim": 6}

    @pytest.mark.parametrize("theta", [4, 6, 8], ids=["vector", "vector-6", "vector-8"])
    def test_l2_head_needs_the_encoder_width_or_one_more(self, theta):
        def l2(end):
            encoder = {"kind": "vector", "input_dim": theta}
            return {"profile": "vision", "model": {"dims": [4, end], "encoder": encoder}}
        for end in (theta, theta + 1):
            assert expand(l2(end))["model"]["dims"] == [4, end]
        for end in (theta - 1, theta + 2, theta + 5):
            with pytest.raises(ConfigError, match=rf"model\.dims must end in {theta} or {theta + 1}"):
                expand(l2(end))

    @pytest.mark.parametrize("encoder, theta", [(SENTENCE, 6), (MENTION, 8)], ids=["sentence", "mention"])
    def test_l2_head_refuses_a_text_encoder(self, encoder, theta):
        # train_l2 fits only the class encoder, so a text encoder would be saved untrained;
        # the refusal comes before the width rule, whatever the stack ends in
        for end in (theta, theta + 1, theta + 3):
            with pytest.raises(ConfigError, match=r"^model\.encoder\.kind must be 'vector' for an l2 head"):
                expand({"profile": "vision", "model": {"dims": [4, end], "encoder": encoder}})
        # the same encoder under a bilinear head is accepted
        expand({"profile": "vision",
                "model": {"head": "bilinear", "rank": 2, "dims": [4, 4], "encoder": encoder}})

    @pytest.mark.parametrize("value", [0, -3, "3"])
    @pytest.mark.parametrize("key", ["steps", "restarts"])
    def test_sampler_errors_name_their_key(self, key, value):
        with pytest.raises(ConfigError, match=rf"^sampler\.{key} must be"):
            expand({"profile": "intent", "sampler": {key: value}})

    @pytest.mark.parametrize("value", ["x", True, 1.5])
    def test_seed_error_names_the_top_level_key(self, value):
        with pytest.raises(ConfigError, match=rf"^seed must be an integer, got {re.escape(repr(value))}$"):
            expand({"profile": "intent", "seed": value})

    @pytest.mark.parametrize("synth, match", [
        ({"num_classes": 1}, r"^synth\.num_classes must be at least 2$"),
        ({"noise": -0.5}, r"^synth\.noise must be non-negative and finite"),
        ({"examples_per_class": 0}, r"^synth\.examples_per_class must be at least 1$"),
        ({"attrs_per_class": 21}, r"^synth\.attrs_per_class 21 exceeds attribute_pool 20$"),
        ({"num_unseen": 6, "num_dev": 4}, r"^synth\.num_unseen 6 \+ num_dev 4 leave no training classes"),
        ({"relation_structure": True, "attrs_per_class": 3}, r"^synth\.relation_structure .* must be even$"),
    ])
    @pytest.mark.parametrize("paths", [{}, {"graph": "g.tsv"}], ids=["generated", "file-backed"])
    def test_synth_block_is_judged_by_its_spec(self, synth, match, paths):
        with pytest.raises(ConfigError, match=match):
            expand({"profile": "synthetic", "synth": synth, "paths": paths})


def _override(path, value, profile="synthetic"):
    """A config override setting the dotted `path` to `value`."""
    *parents, leaf = path.split(".")
    out = {leaf: value}
    for key in reversed(parents):
        out = {key: out}
    return {"profile": profile, **out}


class TestTypes:
    # bool is an int subclass: "seed": true would name every stream "True"
    @pytest.mark.parametrize("value", [True, 1.0, "3"])
    @pytest.mark.parametrize("path", [
        "seed", "sampler.steps", "sampler.restarts", "optimizer.epochs",
        "optimizer.batch_size", "model.rank", "synth.attribute_pool",
        "synth.num_classes", "synth.num_unseen", "synth.num_dev", "synth.attrs_per_class",
        "synth.feature_dim", "synth.examples_per_class",
    ])
    def test_integer_keys_reject_non_integers(self, path, value):
        with pytest.raises(ConfigError, match=path.split(".")[-1]):
            expand(_override(path, value))

    @pytest.mark.parametrize("value", [True, 1.0, "3"])
    @pytest.mark.parametrize("path", ["model.dims", "model.hop_limits"])
    def test_integer_lists_reject_non_integers(self, path, value):
        with pytest.raises(ConfigError, match=path.split(".")[-1].split("_")[0]):
            expand(_override(path, [16, value]))

    @pytest.mark.parametrize("value", [True, "0.1"])
    @pytest.mark.parametrize("path", ["optimizer.lr", "optimizer.weight_decay", "synth.noise"])
    def test_real_keys_reject_non_numbers(self, path, value):
        with pytest.raises(ConfigError, match=path.split(".")[-1]):
            expand(_override(path, value))

    # a mention encoder block has every encoder key; bool is an int, but true is no width
    @pytest.mark.parametrize("value", [True, 2.5, "3", 0, -2])
    @pytest.mark.parametrize("path", [
        "model.num_bases", "model.encoder.input_dim", "model.encoder.hidden_dim",
        "model.encoder.attn_dim",
    ])
    def test_positive_integer_keys_reject_others(self, path, value):
        with pytest.raises(ConfigError, match=path):
            expand(_override(path, value, profile="typing"))

    @pytest.mark.parametrize("value", [True, 2.5, "3", -1])
    def test_window_is_a_non_negative_integer(self, value):
        with pytest.raises(ConfigError, match="model.encoder.window"):
            expand(_override("model.encoder.window", value, profile="typing"))
        cfg = expand(_override("model.encoder.window", 0, profile="typing"))
        assert cfg["model"]["encoder"]["window"] == 0

    @pytest.mark.parametrize("value", ["no", "yes", 1, None])
    @pytest.mark.parametrize("path", ["synth.relation_structure"])
    def test_bool_keys_reject_non_bools(self, path, value):
        with pytest.raises(ConfigError, match=path):
            expand(_override(path, value))

    # an integer path would open the inherited file descriptor of that number
    @pytest.mark.parametrize("value", [True, 1, ["g.tsv"]])
    @pytest.mark.parametrize("path", [
        "ingest.lang", "paths.graph", "paths.embeddings", "paths.examples", "paths.fold_spec",
        "paths.checkpoint", "paths.checkpoint_dir",
    ])
    def test_string_keys_take_a_string_or_null(self, path, value):
        with pytest.raises(ConfigError, match=path):
            expand(_override(path, value))
        block, key = path.split(".")
        assert expand(_override(path, "x"))[block][key] == "x"

    @pytest.mark.parametrize("path,value", [
        ("optimizer.lr", 1), ("optimizer.lr", 0.5), ("optimizer.weight_decay", 0),
    ])
    def test_real_keys_take_ints_and_floats(self, path, value):
        assert expand(_override(path, value))["optimizer"][path.split(".")[1]] == value


class TestLoadConfig:
    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="no/such/config.json"):
            load_config("no/such/config.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(p))

    def test_directory_is_config_error_naming_path(self, tmp_path):
        with pytest.raises(ConfigError, match=f"config file {re.escape(str(tmp_path))} is a directory"):
            load_config(str(tmp_path))

    def test_read_json_raises_the_callers_error_for_a_missing_file(self, tmp_path):
        path = tmp_path / "gone.json"
        with pytest.raises(ParseError, match=f"^examples file {re.escape(str(path))} not found$"):
            read_json(path, ParseError, "examples file")

    def test_infinity_literal_is_config_error(self, tmp_path):
        # json.load reads Infinity, so the check lives in validate
        p = tmp_path / "c.json"
        p.write_text('{"profile": "synthetic", "optimizer": {"lr": Infinity}}')
        with pytest.raises(ConfigError, match="optimizer.lr"):
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


def _load_checkpoint(path):
    """The values of a one-parameter checkpoint stored under model hash "ab", read by `load_into`."""
    params = {"w": ad.Tensor([0.0], requires_grad=True)}
    ad.load_into(params, path, "ab")
    return params["w"].data.tolist()


def _embeddings(path):
    emb = kg.EmbeddingTable.from_file(path)
    return emb.dimension, [emb.lookup(t).tolist() for t in ("alpha", "beta")]


# each input role: its reader, the error it raises, the role word its messages
# start with, and a file it reads
READERS = {
    "config": (load_config, ConfigError, "config file", '{"profile": "synthetic", "seed": 1}'),
    "graph": (kg.ingest, ParseError, "graph file", "has\tcls/alpha\tattr/red\n"),
    "embeddings": (_embeddings, ParseError, "embeddings file", "alpha 1 0\nbeta 0 1\n"),
    "examples": (lambda path: read_json(path, ParseError, "examples file"), ParseError, "examples file",
                 '{"train": [{"vector": [1, 0], "label": "cls/alpha"}]}'),
    "fold_spec": (FoldSpec.load, ParseError, "fold spec",
                  '{"folds": [{"train": ["cls/alpha"], "test": ["cls/gamma"]}]}'),
    "checkpoint": (_load_checkpoint, DataError, "checkpoint",
                   '{"model_sha256": "ab", "w": {"data": "AAAAAAAAAEA=", "shape": [1]}}'),
}


PACKAGE = sorted(Path(kgzsl.__file__).parent.glob("*.py"))


def _file_calls(names, paths):
    """(callee, whether its mode writes, (module, enclosing function), line) of each
    call by one of `names` in the given Python files."""
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in names:
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            writes = isinstance(mode, ast.Constant) and bool(set(str(mode.value)) & set("wax+"))
            func = node
            while not isinstance(func, (ast.FunctionDef, ast.Module)):
                func = parents[func]
            yield name, writes, (path.name, getattr(func, "name", None)), node.lineno


class TestNoUnusedImports:
    def test_every_import_is_used(self):
        """Each name a package or test module imports is read somewhere in that module."""
        unused = []
        for path in PACKAGE + sorted(Path(__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.asname or a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    names = [a.asname or a.name for a in node.names]
                else:
                    continue
                unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
        assert unused == []


class TestOpenInput:
    """Every input role is opened by `open_input`, and fails the same ways."""

    # each way an input can be unusable, and the words its error says it with
    KIND_WORDS = {
        "missing": "not found",
        "directory": "is a directory, not a file",
        "under-file": "cannot be opened",
        "nul": "cannot be opened",
        "long-name": "cannot be opened",
        "not-utf8": "is not UTF-8",
    }

    @pytest.mark.parametrize("kind", sorted(KIND_WORDS))
    @pytest.mark.parametrize("role", sorted(READERS))
    def test_unusable_input_names_role_and_path(self, tmp_path, role, kind):
        read, error, what, text = READERS[role]
        (tmp_path / "plain.txt").write_text(text)
        path = {
            "missing": tmp_path / "gone",
            "directory": tmp_path,
            "under-file": tmp_path / "plain.txt" / "x",
            "nul": f"{tmp_path}/a\0b",
            "long-name": tmp_path / ("n" * 300),
            "not-utf8": tmp_path / "bad",
        }[kind]
        if kind == "not-utf8":
            path.write_bytes(text.encode("utf-8") + b"\xff")
        with pytest.raises(error) as err:
            read(path)
        assert f"{what} {path} {self.KIND_WORDS[kind]}" in str(err.value)

    @pytest.mark.parametrize("role", sorted(READERS))
    def test_leading_bom_reads_as_without(self, tmp_path, role):
        read, _, _, text = READERS[role]
        plain, bom = tmp_path / "plain", tmp_path / "bom"
        plain.write_text(text, encoding="utf-8")
        bom.write_text("\ufeff" + text, encoding="utf-8")
        assert read(bom) == read(plain)

    def test_open_input_is_the_only_reader(self):
        """No module opens a file for reading but `open_input`; a write-mode open is no reader."""
        readers, strays = [], []
        for name, writes, where, line in _file_calls(
                ("open", "read_text", "read_bytes", "fromfile", "loadtxt", "genfromtxt"), PACKAGE):
            if name == "open" and writes:
                continue
            (readers if where == ("config.py", "open_input") else strays).append(f"{where[0]}:{line} in {where[1]}")
        assert strays == []
        assert len(readers) == 1


# each artifact writer, called on one path
WRITERS = {
    "write_output": lambda path: write_output(path, "x\n"),
    "serialize": lambda path: kg.serialize(kg.Graph([("r", "a", "b")]), path),
    "save_checkpoint": lambda path: ad.save_checkpoint({"w": ad.Tensor([1.0], requires_grad=True)}, path, "ab"),
}


class TestWriteOutput:
    """Every artifact is written by `write_output`, and fails the same ways."""

    # each way an output path can be unwritable, and the words its error says it with
    KIND_WORDS = {
        "directory": "is a directory, not a file",
        "under-file": "cannot be written",
        "nul": "cannot be written",
        "long-name": "cannot be written",
        "missing-parent": "cannot be written",
    }

    @pytest.mark.parametrize("kind", sorted(KIND_WORDS))
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_unwritable_output_names_path(self, tmp_path, writer, kind):
        (tmp_path / "plain.txt").write_text("")
        path = {
            "directory": tmp_path,
            "under-file": tmp_path / "plain.txt" / "x",
            "nul": f"{tmp_path}/a\0b",
            "long-name": tmp_path / ("n" * 300),
            "missing-parent": tmp_path / "gone" / "x",
        }[kind]
        with pytest.raises(ConfigError) as err:
            WRITERS[writer](path)
        assert f"output {path} {self.KIND_WORDS[kind]}" in str(err.value)

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_returns_the_sha256_of_the_bytes_written(self, tmp_path, writer):
        path = tmp_path / "out"
        assert WRITERS[writer](path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_text_is_written_as_utf8_without_newline_translation(self, tmp_path):
        path = tmp_path / "out"
        write_output(path, "f\u00eate\r\nno\u00ebl\n")
        assert path.read_bytes() == "f\u00eate\r\nno\u00ebl\n".encode("utf-8")

    def test_write_output_is_the_only_writer(self):
        """No module opens a file in a write mode, or writes one another way, but `write_output`."""
        writers = [(where, line) for name, writes, where, line
                   in _file_calls(("open", "write_text", "write_bytes", "tofile", "savetxt"), PACKAGE)
                   if writes or name != "open"]
        assert [where for where, _ in writers] == [("config.py", "write_output")], writers


class TestPipelineIsTheOnlyPath:
    """Models are built, trained and scored in `pipeline.py`, which the acceptance suite runs."""

    BUILDS = ("GnnStack", "BilinearHead", "VectorEncoder", "SentenceEncoder", "MentionEncoder")
    RUNS = ("train_bilinear", "train_l2", "predict", "class_representations")

    def test_only_pipeline_builds_and_runs_models(self):
        found, strays = set(), []
        for name, _, where, line in _file_calls(self.BUILDS + self.RUNS, PACKAGE):
            found.add(name)
            if where[0] != "pipeline.py":
                strays.append(f"{where[0]}:{line} calls {name}")
        assert strays == []
        # the sentence and mention encoders are built through one name
        assert found == set(self.BUILDS + self.RUNS) - {"SentenceEncoder", "MentionEncoder"}

    def test_acceptance_suite_runs_no_copy(self):
        acceptance = Path(__file__).with_name("test_acceptance.py")
        assert [f"line {line} calls {name}" for name, _, _, line in _file_calls(self.RUNS, [acceptance])] == []
