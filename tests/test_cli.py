"""End-to-end runs of every subcommand through cli.main.

main() returns the exit code instead of raising, so each case asserts
on the code plus the artifacts left in the output directory.
"""

import ast
import base64
import hashlib
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from kgzsl import autodiff as ad
from kgzsl import config as cfgmod
from kgzsl import pipeline
from kgzsl.cli import main
from kgzsl.kg import EmbeddingTable


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def synth_cfg(tmp_path):
    return write(tmp_path / "cfg.json", {
        "profile": "synthetic",
        "seed": 3,
        "optimizer": {"epochs": 2},
        "synth": {"examples_per_class": 20},
    })


def run(*argv):
    return main(list(argv))


class TestSynth:
    def test_writes_world_and_manifest(self, synth_cfg, tmp_path):
        out = tmp_path / "w"
        assert run("synth", "--config", synth_cfg, "--out", str(out)) == 0
        for name in ("graph.tsv", "features.json", "examples.json",
                     "fold_spec.json", "summary.json", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["optimizer"]["epochs"] == 2
        assert set(manifest["artifacts"]) == {
            "graph.tsv", "features.json", "examples.json", "fold_spec.json",
            "summary.json",
        }

    def test_rerun_reproduces_hashes(self, synth_cfg, tmp_path):
        run("synth", "--config", synth_cfg, "--out", str(tmp_path / "a"))
        run("synth", "--config", synth_cfg, "--out", str(tmp_path / "b"))
        a = json.loads((tmp_path / "a/manifest.json").read_text())
        b = json.loads((tmp_path / "b/manifest.json").read_text())
        assert a["artifacts"] == b["artifacts"]
        assert a["config_hash"] == b["config_hash"]

    def test_seed_flag_overrides_config(self, synth_cfg, tmp_path):
        out = tmp_path / "w"
        run("synth", "--config", synth_cfg, "--seed", "9", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["config"]["seed"] == 9

    @pytest.mark.parametrize("source", ["--out", "paths.checkpoint_dir"])
    def test_output_dir_that_is_a_file_names_source(self, tmp_path, capsys, source):
        plain = tmp_path / "plain.txt"
        plain.write_text("")
        cfg = {"profile": "synthetic", "synth": {"examples_per_class": 20}}
        argv = ["--out", str(plain)] if source == "--out" else []
        if source == "paths.checkpoint_dir":
            cfg["paths"] = {"checkpoint_dir": str(plain)}
        assert run("synth", "--config", write(tmp_path / "cfg.json", cfg), *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{source} {plain} cannot be made a directory" in err


class TestTrainEval:
    def test_train_then_eval_round_trip(self, synth_cfg, tmp_path):
        run_dir = tmp_path / "run"
        assert run("train", "--config", synth_cfg, "--out", str(run_dir)) == 0
        assert (run_dir / "checkpoint.json").exists()
        log = json.loads((run_dir / "train_log.json").read_text())
        assert len(log["log"]) == 2

        eval_cfg = write(tmp_path / "eval.json", {
            "profile": "synthetic",
            "seed": 3,
            "optimizer": {"epochs": 2},
            "synth": {"examples_per_class": 20},
            "paths": {"checkpoint": str(run_dir / "checkpoint.json")},
        })
        out = tmp_path / "ev"
        assert run("eval", "--config", eval_cfg, "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"per_fold", "micro", "macro"}
        assert 0.0 <= metrics["micro"] <= 1.0
        assert metrics["per_fold"][0]["n"] == 4 * 20

    def test_l2_head_train_then_eval_round_trip(self, tmp_path):
        base = {
            "profile": "synthetic",
            "seed": 3,
            "model": {"head": "l2"},
            "optimizer": {"epochs": 3},
            "synth": {"examples_per_class": 20},
        }
        run_dir = tmp_path / "run"
        assert run("train", "--config", write(tmp_path / "cfg.json", base), "--out", str(run_dir)) == 0
        log = json.loads((run_dir / "train_log.json").read_text())
        assert len(log["log"]) == 3
        ckpt = json.loads((run_dir / "checkpoint.json").read_text())
        assert {name.split("/")[0] for name in ckpt if name != ad.MODEL_HASH} == {"gnn"}

        eval_cfg = write(tmp_path / "eval.json", {
            **base, "paths": {"checkpoint": str(run_dir / "checkpoint.json")},
        })
        out = tmp_path / "ev"
        assert run("eval", "--config", eval_cfg, "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["per_fold"][0]["n"] == 4 * 20
        assert 0.0 <= metrics["micro"] <= 1.0

    def test_eval_records_no_tape(self, synth_cfg, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        assert run("train", "--config", synth_cfg, "--out", str(run_dir)) == 0
        grad_enabled = []

        def recording_predict(*args, **kwargs):
            grad_enabled.append(ad._grad_enabled)
            return predict(*args, **kwargs)

        predict = pipeline.predict
        monkeypatch.setattr(pipeline, "predict", recording_predict)
        eval_cfg = write(tmp_path / "eval.json", {
            "profile": "synthetic",
            "seed": 3,
            "synth": {"examples_per_class": 20},
            "paths": {"checkpoint": str(run_dir / "checkpoint.json")},
        })
        assert run("eval", "--config", eval_cfg, "--out", str(tmp_path / "ev")) == 0
        assert len(grad_enabled) == 4 * 20
        assert not any(grad_enabled)

    def test_train_is_bitwise_reproducible(self, synth_cfg, tmp_path):
        run("train", "--config", synth_cfg, "--out", str(tmp_path / "a"))
        run("train", "--config", synth_cfg, "--out", str(tmp_path / "b"))
        for name in ("checkpoint.json", "train_log.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("aggregator", ["gcn", "gat", "rgcn", "lstm"])
    def test_every_aggregator_trains_and_evaluates_reproducibly(self, tmp_path, aggregator):
        # one dev class, so each epoch also runs the dev encode; relation
        # structure gives the rgcn layers more than one relation
        base = {"profile": "synthetic", "seed": 3, "model": {"aggregator": aggregator},
                "optimizer": {"epochs": 2},
                "synth": {"examples_per_class": 10, "num_dev": 1, "relation_structure": True}}
        metrics = []
        for name in ("a", "b"):
            run_dir = tmp_path / name
            assert run("train", "--config", write(tmp_path / "train.json", base), "--out", str(run_dir)) == 0
            eval_cfg = {**base, "paths": {"checkpoint": str(run_dir / "checkpoint.json")}}
            assert run("eval", "--config", write(tmp_path / "eval.json", eval_cfg), "--out", str(run_dir)) == 0
            metrics.append((run_dir / "metrics.json").read_bytes())
        for name in ("checkpoint.json", "train_log.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        log = json.loads((tmp_path / "a" / "train_log.json").read_text())["log"]
        assert len(log) == 2 and all(isinstance(e["dev_loss"], float) for e in log)
        assert metrics[0] == metrics[1]

    def test_l2_head_with_dev_classes_trains_reproducibly_and_evaluates(self, tmp_path):
        # one dev class, so each epoch of train_l2 scores the dev targets
        base = {"profile": "synthetic", "seed": 0, "model": {"head": "l2", "dims": [16, 17]},
                "optimizer": {"epochs": 2}, "synth": {"num_dev": 1, "examples_per_class": 10}}
        for name in ("a", "b"):
            assert run("train", "--config", write(tmp_path / "train.json", base),
                       "--out", str(tmp_path / name)) == 0
        for name in ("checkpoint.json", "train_log.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        log = json.loads((tmp_path / "a" / "train_log.json").read_text())["log"]
        assert len(log) == 2
        assert all(isinstance(e["dev_loss"], float) and math.isfinite(e["dev_loss"]) for e in log)
        eval_cfg = {**base, "paths": {"checkpoint": str(tmp_path / "a" / "checkpoint.json")}}
        assert run("eval", "--config", write(tmp_path / "eval.json", eval_cfg), "--out", str(tmp_path / "ev")) == 0
        metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        assert metrics["per_fold"][0]["n"] == 4 * 10

    def test_eval_needs_checkpoint_path(self, synth_cfg, tmp_path):
        assert run("eval", "--config", synth_cfg, "--out", str(tmp_path / "x")) == 1

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_generated_world_rejects_multilabel(self, tmp_path, capsys, command):
        # every generated example has one label: a multilabel run would score label characters
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text("{}")
        cfg = write(tmp_path / "cfg.json", {
            "profile": "synthetic",
            "model": {"loss_mode": "multilabel"},
            "synth": {"examples_per_class": 20},
            "paths": {"checkpoint": str(ckpt)},
        })
        assert run(command, "--config", cfg, "--out", str(tmp_path / "x")) == 1
        assert "model.loss_mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unknown_loss_mode_is_config_error(self, tmp_path, capsys, command):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text("{}")
        cfg = write(tmp_path / "cfg.json", {
            "profile": "synthetic",
            "model": {"loss_mode": "foo"},
            "synth": {"examples_per_class": 20},
            "paths": {"checkpoint": str(ckpt)},
        })
        assert run(command, "--config", cfg, "--out", str(tmp_path / "x")) == 1
        assert "model.loss_mode" in capsys.readouterr().err

    def test_eval_rejects_fold_testing_a_dev_class(self, tmp_path, capsys):
        # train picks its epoch by the dev classes' loss: they are not zero-shot classes
        base = {"profile": "synthetic", "synth": {"examples_per_class": 20, "num_dev": 2}}
        assert run("synth", "--config", write(tmp_path / "s.json", base), "--out", str(tmp_path / "w")) == 0
        fold = json.loads((tmp_path / "w" / "fold_spec.json").read_text())["folds"][0]
        dev = fold["dev"][0]
        folds = write(tmp_path / "folds.json", {"folds": [
            fold, {"train": fold["train"], "dev": [], "test": [dev]},
        ]})
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text("{}")
        cfg = write(tmp_path / "cfg.json", {**base, "paths": {"checkpoint": str(ckpt), "fold_spec": folds}})
        assert run("eval", "--config", cfg, "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fold 1" in err and repr(dev) in err and "dev" in err

    def test_empty_test_fold_is_config_error(self, tmp_path):
        fold = write(tmp_path / "folds.json",
                     {"folds": [{"train": ["class/0"], "dev": [], "test": []}]})
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text("{}")
        cfg = write(tmp_path / "cfg.json", {
            "profile": "synthetic",
            "synth": {"examples_per_class": 20},
            "paths": {"checkpoint": str(ckpt), "fold_spec": fold},
        })
        assert run("eval", "--config", cfg, "--out", str(tmp_path / "x")) == 1

    def test_each_fold_binding_holds_only_its_own_plan(self, tmp_path, monkeypatch):
        base = {"profile": "synthetic", "seed": 3, "optimizer": {"epochs": 1},
                "synth": {"examples_per_class": 10}}
        cfg = cfgmod.expand(base)
        model, _ = pipeline.train(cfg)
        classes = pipeline.synth_world(cfg).classes
        unseen = sorted(classes.unseen)
        folds = write(tmp_path / "folds.json", {"folds": [
            {"train": list(classes.seen), "dev": [], "test": part} for part in (unseen[:2], unseen[2:])
        ]})
        world = pipeline.eval_world(cfgmod.expand({**base, "paths": {"fold_spec": folds}}))
        bindings = []

        def recording(bound, ids, **kwargs):
            bindings.append((bound, sorted(ids)))
            return class_representations(bound, ids, **kwargs)

        class_representations = pipeline.class_representations
        monkeypatch.setattr(pipeline, "class_representations", recording)
        per_fold = pipeline.evaluate(cfg, model, world).to_jsonable()
        (first, _), (second, _) = bindings
        assert first is not second and first.hits is second.hits
        for bound, ids in bindings:
            assert [list(roots) for roots, _ in bound._plans] == [ids]
        # one binding for every fold, as before, scores the same
        shared = model[0].rebind(world[0], world[1], first.hits)
        monkeypatch.setattr(type(model[0]), "rebind", lambda self, graph, features, hits: shared)
        assert pipeline.evaluate(cfg, model, world).to_jsonable() == per_fold
        assert len(shared._plans) == 2


class TestGoldenDigests:
    """`train` + `eval`, and `synth`, `ingest` + `sample`, write the same bytes as they did
    when these digests were taken, so a change that moves any of them names itself here."""

    # model overrides, and the sha256 of each artifact at seed 0, 2 epochs, 20 examples per class
    RUNS = {
        "bilinear": ({}, {
            "checkpoint.json": "b8cde65e9c8d4e8a3b171ed74c7bb0bafb822158bdb2dcb360cfd6cbb6388793",
            "train_log.json": "ff586f9aaaad5bd3c6cf916aca886c161a669196a6c435f79689c2a03436f95b",
            "metrics.json": "1bf76ca4329825e28d970c62a9074e16a6489ebb307a4cfbc1b290b113dae343",
        }),
        "l2": ({"head": "l2", "dims": [16, 17]}, {
            "checkpoint.json": "6845e0afea27bd82438b2c12b89305f265da71ab334be71d8670ca533cd99a3f",
            "train_log.json": "c28cf56edd243adad384c7597de860f756907efeedcb0cb7ad3f649427039c4a",
            "metrics.json": "c02c562fd091f1f8ca3ef9dbe811d7039652e9a92da1bb94944ddcf7377a9b81",
        }),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_train_and_eval_bytes(self, tmp_path, name):
        model, digests = self.RUNS[name]
        base = {"profile": "synthetic", "seed": 0, "model": model,
                "optimizer": {"epochs": 2}, "synth": {"examples_per_class": 20}}
        run_dir = tmp_path / "run"
        assert run("train", "--config", write(tmp_path / "train.json", base), "--out", str(run_dir)) == 0
        eval_cfg = write(tmp_path / "eval.json", {**base, "paths": {"checkpoint": str(run_dir / "checkpoint.json")}})
        assert run("eval", "--config", eval_cfg, "--out", str(run_dir)) == 0
        got = {n: hashlib.sha256((run_dir / n).read_bytes()).hexdigest() for n in digests}
        assert got == digests

    # the sha256 of each artifact at seed 0 of synth, then of ingest and sample over synth's graph.tsv
    SAMPLING = {
        "synth": {
            "examples.json": "2e65eeec2af6793ec014d58c07074504c9a6989d6d28e0026149af3b8f0b35cf",
            "features.json": "7eb3ced43ed5e6b614d30b2773287d8c97ef6c7ce636b0a520e28203ed584548",
            "fold_spec.json": "ba46324685fa53d0a8f58320cd115918626ce01d0be65b6700b8ea1d96a1c4ef",
            "graph.tsv": "abbacb4e6c012c438826c00012e78cce307902a58c2e16b59579486bbfc202a1",
            "summary.json": "568aab488c713248db923dc16c0041b0f10fd98676c383b21a808d1b0ba43ffd",
        },
        "ingest": {"graph.tsv": "abbacb4e6c012c438826c00012e78cce307902a58c2e16b59579486bbfc202a1"},
        "sample": {"hits.json": "526cdb25bca3ce9dddc4f8e21be4978792fbdc8e847ea614a80b8e35d6f107f7"},
    }

    def test_synth_ingest_and_sample_bytes(self, tmp_path):
        base = {"profile": "synthetic", "seed": 0}
        assert run("synth", "--config", write(tmp_path / "synth.json", base), "--out", str(tmp_path / "synth")) == 0
        graph = write(tmp_path / "graph.json", {**base, "paths": {"graph": str(tmp_path / "synth" / "graph.tsv")}})
        for command in ("ingest", "sample"):
            assert run(command, "--config", graph, "--out", str(tmp_path / command)) == 0
        got = {
            command: {n: hashlib.sha256((tmp_path / command / n).read_bytes()).hexdigest() for n in names}
            for command, names in self.SAMPLING.items()
        }
        assert got == self.SAMPLING


class TestBadCheckpoint:
    """A checkpoint that does not fit the model, or holds a NaN, is bad input to `eval`."""

    BASE = {"profile": "synthetic", "optimizer": {"epochs": 1}, "synth": {"examples_per_class": 10}}

    @pytest.fixture(scope="class")
    def ckpt(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("run")
        cfg = write(run_dir / "cfg.json", self.BASE)
        assert run("train", "--config", cfg, "--out", str(run_dir)) == 0
        return run_dir / "checkpoint.json"

    def _eval(self, tmp_path, ckpt, model=None):
        cfg = write(tmp_path / "eval.json", {
            **self.BASE, "model": model or {}, "paths": {"checkpoint": str(ckpt)},
        })
        return run("eval", "--config", cfg, "--out", str(tmp_path / "ev"))

    def test_non_finite_value_names_parameter_and_path(self, ckpt, tmp_path, capsys):
        obj = json.loads(ckpt.read_text())
        rec = obj["gnn/layer0/transformer/F1"]
        values = np.frombuffer(base64.b64decode(rec["data"]), dtype="<f8").copy()
        values[0] = float("nan")
        rec["data"] = base64.b64encode(values.tobytes()).decode("ascii")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(obj))
        assert self._eval(tmp_path, bad) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "gnn/layer0/transformer/F1" in err
        assert not (tmp_path / "ev" / "metrics.json").exists()

    def test_truncated_file_names_path(self, ckpt, tmp_path, capsys):
        bad = tmp_path / "cut.json"
        bad.write_text(ckpt.read_text()[:500])
        assert self._eval(tmp_path, bad) == 1
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("model", [{"dims": [16, 12]}, {"aggregator": "gcn"}], ids=["dims", "gcn"])
    def test_checkpoint_of_another_model_config(self, ckpt, tmp_path, capsys, model):
        assert self._eval(tmp_path, ckpt, model) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ckpt) in err

    def test_clean_checkpoint_evaluates(self, ckpt, tmp_path):
        assert self._eval(tmp_path, ckpt) == 0

    def test_checkpoint_stores_its_model_block_hash(self, ckpt):
        manifest = json.loads((ckpt.parent / "manifest.json").read_text())
        model = cfgmod.canonical_json(manifest["config"]["model"]).encode("utf-8")
        assert json.loads(ckpt.read_text())[ad.MODEL_HASH] == hashlib.sha256(model).hexdigest()

    def test_checkpoint_of_another_activation(self, ckpt, tmp_path, capsys):
        # every parameter still fits in name and shape; only the model hash tells
        assert self._eval(tmp_path, ckpt, {"activation": "tanh"}) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(ckpt) in err and "another model config" in err
        assert not (tmp_path / "ev" / "metrics.json").exists()

    def test_checkpoint_without_model_hash(self, ckpt, tmp_path, capsys):
        obj = json.loads(ckpt.read_text())
        del obj[ad.MODEL_HASH]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(obj))
        assert self._eval(tmp_path, bare) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bare) in err and "no model config hash" in err

    def test_load_into_is_the_package_s_one_checkpoint_judge(self):
        # in the package only the writer and the judge name the stored hash,
        # and the CLI catches no error of a load to re-word it
        users, caught = set(), []
        for path in sorted(Path(ad.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ExceptHandler) and node.type is not None and path.name == "cli.py":
                    caught += [getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.type)]
                if (getattr(node, "id", None) or getattr(node, "attr", None)) != "MODEL_HASH":
                    continue
                up = node
                while up in parents and not isinstance(up, ast.FunctionDef):
                    up = parents[up]
                users.add(f"{path.name}:{getattr(up, 'name', '<module>')}")
        assert users == {"autodiff.py:<module>", "autodiff.py:save_checkpoint", "autodiff.py:load_into"}
        assert not {"ContractError", "ShapeError"} & set(caught)


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run("train", "--config", str(tmp_path / "nope.json")) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_inconsistent_dims_fail_before_compute(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", {
            "profile": "synthetic",
            "model": {"rank": 4, "encoder": {"kind": "vector", "input_dim": 8}},
            "synth": {"examples_per_class": 20},
        })
        assert run("train", "--config", cfg, "--out", str(tmp_path / "x")) == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", {"profile": "synthetic", "optimzer": {}})
        assert run("train", "--config", cfg) == 1
        assert "optimzer" in capsys.readouterr().err

    def test_incomplete_encoder_block(self, tmp_path, capsys):
        # switching the synthetic profile to a sentence encoder needs every sentence key
        cfg = write(tmp_path / "cfg.json", {
            "profile": "synthetic",
            "model": {"encoder": {"kind": "sentence", "input_dim": 16}},
        })
        assert run("train", "--config", cfg, "--out", str(tmp_path / "x")) == 1
        assert "model.encoder.hidden_dim" in capsys.readouterr().err

    def test_unknown_encoder_key(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", {"profile": "synthetic", "model": {"encoder": {"typo_key": 1}}})
        assert run("train", "--config", cfg, "--out", str(tmp_path / "x")) == 1
        assert "model.encoder.typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("feature_dim", 60), ("feature_mode", "zeros")])
    def test_removed_mention_feature_key(self, tmp_path, capsys, key, value):
        cfg = write(tmp_path / "cfg.json", {"profile": "typing", "model": {"encoder": {key: value}}})
        assert run("train", "--config", cfg, "--out", str(tmp_path / "x")) == 1
        assert f"model.encoder.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, name", [("aggregator", "foo"), ("activation", "swish")])
    def test_unknown_aggregator_or_activation_fails_before_synth(self, tmp_path, capsys, key, name):
        cfg = write(tmp_path / "cfg.json", {"profile": "synthetic", "model": {key: name}})
        out = tmp_path / "w"
        assert run("synth", "--config", cfg, "--out", str(out)) == 1
        assert f"model.{key}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_removed_ingest_bidirectional_key(self, tmp_path, capsys):
        (tmp_path / "g.tsv").write_text("r\ta\tb\n")
        cfg = write(tmp_path / "cfg.json", {
            "profile": "intent", "paths": {"graph": str(tmp_path / "g.tsv")},
            "ingest": {"bidirectional": True},
        })
        out = tmp_path / "x"
        assert run("ingest", "--config", cfg, "--out", str(out)) == 1
        assert "ingest.bidirectional" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_noise_fails_before_synth(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"profile": "synthetic", "synth": {"noise": Infinity}}')
        out = tmp_path / "w"
        assert run("synth", "--config", str(cfg), "--out", str(out)) == 1
        assert "noise" in capsys.readouterr().err
        assert not (out / "examples.json").exists()

    @pytest.mark.parametrize("command", ["ingest", "sample", "synth", "train", "eval", "gradcheck"])
    def test_every_command_refuses_what_train_refuses(self, tmp_path, capsys, command):
        # an l2 head over a 16-d encoder cannot end its stack in 20 dimensions, whatever runs
        (tmp_path / "g.tsv").write_text("r\ta\tb\n")
        cfg = write(tmp_path / "cfg.json", {
            "profile": "synthetic", "model": {"head": "l2", "dims": [16, 20]},
            "paths": {"graph": str(tmp_path / "g.tsv")},
        })
        out = tmp_path / "x"
        assert run(command, "--config", cfg, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: model.dims must end in 16 or 17")
        assert not out.exists()

    def test_bad_log_level(self, synth_cfg, monkeypatch, tmp_path):
        monkeypatch.setenv("KGZSL_LOG", "loud")
        assert run("synth", "--config", synth_cfg, "--out", str(tmp_path / "x")) == 1


class TestGraphCommands:
    @pytest.fixture
    def toy(self, tmp_path):
        tsv = tmp_path / "toy.tsv"
        tsv.write_text(
            "related_to\tcat\tdog\nrelated_to\tdog\tbone\nis_a\tcat\tanimal\n"
        )
        cfg = write(tmp_path / "kg.json", {
            "profile": "intent",
            "paths": {"graph": str(tsv)},
            "sampler": {"steps": 5, "restarts": 4},
        })
        return cfg

    def test_ingest_round_trips_edges(self, toy, tmp_path):
        out = tmp_path / "ing"
        assert run("ingest", "--config", toy, "--out", str(out)) == 0
        assert (out / "graph.tsv").read_text().count("\n") == 3

    def test_ingest_missing_graph_names_path(self, tmp_path, capsys):
        cfg = write(tmp_path / "kg.json", {
            "profile": "intent", "paths": {"graph": str(tmp_path / "gone.tsv")},
        })
        assert run("ingest", "--config", cfg, "--out", str(tmp_path / "x")) == 1
        assert "gone.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "sample"])
    def test_graph_that_is_not_utf8_names_file(self, toy, tmp_path, capsys, command):
        (tmp_path / "toy.tsv").write_bytes(b"related_to\tcat\tdog\nis_a\tcat\tan\xffimal\n")
        assert run(command, "--config", toy, "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert str(tmp_path / "toy.tsv") in err

    def test_sample_writes_tables_for_all_nodes(self, toy, tmp_path):
        out = tmp_path / "smp"
        assert run("sample", "--config", toy, "--out", str(out)) == 0
        hits = json.loads((out / "hits.json").read_text())
        assert sorted(hits["tables"]) == ["animal", "bone", "cat", "dog"]

    def test_sample_logs_its_kernel_runs_outside_its_outputs(self, toy, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("KGZSL_LOG", "info")
        caplog.set_level(logging.INFO, logger="kgzsl.cli")
        out = tmp_path / "smp"
        assert run("sample", "--config", toy, "--out", str(out)) == 0
        # animal alone, then bone starts a sweep over the other three
        assert "hit source: 2 kernel runs sampled 4 tables" in caplog.messages
        assert set(json.loads((out / "hits.json").read_text())) == {"walk", "tables"}

    def test_sample_seed_changes_tables(self, toy, tmp_path):
        run("sample", "--config", toy, "--out", str(tmp_path / "a"))
        run("sample", "--config", toy, "--seed", "7", "--out", str(tmp_path / "b"))
        a = json.loads((tmp_path / "a/manifest.json").read_text())
        b = json.loads((tmp_path / "b/manifest.json").read_text())
        assert a["seed"] == 0 and b["seed"] == 7


class TestGradcheck:
    def test_all_layer_kinds_pass(self, synth_cfg, tmp_path):
        out = tmp_path / "gc"
        assert run("gradcheck", "--config", synth_cfg, "--out", str(out)) == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert sorted(report) == ["gat", "gcn", "lstm", "rgcn", "transformer"]
        assert all(r["passed"] for r in report.values())


VEC = [1.0, 0.0, 0.0, 0.0]
MULTILABEL = {"loss_mode": "multilabel"}
SENTENCE = {"encoder": {"kind": "sentence", "input_dim": 4, "hidden_dim": 2, "attn_dim": 2}}
MENTION = {"encoder": {
    "kind": "mention", "input_dim": 4, "hidden_dim": 2, "attn_dim": 2, "window": 0,
}}


class TestExamplesFile:
    """Unusable numbers in a file-backed examples file fail as data errors."""

    @pytest.fixture
    def world(self, tmp_path):
        (tmp_path / "g.tsv").write_text(
            "has\tcls/alpha\tattr/red\n"
            "has\tcls/beta\tattr/blue\n"
            "has\tcls/gamma\tattr/red\n"
        )
        (tmp_path / "emb.txt").write_text(
            "alpha 1 0 0 0\nbeta 0 1 0 0\ngamma 0 0 1 0\nred 0 0 0 1\nblue 1 1 0 0\n"
        )
        write(tmp_path / "folds.json", {"folds": [{
            "train": ["cls/alpha", "cls/beta"], "dev": [], "test": ["cls/gamma"],
        }]})
        (tmp_path / "ckpt.json").write_text("{}")
        return tmp_path

    def config(self, world, examples, **model):
        write(world / "ex.json", examples)
        return write(world / "cfg.json", {
            "profile": "synthetic",
            "model": {"dims": [4, 4], "rank": 2, "encoder": {"kind": "vector", "input_dim": 4},
                      **model},
            "optimizer": {"epochs": 1},
            "paths": {name: str(world / f) for name, f in (
                ("graph", "g.tsv"), ("embeddings", "emb.txt"), ("examples", "ex.json"),
                ("fold_spec", "folds.json"), ("checkpoint", "ckpt.json"))},
        })

    def test_usable_file_trains_both_heads(self, world, tmp_path):
        good = {"vector": [1.0, 0.0, 0.5, 0.0], "label": "cls/alpha"}
        targets = {"cls/alpha": [1.0, 0.0, 0.0, 0.0], "cls/beta": [0, 1, 0, 0]}
        for head in ("bilinear", "l2"):
            cfg = self.config(world, {"train": [good], "targets": targets}, head=head)
            assert run("train", "--config", cfg, "--out", str(tmp_path / head)) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "a", True])
    @pytest.mark.parametrize("command,split", [("train", "train"), ("eval", "test")])
    def test_unusable_vector_names_record(self, world, tmp_path, capsys, bad, command, split):
        good = {"vector": [1.0, 0.0, 0.0, 0.0], "label": "cls/alpha"}
        examples = {"train": [good, good], "dev": [], "test": [good, good]}
        examples[split] = [good, {"vector": [0.0, bad, 0.0, 0.0], "label": "cls/gamma"}]
        cfg = self.config(world, examples)
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert f"{world / 'ex.json'} {split}[1]" in err

    @pytest.mark.parametrize("model,good,bad", [
        ({}, {"vector": VEC, "label": "cls/alpha"}, {"vector": VEC, "label": 5}),
        (MULTILABEL, {"vector": VEC, "labels": ["cls/alpha"]}, {"vector": VEC, "labels": "cls/gamma"}),
        (MULTILABEL, {"vector": VEC, "labels": ["cls/alpha"]}, {"vector": VEC, "labels": [5]}),
        (SENTENCE, {"tokens": ["alpha"], "label": "cls/alpha"},
         {"tokens": "gamma red", "label": "cls/gamma"}),
        (MENTION, {"mention": ["alpha"], "label": "cls/alpha"},
         {"mention": "gamma", "label": "cls/gamma"}),
        (MENTION, {"mention": ["alpha"], "label": "cls/alpha"},
         {"mention": ["gamma"], "right": "red", "label": "cls/gamma"}),
    ], ids=["label-int", "labels-str", "labels-int", "tokens-str", "mention-str", "right-str"])
    @pytest.mark.parametrize("command,split", [("train", "train"), ("eval", "test")])
    def test_mistyped_field_names_record(self, world, tmp_path, capsys, model, good, bad,
                                         command, split):
        examples = {"train": [good, good], "dev": [], "test": [good, good]}
        examples[split] = [good, bad]
        cfg = self.config(world, examples, **model)
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{world / 'ex.json'} {split}[1]" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_empty_train_fold_is_malformed(self, world, tmp_path, capsys, command):
        write(world / "folds.json", {"folds": [{"train": [], "dev": [], "test": ["cls/gamma"]}]})
        good = {"vector": VEC, "label": "cls/gamma"}
        cfg = self.config(world, {"train": [good], "test": [good]})
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 1
        assert "malformed fold spec" in capsys.readouterr().err

    def test_multilabel_model_trains_and_evaluates(self, world, tmp_path):
        examples = {
            "train": [{"vector": VEC, "labels": ["cls/alpha"]},
                      {"vector": [0.0, 1.0, 0.0, 0.0], "labels": ["cls/alpha", "cls/beta"]}],
            "dev": [],
            "test": [{"vector": VEC, "labels": ["cls/gamma"]},
                     {"vector": [0.0, 0.0, 1.0, 0.0], "labels": ["cls/alpha", "cls/gamma"]},
                     {"vector": [0.0, 1.0, 0.0, 0.0], "labels": ["cls/beta"]}],
        }
        cfg = self.config(world, examples, **MULTILABEL)
        assert run("train", "--config", cfg, "--out", str(tmp_path / "run")) == 0
        (world / "ckpt.json").write_bytes((tmp_path / "run" / "checkpoint.json").read_bytes())
        assert run("eval", "--config", cfg, "--out", str(tmp_path / "ev")) == 0
        metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text())
        # the two test records labeled with the fold's test class cls/gamma
        assert [fold["n"] for fold in metrics["per_fold"]] == [2]

    @pytest.mark.parametrize("bad", [[0.0, 1.0, 2.0], ["a", "b", "c", "d"], [0.0, float("nan"), 0.0, 0.0],
                                     [1.0, True, 0.0, 0.0]])
    def test_unusable_l2_target_names_class(self, world, tmp_path, capsys, bad):
        cfg = self.config(world, {
            "targets": {"cls/alpha": [1.0, 0.0, 0.0, 0.0], "cls/beta": bad},
        }, head="l2")
        assert run("train", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        assert "cls/beta" in capsys.readouterr().err

    @pytest.mark.parametrize("examples,where", [
        ([], ""), ({"targets": ["x"]}, ""), ({"train": {"a": 1}}, ""), ({"train": ["x"]}, " train[0]"),
    ])
    def test_malformed_file_names_file(self, world, tmp_path, capsys, examples, where):
        cfg = self.config(world, examples)
        assert run("train", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"{world / 'ex.json'}{where}" in err

    # each input file a run reads, with bytes that are not UTF-8 or text that is not JSON;
    # only eval reads the checkpoint
    @pytest.mark.parametrize("name,data,command", [
        pytest.param(name, data, command, id=f"{command}-{case}")
        for case, name, data in (
            ("config", "cfg.json", b'{"profile": "synthetic", "seed": 1\xff}'),
            ("graph", "g.tsv", b"has\tcls/alpha\tattr/red\nhas\tcls/beta\tattr/bl\xffue\n"),
            ("embeddings", "emb.txt", b"alpha 1 0 0 0\nbeta 0 1 0 0\n\xff 0 0 1 0\n"),
            ("examples", "ex.json", b'{"train": [{"vector": [1, 0, 0, 0], "label": "cls/\xffalpha"}]}'),
            ("fold_spec-json", "folds.json", b'{"folds": [{"train": ["cls/alpha"], "test": ["cls/gamma"]}'),
            ("fold_spec-utf8", "folds.json",
             b'{"folds": [{"train": ["cls/\xffalpha"], "test": ["cls/gamma"]}]}'),
            ("config-deep", "cfg.json", b"[" * 100_000),
            ("checkpoint", "ckpt.json", b'{"w": {"shape": [1], "data": [1.0]}, "\xff": 1}'),
        )
        for command in ("train", "eval")
        if case != "checkpoint" or command == "eval"
    ])
    def test_unreadable_input_names_file(self, world, tmp_path, capsys, name, data, command):
        good = {"vector": VEC, "label": "cls/alpha"}
        cfg = self.config(world, {"train": [good], "test": [good]})
        (world / name).write_bytes(data)
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert str(world / name) in err

    ROLE_WORDS = {"config": "config file", "graph": "graph file", "embeddings": "embeddings file",
                  "examples": "examples file", "fold_spec": "fold spec", "checkpoint": "checkpoint"}
    KIND_WORDS = {"directory": "is a directory", "missing": "not found", "under-file": "cannot be opened"}

    # each input path a run reads, made a directory, removed, or put under a regular file;
    # only eval reads the checkpoint. The directory cases keep their ids from before the
    # other kinds.
    @pytest.mark.parametrize("command,role,name,kind", [
        pytest.param(command, role, name, kind,
                     id=f"{command}-{role}-{name}" + ("" if kind == "directory" else f"-{kind}"))
        for kind in ("directory", "missing", "under-file")
        for command in ("train", "eval")
        for role, name in (("config", "cfg.json"), ("graph", "g.tsv"), ("embeddings", "emb.txt"),
                           ("examples", "ex.json"), ("fold_spec", "folds.json"),
                           ("checkpoint", "ckpt.json"))
        if role != "checkpoint" or command == "eval"
    ])
    def test_directory_input_names_role_and_path(self, world, tmp_path, capsys, command, role, name,
                                                 kind):
        good = {"vector": VEC, "label": "cls/alpha"}
        cfg = self.config(world, {"train": [good], "test": [good]})
        path = world / name
        if kind == "under-file":
            path = path / "x"
            if role == "config":
                cfg = str(path)
            else:
                obj = json.loads((world / "cfg.json").read_text())
                obj["paths"][role] = str(path)
                write(world / "cfg.json", obj)
        else:
            path.unlink()
            if kind == "directory":
                path.mkdir()
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"{self.ROLE_WORDS[role]} {path} {self.KIND_WORDS[kind]}" in err

    @pytest.mark.parametrize("folds,where", [
        ({"folds": {"a": 1}}, "'folds'"),
        ({"folds": "cls/gamma"}, "'folds'"),
        ([], "'folds'"),
        ({"folds": [["cls/alpha"]]}, "fold 0 is not"),
        ({"folds": [{"train": ["cls/alpha"], "test": ["cls/gamma"]}, {"test": ["cls/gamma"]}]},
         "fold 1 has no 'train'"),
        ({"folds": [{"train": ["cls/alpha"]}]}, "fold 0 has no 'test'"),
        ({"folds": [{"train": ["cls/alpha"], "test": "cls/gamma"}]}, "fold 0 'test'"),
        ({"folds": [{"train": ["cls/alpha"], "test": ["cls/gamma"], "devv": ["cls/beta"]}]},
         "fold 0 has unknown key 'devv'"),
        ({"folds": [{"train": ["cls/alpha"], "test": ["cls/gamma"]}], "extra": 1}, "unknown key 'extra'"),
        # a class twice in one split would take two score columns or two losses
        ({"folds": [{"train": ["cls/alpha", "cls/alpha"], "test": ["cls/gamma"]}]},
         "fold 0 'train' lists class 'cls/alpha' twice"),
        ({"folds": [{"train": ["cls/alpha"], "dev": ["cls/beta", "cls/beta"], "test": ["cls/gamma"]}]},
         "fold 0 'dev' lists class 'cls/beta' twice"),
        ({"folds": [{"train": ["cls/alpha"], "test": ["cls/gamma", "cls/gamma"]}]},
         "fold 0 'test' lists class 'cls/gamma' twice"),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_misshapen_fold_spec_names_file_fold_and_key(self, world, tmp_path, capsys, folds, where,
                                                          command):
        write(world / "folds.json", folds)
        good = {"vector": VEC, "label": "cls/alpha"}
        cfg = self.config(world, {"train": [good], "test": [good]})
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "internal error" not in err
        assert f"malformed fold spec {world / 'folds.json'}: " in err and where in err
        assert "string indices" not in err

    @pytest.mark.parametrize("command,split,missing", [
        ("train", "train", "cls/omega"), ("train", "dev", "cls/omega"), ("eval", "test", "cls/zeta"),
    ])
    def test_fold_class_not_in_graph(self, world, tmp_path, capsys, command, split, missing):
        fold = {"train": ["cls/alpha", "cls/beta"], "dev": [], "test": ["cls/gamma"]}
        fold[split] = [*fold[split], missing]
        write(world / "folds.json", {"folds": [fold]})
        good = {"vector": [1.0, 0.0, 0.0, 0.0], "label": "cls/alpha"}
        cfg = self.config(world, {"train": [good], "test": [good]})
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 1
        assert f"fold 0 class {missing!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_l2_head_with_multilabel_is_config_error(self, world, tmp_path, capsys, command):
        good = {"vector": VEC, "labels": ["cls/alpha"]}
        targets = {"cls/alpha": VEC, "cls/beta": VEC}
        cfg = self.config(world, {"train": [good], "test": [good], "targets": targets},
                          head="l2", **MULTILABEL)
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 1
        assert "model.loss_mode" in capsys.readouterr().err

    def test_eval_rejects_fold_testing_a_trained_class(self, world, tmp_path, capsys):
        # train fits fold 0, so fold 1 would score cls/alpha as zero-shot after training on it
        write(world / "folds.json", {"folds": [
            {"train": ["cls/alpha", "cls/beta"], "dev": [], "test": ["cls/gamma"]},
            {"train": ["cls/gamma"], "dev": [], "test": ["cls/alpha"]},
        ]})
        test = [{"vector": VEC, "label": "cls/gamma"}, {"vector": VEC, "label": "cls/alpha"}]
        cfg = self.config(world, {"train": [{"vector": VEC, "label": "cls/alpha"}], "test": test})
        assert run("eval", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fold 1" in err and "'cls/alpha'" in err

    def test_eval_rejects_fold_testing_a_dev_class(self, world, tmp_path, capsys):
        # train picks its epoch by fold 0's dev loss, so cls/beta is no zero-shot class
        write(world / "folds.json", {"folds": [
            {"train": ["cls/alpha"], "dev": ["cls/beta"], "test": ["cls/gamma"]},
            {"train": ["cls/gamma"], "dev": [], "test": ["cls/beta"]},
        ]})
        test = [{"vector": VEC, "label": "cls/gamma"}, {"vector": VEC, "label": "cls/beta"}]
        cfg = self.config(world, {"train": [{"vector": VEC, "label": "cls/alpha"}], "test": test})
        assert run("eval", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fold 1" in err and "'cls/beta'" in err and "dev" in err

    def test_node_without_tokens_names_node(self, world, tmp_path, capsys):
        with open(world / "g.tsv", "a") as fh:
            fh.write("has\t___\tattr/blue\n")
        good = {"vector": [1.0, 0.0, 0.0, 0.0], "label": "cls/alpha"}
        cfg = self.config(world, {"train": [good]})
        assert run("train", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'___'" in err


class TestSentenceProfile:
    """A miniature file-backed run through the intent-style pipeline."""

    @pytest.fixture
    def world(self, tmp_path):
        (tmp_path / "g.tsv").write_text(
            "related_to\tintent/play\tword/music\n"
            "related_to\tintent/stop\tword/music\n"
            "related_to\tintent/resume\tword/music\n"
            "related_to\tintent/play\tword/sound\n"
            "related_to\tintent/resume\tword/sound\n"
        )
        (tmp_path / "emb.txt").write_text(
            "intent 0.1 0.2 0.0 0.1\n"
            "play 0.9 0.1 0.0 0.2\n"
            "stop -0.8 0.2 0.1 0.0\n"
            "resume 0.7 -0.2 0.1 0.1\n"
            "word 0.0 0.1 0.1 0.0\n"
            "music 0.2 0.8 -0.1 0.0\n"
            "sound 0.1 0.6 -0.2 0.1\n"
        )
        write(tmp_path / "folds.json", {"folds": [{
            "train": ["intent/play", "intent/stop"],
            "dev": [],
            "test": ["intent/resume"],
        }]})
        write(tmp_path / "ex.json", {
            "train": [
                {"tokens": ["play", "music"], "label": "intent/play"},
                {"tokens": ["stop", "music"], "label": "intent/stop"},
                {"tokens": ["play", "sound"], "label": "intent/play"},
            ],
            "dev": [],
            "test": [{"tokens": ["resume", "music"], "label": "intent/resume"}],
        })
        return tmp_path

    @pytest.fixture
    def cfg(self, world):
        return write(world / "cfg.json", {
            "profile": "intent",
            "model": {
                "dims": [5, 5], "hop_limits": [3, 3], "rank": 2,
                "encoder": {"input_dim": 4, "hidden_dim": 3, "attn_dim": 2},
            },
            "optimizer": {"epochs": 1, "batch_size": 4},
            "sampler": {"steps": 4, "restarts": 3},
            "paths": {
                "graph": str(world / "g.tsv"),
                "embeddings": str(world / "emb.txt"),
                "examples": str(world / "ex.json"),
                "fold_spec": str(world / "folds.json"),
            },
        })

    def eval_config(self, world, run_dir):
        eval_cfg = json.loads((world / "cfg.json").read_text())
        eval_cfg["paths"]["checkpoint"] = str(run_dir / "checkpoint.json")
        return write(world / "eval.json", eval_cfg)

    def test_train_and_eval(self, world, cfg):
        run_dir = world / "run"
        assert run("train", "--config", cfg, "--out", str(run_dir)) == 0

        out = world / "ev"
        assert run("eval", "--config", self.eval_config(world, run_dir), "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["per_fold"][0]["n"] == 1

    def test_each_command_parses_embeddings_once(self, world, cfg, monkeypatch):
        # the node features and the example tokens share one parse of the file
        parsed = []
        from_file = EmbeddingTable.from_file

        def counting(cls, path):
            parsed.append(path)
            return from_file(path)

        monkeypatch.setattr(EmbeddingTable, "from_file", classmethod(counting))
        run_dir = world / "run"
        assert run("train", "--config", cfg, "--out", str(run_dir)) == 0
        assert parsed == [str(world / "emb.txt")]
        parsed.clear()
        assert run("eval", "--config", self.eval_config(world, run_dir), "--out", str(world / "ev")) == 0
        assert parsed == [str(world / "emb.txt")]


class TestProfileWidths:
    """The `intent` and `typing` profiles train and evaluate at their own widths: 300-d
    tokens, [50, 10] hop limits, and the profile's dims and encoder, on a seeded file-backed
    world of 30 classes with 4 `HasA` links each into 60 attributes."""

    @staticmethod
    def world(d, profile):
        r = np.random.default_rng(21)
        links = [r.choice(60, size=4, replace=False).tolist() for _ in range(30)]
        (d / "g.tsv").write_text("".join(
            f"HasA\t/c/en/class_{i}\t/c/en/w{j}\n" for i, attrs in enumerate(links) for j in attrs))
        vocab = ["class", *map(str, range(30)), *(f"w{j}" for j in range(60))]
        (d / "emb.txt").write_text("".join(
            t + "".join(f" {x!r}" for x in r.normal(size=300).tolist()) + "\n" for t in vocab))

        def record(i, k):
            # one of the class's attributes, a capitalized in-vocabulary token
            # read through its lowercase entry, and an out-of-vocabulary one
            label, tokens = f"/c/en/class_{i}", [f"w{links[i][k]}", ("Class", f"W{links[i][2]}")[k], f"oov{i}x{k}"]
            if profile == "intent":
                return {"tokens": tokens, "label": label}
            return {"mention": tokens[:1], "left": tokens[1:2], "right": tokens[2:], "labels": [label]}

        splits = {"train": range(20), "dev": range(20, 24), "test": range(24, 30)}
        write(d / "folds.json", {"folds": [{split: [f"/c/en/class_{i}" for i in ids]
                                            for split, ids in splits.items()}]})
        write(d / "ex.json", {split: [record(i, k) for i in ids for k in range(2)] for split, ids in splits.items()})
        return {role: str(d / name) for role, name in (
            ("graph", "g.tsv"), ("embeddings", "emb.txt"), ("examples", "ex.json"), ("fold_spec", "folds.json"))}

    @pytest.mark.parametrize("profile", ["intent", "typing"])
    def test_trains_reproducibly_and_evaluates(self, tmp_path, profile):
        base = {"profile": profile, "optimizer": {"epochs": 1}, "paths": self.world(tmp_path, profile)}
        for name in ("a", "b"):
            assert run("train", "--config", write(tmp_path / "train.json", base),
                       "--out", str(tmp_path / name)) == 0
        for name in ("checkpoint.json", "train_log.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        log = json.loads((tmp_path / "a" / "train_log.json").read_text())["log"]
        assert len(log) == 1 and all(isinstance(e["dev_loss"], float) for e in log)
        eval_cfg = {**base, "paths": {**base["paths"], "checkpoint": str(tmp_path / "a" / "checkpoint.json")}}
        assert run("eval", "--config", write(tmp_path / "eval.json", eval_cfg), "--out", str(tmp_path / "ev")) == 0
        assert json.loads((tmp_path / "ev" / "metrics.json").read_text())["per_fold"][0]["n"] == 2 * 6


class TestArtifacts:
    """Every artifact goes through one writer: an unwritable one is bad input, and the
    manifest holds the digest of each file as it lies on disk."""

    BASE = {"profile": "synthetic", "optimizer": {"epochs": 1}, "synth": {"examples_per_class": 10}}
    # the artifacts each command writes beside manifest.json
    WRITES = {
        "ingest": ["graph.tsv"],
        "sample": ["hits.json"],
        "synth": ["examples.json", "features.json", "fold_spec.json", "graph.tsv", "summary.json"],
        "train": ["checkpoint.json", "train_log.json"],
        "eval": ["metrics.json"],
        "gradcheck": ["gradcheck.json"],
    }

    @pytest.fixture(scope="class")
    def configs(self, tmp_path_factory):
        """A config for each command; eval's reads a checkpoint trained once."""
        d = tmp_path_factory.mktemp("cfg")
        (d / "toy.tsv").write_text("related_to\tcat\tdog\nrelated_to\tdog\tbone\nis_a\tcat\tanimal\n")
        graph = write(d / "kg.json", {
            "profile": "intent", "paths": {"graph": str(d / "toy.tsv")},
            "sampler": {"steps": 5, "restarts": 4},
        })
        synth = write(d / "synth.json", self.BASE)
        assert run("train", "--config", synth, "--out", str(d / "run")) == 0
        ev = write(d / "eval.json", {**self.BASE, "paths": {"checkpoint": str(d / "run" / "checkpoint.json")}})
        return {"ingest": graph, "sample": graph, "synth": synth, "train": synth, "eval": ev, "gradcheck": synth}

    @pytest.mark.parametrize("command, name", [
        (command, name) for command, names in WRITES.items() for name in [*names, "manifest.json"]
    ])
    def test_unwritable_artifact_names_path(self, configs, tmp_path, capsys, command, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert run(command, "--config", configs[command], "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"output {out / name} is a directory, not a file" in err
        assert not any(line.startswith("internal error") for line in err.splitlines())

    @pytest.mark.parametrize("command", sorted(WRITES))
    def test_manifest_hashes_the_bytes_on_disk(self, configs, tmp_path, command):
        out = tmp_path / "out"
        assert run(command, "--config", configs[command], "--out", str(out)) == 0
        on_disk = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out.iterdir() if p.name != "manifest.json"
        }
        assert sorted(on_disk) == self.WRITES[command]
        assert json.loads((out / "manifest.json").read_text())["artifacts"] == on_disk


class TestExitCodeMatrix:
    """`train` then `eval` of every encoder kind under every head, on a generated world and on
    a file-backed one whose 6-d example vectors are wider than its 4-d embeddings, exit 0 or 1
    and never with an internal error; a config that cannot run is refused at load."""

    ENCODERS = {
        "vector": {"kind": "vector", "input_dim": 6},
        "sentence": SENTENCE["encoder"],
        "mention": MENTION["encoder"],
    }
    # head overrides for an encoder of output width theta; an l2 head fits theta or theta + 1
    HEADS = {
        "bilinear": lambda theta: {"head": "bilinear", "dims": [4, 4], "rank": 2},
        "l2": lambda theta: {"head": "l2", "dims": [4, theta + 1]},
        "l2-misfit": lambda theta: {"head": "l2", "dims": [4, theta + 3]},
    }

    @staticmethod
    def file_world(d, width):
        """A three-class world: cls/gamma is the zero-shot class, l2 targets are `width` wide."""
        (d / "g.tsv").write_text("has\tcls/alpha\tattr/red\nhas\tcls/beta\tattr/blue\nhas\tcls/gamma\tattr/red\n")
        (d / "emb.txt").write_text("alpha 1 0 0 0\nbeta 0 1 0 0\ngamma 0 0 1 0\nred 0 0 0 1\nblue 1 1 0 0\n")
        write(d / "folds.json", {"folds": [{"train": ["cls/alpha", "cls/beta"], "dev": [], "test": ["cls/gamma"]}]})

        def record(i, label):
            word = label.split("/")[1]
            return {"vector": [float(i == j) for j in range(6)], "tokens": [word, "red"],
                    "mention": [word], "left": ["blue"], "right": ["red"], "label": label}

        write(d / "ex.json", {
            "train": [record(0, "cls/alpha"), record(1, "cls/beta")], "dev": [],
            "test": [record(2, "cls/gamma"), record(3, "cls/gamma")],
            "targets": {"cls/alpha": [1.0] * width, "cls/beta": [-1.0] * width},
        })
        return {role: str(d / name) for role, name in (
            ("graph", "g.tsv"), ("embeddings", "emb.txt"), ("examples", "ex.json"), ("fold_spec", "folds.json"))}

    @pytest.mark.parametrize("head", sorted(HEADS))
    @pytest.mark.parametrize("kind", sorted(ENCODERS))
    @pytest.mark.parametrize("world", ["generated", "file"])
    def test_train_then_eval_exits_cleanly(self, tmp_path, capsys, world, kind, head):
        encoder = self.ENCODERS[kind]
        if world == "generated" and kind == "vector":
            encoder = {"kind": "vector", "input_dim": 4}
        model = {"encoder": encoder, **self.HEADS[head](cfgmod.encoder_output_dim(encoder))}
        cfg = {"profile": "synthetic", "model": model, "optimizer": {"epochs": 1},
               "synth": {"feature_dim": 4, "examples_per_class": 5}}
        if world == "file":
            cfg["paths"] = self.file_world(tmp_path, model["dims"][-1])
        run_dir = tmp_path / "run"
        # the key a refusal at load names, or None for a run that goes through
        refusal = ("model.encoder" if world == "generated" and kind != "vector"
                   else "model.encoder.kind" if head != "bilinear" and kind != "vector"
                   else "model.dims" if head == "l2-misfit" else None)
        want = 1 if refusal else 0
        codes = [run("train", "--config", write(tmp_path / "train.json", cfg), "--out", str(run_dir))]
        cfg["paths"] = {**cfg.get("paths", {}), "checkpoint": str(run_dir / "checkpoint.json")}
        codes.append(run("eval", "--config", write(tmp_path / "eval.json", cfg), "--out", str(tmp_path / "ev")))
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert codes == [want, want], err
        if refusal:
            assert err.count(f"error: {refusal} must ") == 2, err
