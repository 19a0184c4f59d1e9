"""End-to-end runs of every subcommand through cli.main.

main() returns the exit code instead of raising, so each case asserts
on the code plus the artifacts left in the output directory.
"""

import json
import os

import pytest

from kgzsl import autodiff as ad
from kgzsl import cli
from kgzsl.cli import main


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
        assert {name.split("/")[0] for name in ckpt} == {"gnn"}

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

        predict = cli.predict
        monkeypatch.setattr(cli, "predict", recording_predict)
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

    def test_eval_needs_checkpoint_path(self, synth_cfg, tmp_path):
        assert run("eval", "--config", synth_cfg, "--out", str(tmp_path / "x")) == 1

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

    def test_sample_writes_tables_for_all_nodes(self, toy, tmp_path):
        out = tmp_path / "smp"
        assert run("sample", "--config", toy, "--out", str(out)) == 0
        hits = json.loads((out / "hits.json").read_text())
        assert sorted(hits["tables"]) == ["animal", "bone", "cat", "dog"]

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "a"])
    @pytest.mark.parametrize("command,split", [("train", "train"), ("eval", "test")])
    def test_unusable_vector_names_record(self, world, tmp_path, capsys, bad, command, split):
        good = {"vector": [1.0, 0.0, 0.0, 0.0], "label": "cls/alpha"}
        examples = {"train": [good, good], "dev": [], "test": [good, good]}
        examples[split] = [good, {"vector": [0.0, bad, 0.0, 0.0], "label": "cls/gamma"}]
        cfg = self.config(world, examples)
        assert run(command, "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert f"{world / 'ex.json'} {split}[1]" in err

    @pytest.mark.parametrize("bad", [[0.0, 1.0, 2.0], ["a", "b", "c", "d"], [0.0, float("nan"), 0.0, 0.0]])
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

    def test_train_and_eval(self, world, tmp_path):
        cfg = write(world / "cfg.json", {
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
        run_dir = world / "run"
        assert run("train", "--config", cfg, "--out", str(run_dir)) == 0

        eval_cfg = json.loads((world / "cfg.json").read_text())
        eval_cfg["paths"]["checkpoint"] = str(run_dir / "checkpoint.json")
        cfg2 = write(world / "eval.json", eval_cfg)
        out = world / "ev"
        assert run("eval", "--config", cfg2, "--out", str(out)) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["per_fold"][0]["n"] == 1
