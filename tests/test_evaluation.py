from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgzsl import evaluation as ev
from kgzsl.config import canonical_json, write_output
from kgzsl.errors import ContractError, ParseError
from kgzsl.zeroshot import ClassSet


class TestStrictMatch:
    def test_exact_set_equality(self):
        assert ev.strict_match(["a", "b"], ["b", "a"])
        assert not ev.strict_match(["a"], ["a", "b"])
        assert not ev.strict_match(["a", "b"], ["a"])
        assert ev.strict_match([], [])

    def test_duplicates_collapse(self):
        assert ev.strict_match(["a", "a"], ["a"])

    @given(st.sets(st.sampled_from("abcde")), st.sets(st.sampled_from("abcde")))
    @settings(max_examples=50, deadline=None)
    def test_symmetric(self, x, y):
        assert ev.strict_match(x, y) == ev.strict_match(y, x)


class TestFoldMetrics:
    def test_two_fold_reference_values(self):
        # fold 1: 3/4, fold 2: 1/2 -> micro 4/6, macro 0.625
        fold1 = [(["a"], ["a"]), (["b"], ["b"]), (["c"], ["c"]), (["d"], ["x"])]
        fold2 = [(["a", "b"], ["a", "b"]), (["a"], ["a", "b"])]
        result = ev.fold_metrics([fold1, fold2])
        assert result.per_fold[0].correct == 3
        assert result.per_fold[1].correct == 1
        assert abs(result.micro - 4 / 6) < 1e-12
        assert abs(result.macro - 0.625) < 1e-12

    def test_single_fold_micro_equals_macro(self):
        pairs = [(["a"], ["a"]), (["b"], ["c"])]
        result = ev.fold_metrics([pairs])
        assert result.micro == result.macro == 0.5

    def test_macro_weights_folds_equally(self):
        big = [(["a"], ["a"])] * 99 + [(["b"], ["x"])]
        small = [(["b"], ["x"])]
        result = ev.fold_metrics([big, small])
        assert abs(result.macro - (0.99 + 0.0) / 2) < 1e-12
        assert abs(result.micro - 99 / 101) < 1e-12

    def test_empty_inputs_rejected(self):
        with pytest.raises(ContractError):
            ev.fold_metrics([])
        with pytest.raises(ContractError):
            ev.fold_metrics([[(["a"], ["a"])], []])

    def test_jsonable_rounds_to_four_decimals(self, tmp_path):
        result = ev.fold_metrics([[(["a"], ["a"]), (["b"], ["x"]), (["c"], ["x"])]])
        obj = result.to_jsonable()
        assert obj == {
            "per_fold": [{"n": 3, "correct": 1, "acc": 0.3333}],
            "micro": 0.3333,
            "macro": 0.3333,
        }
        path = tmp_path / "metrics.json"
        write_output(path, canonical_json(result.to_jsonable()))
        assert json.loads(path.read_text()) == obj

    def test_metrics_json_byte_stable(self, tmp_path):
        result = ev.fold_metrics([[(["a"], ["a"])]])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_output(p1, canonical_json(result.to_jsonable()))
        write_output(p2, canonical_json(result.to_jsonable()))
        assert p1.read_bytes() == p2.read_bytes()


class TestFoldSpec:
    def test_disjointness(self):
        with pytest.raises(ContractError):
            ClassSet(seen=("a",), dev=("a",), unseen=("b",))
        with pytest.raises(ContractError):
            ClassSet(seen=("a",), dev=(), unseen=("a",))

    def test_test_classes_required(self):
        with pytest.raises(ContractError):
            ev.FoldSpec(folds=(ClassSet(seen=("a",), dev=(), unseen=()),))

    def test_round_trip(self, tmp_path):
        spec = ev.FoldSpec(
            folds=(
                ClassSet(seen=("a", "b"), dev=("c",), unseen=("d",)),
                ClassSet(seen=("d",), dev=(), unseen=("a", "b")),
            )
        )
        path = tmp_path / "folds.json"
        write_output(path, canonical_json(spec.to_jsonable()))
        loaded = ev.FoldSpec.load(path)
        assert loaded == spec

    def test_malformed_spec(self):
        with pytest.raises(ParseError):
            ev.FoldSpec.from_jsonable({"folds": [{"train": []}]})
        # a string is not split into one-character class names
        for split in ("train", "dev", "test"):
            for bad in ("cls/alpha", ["a", 5], [["a"]], {"a": 1}):
                fold = {"train": ["x"], "dev": ["y"], "test": ["z"], split: bad}
                with pytest.raises(ParseError, match=split):
                    ev.FoldSpec.from_jsonable({"folds": [fold]})

    @pytest.mark.parametrize("obj,where", [
        ({"folds": {"a": 1}}, "'folds' is not a list"),
        ([{"train": ["x"], "test": ["z"]}], "'folds' is not a list"),
        ({"folds": [{"train": ["x"], "test": ["z"]}, "x"]}, "fold 1 is not a JSON object"),
        ({"folds": [{"test": ["z"]}]}, "fold 0 has no 'train' list"),
        ({"folds": [{"train": ["x"], "test": ["z"]}, {"train": ["x"]}]}, "fold 1 has no 'test' list"),
        ({"folds": [{"train": ["x"], "test": ["x"]}]}, "fold 0: seen, dev and unseen"),
        # a misspelt split is not an absent one
        ({"folds": [{"train": ["x"], "test": ["z"], "devv": ["y"]}]}, "fold 0 has unknown key 'devv'"),
        ({"folds": [{"train": ["x"], "test": ["z"]}, {"train": ["z"], "test": ["x"], "Dev": []}]},
         "fold 1 has unknown key 'Dev'"),
        ({"folds": [{"train": ["x"], "test": ["z"]}], "fold": []}, "unknown key 'fold'"),
        ({"folds": [{"train": ["a", "a", "c"], "test": ["b"]}]}, "fold 0 'train' lists class 'a' twice"),
        ({"folds": [{"train": ["x"], "test": ["z"]}, {"train": ["x"], "test": ["z", "y", "z"]}]},
         "fold 1 'test' lists class 'z' twice"),
        ({"folds": [{"train": ["x"], "dev": ["y", "w", "y"], "test": ["z"]}]},
         "fold 0 'dev' lists class 'y' twice"),
    ])
    def test_misshapen_file_names_file_fold_and_key(self, tmp_path, obj, where):
        path = tmp_path / "folds.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=f"^malformed fold spec {re.escape(str(path))}: .*{where}"):
            ev.FoldSpec.load(path)

    def test_directory_is_parse_error_naming_path(self, tmp_path):
        with pytest.raises(ParseError, match=f"fold spec {re.escape(str(tmp_path))} is a directory"):
            ev.FoldSpec.load(tmp_path)

    def test_missing_file_is_parse_error_naming_path(self, tmp_path):
        path = tmp_path / "gone.json"
        with pytest.raises(ParseError, match=f"fold spec {re.escape(str(path))} not found"):
            ev.FoldSpec.load(path)

    def test_needs_folds(self):
        with pytest.raises(ContractError):
            ev.FoldSpec(folds=())

