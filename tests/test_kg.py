from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgzsl import kg
from kgzsl.errors import EmptyNameError, ParseError, UnknownNodeError
from kgzsl.seeding import make_rng

from .helpers import reference_graph


def write(tmp_path, text, name="graph.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestIngest:
    def test_basic_triples(self, tmp_path):
        p = write(tmp_path, "likes\ta\tb\nhas\tb\tc\n")
        g = kg.ingest(p)
        assert g.nodes == ("a", "b", "c")
        assert g.edges == (("likes", "a", "b"), ("has", "b", "c"))
        assert g.relations == ("likes", "has")

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path, "# header\n\nlikes\ta\tb\n   \n# more\nhas\tb\tc\n")
        g = kg.ingest(p)
        assert g.num_edges == 2

    def test_duplicate_edges_dropped(self, tmp_path):
        p = write(tmp_path, "r\ta\tb\nr\ta\tb\nr\tb\ta\n")
        g = kg.ingest(p)
        assert g.edges == (("r", "a", "b"), ("r", "b", "a"))

    def test_wrong_column_count_names_line(self, tmp_path):
        p = write(tmp_path, "r\ta\tb\nr\ta\n")
        with pytest.raises(ParseError) as err:
            kg.ingest(p)
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_empty_field_is_parse_error(self, tmp_path):
        p = write(tmp_path, "r\t\tb\n")
        with pytest.raises(ParseError):
            kg.ingest(p)

    def test_language_filter_keeps_matching_rows(self, tmp_path):
        p = write(tmp_path, "r\ta\tb\ten\nr\tc\td\tfr\nr\te\tf\n")
        g = kg.ingest(p, lang_filter="en")
        assert g.edges == (("r", "a", "b"),)

    def test_no_filter_keeps_all_rows(self, tmp_path):
        p = write(tmp_path, "r\ta\tb\ten\nr\tc\td\tfr\n")
        g = kg.ingest(p)
        assert g.num_edges == 2

    def test_bidirectional_adds_reverses_once(self, tmp_path):
        p = write(tmp_path, "r\ta\tb\nr\tb\ta\nr\tb\tc\n")
        g = kg.ingest(p, bidirectional=True)
        assert set(g.edges) == {("r", "a", "b"), ("r", "b", "a"), ("r", "b", "c"), ("r", "c", "b")}

    def test_utf8_ids(self, tmp_path):
        p = write(tmp_path, "r\t/c/fr/fête\t/c/fr/noël\n")
        g = kg.ingest(p)
        assert "/c/fr/fête" in g


class TestGraph:
    def test_neighbors_sorted_and_undirected(self):
        g = kg.Graph([("r", "b", "a"), ("r", "b", "c"), ("s", "d", "b")])
        assert g.neighbors("b") == ("a", "c", "d")
        assert g.neighbors("a") == ("b",)

    def test_self_loop_not_own_neighbor(self):
        g = kg.Graph([("r", "a", "a"), ("r", "a", "b")])
        assert g.neighbors("a") == ("b",)

    def test_unknown_node_raises(self):
        g = kg.Graph([("r", "a", "b")])
        with pytest.raises(UnknownNodeError):
            g.neighbors("zzz")

    def test_relations_between_merges_directions(self):
        g = kg.Graph([("r", "a", "b"), ("s", "b", "a")])
        assert set(g.relations_between("a", "b")) == {"r", "s"}
        assert g.relations_between("a", "b") == g.relations_between("b", "a")

    def test_isolated_node_via_extra_nodes(self):
        g = kg.Graph([("r", "a", "b")], extra_nodes=["lonely"])
        assert "lonely" in g
        assert g.neighbors("lonely") == ()

    def test_csr_rows_follow_neighbors_in_sorted_id_order(self):
        g = kg.Graph([("r", "d", "b"), ("r", "b", "a"), ("r", "c", "c")], extra_nodes=["z"])
        csr = g.csr()
        assert csr.ids == ("a", "b", "c", "d", "z")
        assert csr.index == {v: i for i, v in enumerate(csr.ids)}
        for i, v in enumerate(csr.ids):
            row = csr.indices[csr.indptr[i]:csr.indptr[i + 1]]
            assert tuple(csr.ids[j] for j in row) == g.neighbors(v)
        assert csr.indptr.tolist() == [0, 1, 3, 3, 4, 4]
        assert g.csr() is csr


_ids = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"])
_triples = st.lists(st.tuples(st.sampled_from(["r", "s", "t"]), _ids, _ids), max_size=30)


class TestGraphMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        triples=_triples,
        reversed_picks=st.lists(st.integers(0, 29), max_size=5),
        repeat_picks=st.lists(st.integers(0, 29), max_size=5),
        extra=st.lists(st.sampled_from(["a", "c", "x", "y", "z"]), max_size=4),
    )
    def test_same_as_dict_of_sets_construction(self, triples, reversed_picks, repeat_picks, extra):
        edges = list(triples)
        if triples:
            picked = [triples[i % len(triples)] for i in reversed_picks]
            edges += [(rel, tail, head) for rel, head, tail in picked]
            edges += [triples[i % len(triples)] for i in repeat_picks]
        ref = reference_graph(edges, extra)
        g = kg.Graph(edges, extra_nodes=extra)
        assert g.nodes == ref["nodes"]
        assert g.edges == ref["edges"]
        assert g.relations == ref["relations"]
        csr = g.csr()
        assert csr.ids == ref["ids"]
        assert csr.index == {v: i for i, v in enumerate(ref["ids"])}
        assert csr.indptr.dtype == np.int64 and csr.indices.dtype == np.int64
        assert csr.indptr.tolist() == ref["indptr"]
        assert csr.indices.tolist() == ref["indices"]
        for v in g.nodes:
            assert g.neighbors(v) == ref["neighbors"][v]
            for u in g.nodes:
                key = (u, v) if u <= v else (v, u)
                assert g.relations_between(u, v) == ref["relations_between"].get(key, ())

    def test_empty_graph_builds_without_warnings(self, tmp_path):
        p = write(tmp_path, "# only a comment\n\n# and another\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graphs = [kg.Graph([]), kg.ingest(p), kg.ingest(p, bidirectional=True)]
        for g in graphs:
            assert g.nodes == () and g.edges == ()
            csr = g.csr()
            assert csr.indptr.tolist() == [0] and csr.indices.tolist() == []


class TestRoundTrip:
    def test_serialize_then_ingest_equal(self, tmp_path):
        g = kg.Graph([("r", "a", "b"), ("s", "b", "c"), ("r", "c", "a")])
        out = tmp_path / "out.tsv"
        kg.serialize(g, out)
        assert kg.ingest(out) == g

    def test_round_trip_preserves_order(self, tmp_path):
        g = kg.Graph([("z_rel", "n2", "n1"), ("a_rel", "n1", "n3")])
        out = tmp_path / "o.tsv"
        kg.serialize(g, out)
        g2 = kg.ingest(out)
        assert g2.edges == g.edges
        assert g2.nodes == g.nodes
        assert g2.relations == g.relations


class TestTokenizers:
    def test_default_tokenizer_last_segment(self):
        assert kg.default_tokenizer("/c/en/living_thing") == ["living", "thing"]

    def test_default_tokenizer_plain_id(self):
        assert kg.default_tokenizer("dog") == ["dog"]


class TestEmbeddingTable:
    def test_from_file(self, tmp_path):
        p = write(tmp_path, "dog 1.0 2.0\ncat 3.0 4.0\n", name="emb.txt")
        emb = kg.EmbeddingTable.from_file(p)
        assert emb.dimension == 2
        np.testing.assert_array_equal(emb.lookup("dog"), [1.0, 2.0])

    def test_dimension_mismatch_names_line(self, tmp_path):
        p = write(tmp_path, "dog 1.0 2.0\ncat 3.0\n", name="emb.txt")
        with pytest.raises(ParseError) as err:
            kg.EmbeddingTable.from_file(p)
        assert err.value.line == 2

    def test_case_insensitive_fallback(self, tmp_path):
        p = write(tmp_path, "dog 1.0 2.0\n", name="emb.txt")
        emb = kg.EmbeddingTable.from_file(p)
        np.testing.assert_array_equal(emb.lookup("Dog"), [1.0, 2.0])

    def test_oov_deterministic_and_bounded(self):
        emb = kg.EmbeddingTable({"dog": [1.0, 2.0, 3.0, 4.0]})
        v1 = emb.lookup("unknowntoken")
        emb2 = kg.EmbeddingTable({"dog": [1.0, 2.0, 3.0, 4.0]})
        v2 = emb2.lookup("unknowntoken")
        np.testing.assert_array_equal(v1, v2)
        assert np.all(np.abs(v1) <= 0.5 / 4)

    def test_oov_differs_per_token(self):
        emb = kg.EmbeddingTable({"d": [0.0, 0.0]})
        assert not np.array_equal(emb.lookup("aa"), emb.lookup("bb"))
        # a miss draws from the stream ("oov", 0, lowercased token)
        want = make_rng("oov", 0, "aa").uniform(-0.25, 0.25, size=2)
        assert emb.lookup("AA").tobytes() == want.tobytes()

    def test_empty_file_rejected(self, tmp_path):
        p = write(tmp_path, "", name="emb.txt")
        with pytest.raises(ParseError):
            kg.EmbeddingTable.from_file(p)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_naming_token(self, tmp_path, token):
        with pytest.raises(ParseError, match="'cat'.*non-finite"):
            kg.EmbeddingTable({"dog": [1.0, 2.0], "cat": [float(token), 0.0]})
        # float() parses these tokens, so the file path must reject them too
        p = write(tmp_path, f"dog 1.0 2.0\ncat 0.5 {token}\n", name="emb.txt")
        with pytest.raises(ParseError, match="'cat'.*non-finite"):
            kg.EmbeddingTable.from_file(p)


class TestInitFeatures:
    def test_mean_of_token_vectors(self):
        g = kg.Graph([("r", "living_thing", "dog")])
        emb = kg.EmbeddingTable({"living": [1.0, 0.0], "thing": [0.0, 1.0], "dog": [2.0, 2.0]})
        feats = kg.init_features(g, emb)
        np.testing.assert_allclose(feats["living_thing"], [0.5, 0.5])
        np.testing.assert_allclose(feats["dog"], [2.0, 2.0])
        assert feats.dimension == 2

    def test_covers_every_node(self):
        g = kg.Graph([("r", "a", "b"), ("r", "b", "c")])
        emb = kg.EmbeddingTable({"a": [1.0], "b": [2.0], "c": [3.0]})
        feats = kg.init_features(g, emb)
        for node in g.nodes:
            assert node in feats

    def test_empty_name_raises(self):
        g = kg.Graph([("r", "__", "b")])
        emb = kg.EmbeddingTable({"b": [1.0]})
        with pytest.raises(EmptyNameError):
            kg.init_features(g, emb)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_feature_table_rejects_non_finite_naming_node(self, value):
        with pytest.raises(ParseError, match="'b'.*non-finite"):
            kg.FeatureTable(2, {"a": [1.0, 2.0], "b": [value, 4.0]})
        with pytest.raises(ParseError, match="'b'.*non-finite"):
            kg.FeatureTable(2, {"b": [3.0, value]})

    def test_feature_table_round_trip(self):
        t = kg.FeatureTable(2, {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        t2 = kg.FeatureTable(**t.to_jsonable())
        np.testing.assert_array_equal(t2["a"], t["a"])
        assert t2.dimension == 2
