import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgzsl.errors import ConfigError
from kgzsl.synth import (
    HAS_ATTRIBUTE,
    LACKS_ATTRIBUTE,
    SynthSpec,
    generate_synthetic,
    oracle_accuracy,
)


def reconstructed_prototype(data, cls):
    """Prototype recomputed from the graph and features alone.

    Mirrors what a relation-aware model could compute: mean over the
    class's neighbors with the sign taken from the linking relation.
    """
    parts = []
    for nbr in data.graph.neighbors(cls):
        rels = data.graph.relations_between(cls, nbr)
        sign = -1.0 if LACKS_ATTRIBUTE in rels else 1.0
        parts.append(sign * data.features[nbr])
    return np.mean(parts, axis=0)


class TestSynthSpec:
    def test_defaults_valid(self):
        spec = SynthSpec()
        assert spec.attribute_pool == 20
        assert spec.num_classes == 10
        assert spec.num_unseen == 4
        assert spec.attrs_per_class == 4
        assert spec.feature_dim == 16
        assert spec.noise == 0.1
        assert spec.examples_per_class == 200

    def test_attrs_exceeding_pool_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            SynthSpec(attribute_pool=4, attrs_per_class=5)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(noise=-0.1)
        # an int past the float range would overflow to inf in the first multiply
        for noise in (float("nan"), float("inf"), 10**400):
            with pytest.raises(ConfigError, match="noise"):
                SynthSpec(noise=noise)

    def test_split_must_leave_training_classes(self):
        with pytest.raises(ConfigError):
            SynthSpec(num_classes=6, num_unseen=4, num_dev=2)

    def test_relation_structure_needs_even_counts(self):
        with pytest.raises(ConfigError):
            SynthSpec(relation_structure=True, attribute_pool=19)
        with pytest.raises(ConfigError):
            SynthSpec(relation_structure=True, attrs_per_class=3)

    def test_tiny_feature_dim_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(feature_dim=1)


class TestGenerate:
    def test_world_shape(self):
        data = generate_synthetic(SynthSpec(seed=0))
        assert data.graph.num_nodes == 10 + 20
        assert data.graph.num_edges == 10 * 4
        assert data.graph.relations == (HAS_ATTRIBUTE,)
        assert len(data.classes.seen) == 6
        assert len(data.classes.dev) == 0
        assert len(data.classes.unseen) == 4
        for cls in data.classes.seen:
            assert data.examples[cls].shape == (200, 16)

    def test_class_features_are_zero(self):
        data = generate_synthetic(SynthSpec(seed=1))
        for cls in data.classes.seen + data.classes.dev + data.classes.unseen:
            assert np.all(data.features[cls] == 0.0)

    def test_attribute_polarity_coordinate(self):
        plain = generate_synthetic(SynthSpec(seed=0))
        for k in range(20):
            assert plain.features[f"attr/{k:02d}"][-1] == 1.0
        rel = generate_synthetic(SynthSpec(relation_structure=True, seed=0))
        for k in range(20):
            want = 1.0 if k < 10 else -1.0
            assert rel.features[f"attr/{k:02d}"][-1] == want

    def test_relation_structure_links_half_and_half(self):
        data = generate_synthetic(SynthSpec(relation_structure=True, seed=2))
        assert data.graph.relations == (HAS_ATTRIBUTE, LACKS_ATTRIBUTE)
        for cls in data.classes.seen + data.classes.dev + data.classes.unseen:
            signs = []
            for nbr in data.graph.neighbors(cls):
                rels = data.graph.relations_between(cls, nbr)
                assert len(rels) == 1
                signs.append(rels[0])
            assert signs.count(HAS_ATTRIBUTE) == 2
            assert signs.count(LACKS_ATTRIBUTE) == 2

    def test_edge_relation_matches_attribute_polarity(self):
        data = generate_synthetic(SynthSpec(relation_structure=True, seed=3))
        for rel, head, tail in data.graph.edges:
            polarity = data.features[tail][-1]
            want = LACKS_ATTRIBUTE if polarity < 0 else HAS_ATTRIBUTE
            assert rel == want

    def test_regeneration_is_bitwise_identical(self):
        a = generate_synthetic(SynthSpec(seed=7))
        b = generate_synthetic(SynthSpec(seed=7))
        assert a.graph == b.graph
        assert a.classes == b.classes
        for cls in a.examples:
            assert a.examples[cls].tobytes() == b.examples[cls].tobytes()
            assert a.prototypes[cls].tobytes() == b.prototypes[cls].tobytes()

    def test_seeds_change_the_world(self):
        a = generate_synthetic(SynthSpec(seed=0))
        b = generate_synthetic(SynthSpec(seed=1))
        assert any(
            a.examples[c].tobytes() != b.examples[c].tobytes() for c in a.examples
        )

    def test_zero_noise_examples_equal_prototype(self):
        data = generate_synthetic(SynthSpec(noise=0.0, seed=5))
        for cls, rows in data.examples.items():
            assert np.all(rows == data.prototypes[cls])

    def test_prototype_reconstructible_from_graph(self):
        for flag in (False, True):
            data = generate_synthetic(SynthSpec(relation_structure=flag, seed=4))
            for cls in data.classes.seen + data.classes.unseen:
                rebuilt = reconstructed_prototype(data, cls)
                np.testing.assert_allclose(rebuilt, data.prototypes[cls], atol=1e-12)

    def test_pairs_cover_split(self):
        data = generate_synthetic(SynthSpec(seed=0))
        train = data.train_pairs()
        assert len(train) == 6 * 200
        assert {label for _, label in train} == set(data.classes.seen)
        assert data.dev_pairs() == []
        assert len(data.test_pairs()) == 4 * 200

    def test_fold_spec_matches_classes(self):
        data = generate_synthetic(SynthSpec(seed=0))
        assert data.fold_spec.folds == (data.classes,)

    def test_train_graph_contains_no_unseen_ids(self):
        data = generate_synthetic(SynthSpec(num_dev=1, seed=0))
        nodes = data.train_graph.nodes
        for cls in data.classes.unseen:
            assert cls not in nodes
        for cls in data.classes.seen + data.classes.dev:
            assert cls in nodes
        for k in range(data.spec.attribute_pool):
            assert f"attr/{k:02d}" in nodes
        assert set(data.train_graph.edges) <= set(data.graph.edges)


class TestOracle:
    def test_zero_noise_distinct_prototypes(self):
        data = generate_synthetic(SynthSpec(noise=0.0, seed=3))
        assert oracle_accuracy(data) == 1.0

    def test_identical_attribute_sets_tie(self):
        # every class gets both attributes of a two-attribute pool, so all
        # prototypes coincide and ties resolve to the smallest class id
        data = generate_synthetic(
            SynthSpec(
                attribute_pool=2,
                attrs_per_class=2,
                num_classes=4,
                num_unseen=2,
                num_dev=1,
                noise=0.0,
                seed=0,
            )
        )
        assert oracle_accuracy(data) <= 0.5

    def test_default_spec_oracle_high(self):
        for seed in (0, 1, 2):
            data = generate_synthetic(SynthSpec(seed=seed))
            assert oracle_accuracy(data) >= 0.95

    def test_relation_structure_sign_blind_gap(self):
        # ignoring link polarity must cost real accuracy, otherwise the
        # task would not separate interaction-aware aggregation from
        # mean-pooling
        for seed in (0, 1, 2):
            data = generate_synthetic(SynthSpec(relation_structure=True, seed=seed))
            signed = oracle_accuracy(data)
            ids = sorted(data.classes.unseen)
            blind = np.stack(
                [
                    np.mean([data.features[n] for n in data.graph.neighbors(c)], axis=0)
                    for c in ids
                ]
            )
            hits = total = 0
            for cls in ids:
                for row in data.examples[cls]:
                    d2 = np.sum((blind - row) ** 2, axis=1)
                    hits += ids[int(np.argmin(d2))] == cls
                    total += 1
            assert signed >= hits / total + 0.3

    def test_custom_candidate_set(self):
        data = generate_synthetic(SynthSpec(noise=0.0, seed=0))
        acc = oracle_accuracy(data, data.classes.seen)
        assert acc == 1.0

    def test_empty_candidates_rejected(self):
        data = generate_synthetic(SynthSpec(seed=0))
        with pytest.raises(ConfigError):
            oracle_accuracy(data, ())


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 50),
    flag=st.booleans(),
    m=st.sampled_from([2, 4]),
)
def test_generation_properties(seed, flag, m):
    spec = SynthSpec(
        attribute_pool=8,
        num_classes=5,
        num_unseen=2,
        num_dev=1,
        attrs_per_class=m,
        feature_dim=6,
        examples_per_class=5,
        relation_structure=flag,
        seed=seed,
    )
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert a.graph == b.graph
    for cls in a.examples:
        assert a.examples[cls].tobytes() == b.examples[cls].tobytes()
    acc = oracle_accuracy(a)
    assert 0.0 <= acc <= 1.0
    for cls in a.classes.unseen:
        rebuilt = reconstructed_prototype(a, cls)
        np.testing.assert_allclose(rebuilt, a.prototypes[cls], atol=1e-12)
