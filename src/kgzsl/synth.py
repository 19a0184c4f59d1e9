"""Synthetic attribute graphs with known generative ground truth.

The generator builds a small world where classification is solvable by
construction: each class node links to a handful of attribute nodes,
each attribute carries a fixed random feature vector, and examples of a
class are noisy copies of the mean of its attributes' features.  Because
the prototypes are known exactly, a brute-force nearest-prototype oracle
gives the accuracy ceiling for any model, which makes these worlds
useful as end-to-end checks with a computable target.

With ``relation_structure`` set, the attribute pool splits into two
halves.  Classes link to the first half through ``HasAttribute`` and to
the second half through ``LacksAttribute``, and a lacked attribute is
subtracted rather than added when forming the class prototype.  The
attribute's polarity is also written into the last feature coordinate,
so a model can only match the oracle if its aggregation step lets that
coordinate interact with the rest of the feature vector.  Plain
mean-pooling discards the interaction; that is the point of the task.

The last feature coordinate equals +1 for every attribute in the plain
setting, so examples carry a near-constant coordinate that acts as a
built-in bias term for bilinear scoring.
"""

import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .errors import ConfigError
from .evaluation import FoldSpec
from .kg import FeatureTable, Graph
from .seeding import make_rng
from .zeroshot import ClassSet

HAS_ATTRIBUTE = "HasAttribute"
LACKS_ATTRIBUTE = "LacksAttribute"


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic world.

    ``feature_dim`` counts the polarity coordinate, so the random part of
    each attribute feature has ``feature_dim - 1`` dimensions.
    """

    attribute_pool: int = 20
    num_classes: int = 10
    num_unseen: int = 4
    num_dev: int = 0
    attrs_per_class: int = 4
    feature_dim: int = 16
    noise: float = 0.1
    examples_per_class: int = 200
    relation_structure: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.attribute_pool < 1:
            raise ConfigError("attribute_pool must be at least 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be at least 2")
        if self.num_unseen < 1:
            raise ConfigError("num_unseen must be at least 1")
        if self.num_dev < 0:
            raise ConfigError("num_dev must not be negative")
        if self.num_unseen + self.num_dev >= self.num_classes:
            raise ConfigError(
                f"num_unseen {self.num_unseen} + num_dev {self.num_dev} leave no "
                f"training classes out of num_classes {self.num_classes}"
            )
        if self.attrs_per_class < 1:
            raise ConfigError("attrs_per_class must be at least 1")
        if self.attrs_per_class > self.attribute_pool:
            raise ConfigError(
                f"attrs_per_class {self.attrs_per_class} exceeds "
                f"attribute_pool {self.attribute_pool}"
            )
        if self.feature_dim < 2:
            raise ConfigError("feature_dim must be at least 2")
        if not 0 <= self.noise <= sys.float_info.max:  # NaN and infinity fail too
            raise ConfigError(f"noise must be non-negative and finite, got {self.noise!r}")
        if self.examples_per_class < 1:
            raise ConfigError("examples_per_class must be at least 1")
        if self.relation_structure and (
            self.attribute_pool % 2 or self.attrs_per_class % 2
        ):
            raise ConfigError(
                "relation_structure splits the pool and each class's links "
                "in half, so attribute_pool and attrs_per_class must be even"
            )


@dataclass(frozen=True)
class SynthData:
    """One generated world.

    ``prototypes`` holds the exact generative class means.  They exist
    for oracle computation only; nothing in the graph or feature table
    depends on them, so handing ``graph`` + ``features`` + ``examples``
    to a model leaks no label information.
    """

    spec: SynthSpec
    graph: Graph
    train_graph: Graph
    features: FeatureTable
    classes: ClassSet
    fold_spec: FoldSpec
    examples: dict = field(repr=False)
    prototypes: dict = field(repr=False)

    def pairs(self, class_ids):
        """Flat [(vector, class id)] list over the given classes."""
        out = []
        for cls in class_ids:
            for row in self.examples[cls]:
                out.append((row, cls))
        return out

    def train_pairs(self):
        return self.pairs(self.classes.seen)

    def dev_pairs(self):
        return self.pairs(self.classes.dev)

    def test_pairs(self):
        return self.pairs(self.classes.unseen)


def _class_node(i, width):
    return f"class/{i:0{width}d}"


def _attr_node(k, width):
    return f"attr/{k:0{width}d}"


def _deal_attrs(spec):
    """Attribute indices per class, dealt round-robin for balanced usage.

    Uniform draws leave some attributes owned only by held-out classes,
    which starves them of training signal; dealing from repeated seeded
    permutations keeps ownership counts within one of each other.
    """
    rng = make_rng("synth-deal", spec.seed)
    m = spec.attrs_per_class
    pool = spec.attribute_pool
    if not spec.relation_structure:
        ranges = [(0, pool, m)]
    else:
        half = pool // 2
        ranges = [(0, half, m // 2), (half, pool, m // 2)]
    attrs_of = {i: [] for i in range(spec.num_classes)}
    for lo, hi, take in ranges:
        queue = deque()
        picked = {i: [] for i in range(spec.num_classes)}
        # one attribute per class per round: aligning whole permutations
        # with single classes would introduce linear dependencies between
        # blocks of ownership rows
        for _ in range(take):
            for i in range(spec.num_classes):
                returned = []
                while True:
                    if not queue:
                        queue.extend(
                            int(k) for k in rng.permutation(np.arange(lo, hi))
                        )
                    k = queue.popleft()
                    if k in picked[i]:
                        returned.append(k)
                    else:
                        picked[i].append(k)
                        break
                queue.extendleft(reversed(returned))
        for i in range(spec.num_classes):
            attrs_of[i].extend(picked[i])
    return {i: sorted(ks) for i, ks in attrs_of.items()}


def _designed_content(spec, attrs_of, seen_idx):
    """Content coordinates for every attribute, solved from prototypes.

    Class prototypes are fixed first: seen classes get orthonormal
    directions, held-out classes get equal-norm two-seen combinations,
    so every prototype lies in the span the training classes pin down
    and nearest-prototype and highest-dot rankings agree.  The
    attribute vectors are then the least-norm solution of the signed
    ownership system, plus seeded noise from its null space so
    individual attributes stay generic without moving any prototype.
    """
    cdim = spec.feature_dim - 1
    pool = spec.attribute_pool
    m = spec.attrs_per_class
    num = spec.num_classes
    rng = make_rng("synth-design", spec.seed)

    sign = np.ones(pool)
    if spec.relation_structure:
        sign[pool // 2:] = -1.0
    ownership = np.zeros((num, pool))
    for i, ks in attrs_of.items():
        for k in ks:
            ownership[i, k] = sign[k] / m

    n_seen = len(seen_idx)
    orient = np.linalg.qr(rng.standard_normal((cdim, cdim)))[0]
    if n_seen == 0 or n_seen > cdim:
        # degenerate fixture shapes: no span to anchor, fall back to
        # plain random prototypes
        targets = rng.standard_normal((num, cdim))
    else:
        basis = orient[:, :n_seen]
        targets = np.zeros((num, cdim))
        for col, i in enumerate(seen_idx):
            targets[i] = basis[:, col]
        pairs = [(a, b) for a in range(n_seen) for b in range(a + 1, n_seen)]
        order = rng.permutation(len(pairs)) if pairs else []
        pairs = [pairs[int(t)] for t in order]
        held_out = [i for i in range(num) if i not in set(seen_idx)]
        for j, i in enumerate(held_out):
            if j < len(pairs):
                a, b = pairs[j]
                targets[i] = (basis[:, a] + basis[:, b]) / np.sqrt(2.0)
            else:
                w = rng.standard_normal(n_seen)
                w /= np.linalg.norm(w)
                targets[i] = basis @ w

    pinv = np.linalg.pinv(ownership)
    base = pinv @ targets
    z = rng.standard_normal((pool, cdim))
    null = z - pinv @ (ownership @ z)
    return base + null


def _attr_features(spec, attrs_of, seen_idx):
    pool = spec.attribute_pool
    content = _designed_content(spec, attrs_of, seen_idx)
    feats = []
    for k in range(pool):
        polarity = -1.0 if spec.relation_structure and k >= pool // 2 else 1.0
        feats.append(np.concatenate([content[k], [polarity]]))
    return feats


def generate_synthetic(spec):
    """Build the graph, features, examples and fold of one world.

    Every class node links to ``attrs_per_class`` attribute nodes dealt
    from the pool (half positive, half negative under relation
    structure).  The prototype of a class is the mean of its attributes'
    features with lacked attributes subtracted, and each example is the
    prototype plus isotropic Gaussian noise.  Class nodes carry all-zero
    features.  Splits, dealing, features and noise all derive from
    ``spec.seed`` through independent named streams, so equal specs
    generate bit-identical worlds.
    """
    cw = len(str(spec.num_classes - 1))
    aw = len(str(spec.attribute_pool - 1))
    perm = make_rng("synth-split", spec.seed).permutation(spec.num_classes)
    seen_idx = [int(i) for i in perm[spec.num_unseen + spec.num_dev:]]
    attrs_of = _deal_attrs(spec)
    attr_feats = _attr_features(spec, attrs_of, seen_idx)

    rels, heads, tails = [], [], []
    for i in range(spec.num_classes):
        for k in attrs_of[i]:
            rels.append(LACKS_ATTRIBUTE if attr_feats[k][-1] < 0 else HAS_ATTRIBUTE)
            heads.append(_class_node(i, cw))
            tails.append(_attr_node(k, aw))
    nodes = [_class_node(i, cw) for i in range(spec.num_classes)]
    nodes += [_attr_node(k, aw) for k in range(spec.attribute_pool)]
    graph = Graph.from_columns(rels, heads, tails, extra_nodes=nodes)

    table = {}
    for i in range(spec.num_classes):
        table[_class_node(i, cw)] = np.zeros(spec.feature_dim)
    for k in range(spec.attribute_pool):
        table[_attr_node(k, aw)] = attr_feats[k]
    features = FeatureTable(spec.feature_dim, table)

    prototypes = {}
    examples = {}
    for i in range(spec.num_classes):
        # the polarity coordinate doubles as the sign of the contribution
        signed = [attr_feats[k] * attr_feats[k][-1] for k in attrs_of[i]]
        proto = np.mean(signed, axis=0)
        rng = make_rng("synth-ex", spec.seed, i)
        noise = rng.standard_normal((spec.examples_per_class, spec.feature_dim))
        rows = proto + spec.noise * noise
        cls = _class_node(i, cw)
        prototypes[cls] = proto
        rows.flags.writeable = False
        examples[cls] = rows

    unseen = tuple(sorted(_class_node(int(i), cw) for i in perm[: spec.num_unseen]))
    dev = tuple(
        sorted(
            _class_node(int(i), cw)
            for i in perm[spec.num_unseen : spec.num_unseen + spec.num_dev]
        )
    )
    seen = tuple(
        sorted(
            _class_node(int(i), cw)
            for i in perm[spec.num_unseen + spec.num_dev :]
        )
    )
    classes = ClassSet(seen=seen, unseen=unseen, dev=dev)
    fold_spec = FoldSpec((classes,))

    # training-time graph: unseen class ids must not be reachable by any
    # query during training, so they are cut out entirely, not just unlabeled
    visible = set(seen) | set(dev)
    shown = [head in visible for head in heads]
    train_nodes = sorted(visible) + [_attr_node(k, aw) for k in range(spec.attribute_pool)]
    train_graph = Graph.from_columns(
        *(list(compress(column, shown)) for column in (rels, heads, tails)), extra_nodes=train_nodes)

    return SynthData(
        spec=spec,
        graph=graph,
        train_graph=train_graph,
        features=features,
        classes=classes,
        fold_spec=fold_spec,
        examples=examples,
        prototypes=prototypes,
    )


def oracle_accuracy(data, class_ids=None):
    """Nearest-prototype accuracy over the given classes, by brute force.

    Scores every example of every candidate class against the exact
    generative prototypes and picks the closest in squared distance,
    breaking ties by class id.  Defaults to the unseen classes, which
    makes the result the ceiling for zero-shot evaluation on this world.
    """
    if class_ids is None:
        class_ids = data.classes.unseen
    ids = sorted(class_ids)
    if not ids:
        raise ConfigError("no classes to score")
    protos = np.stack([data.prototypes[c] for c in ids])
    hits = 0
    total = 0
    for cls in ids:
        for row in data.examples[cls]:
            d2 = np.sum((protos - row) ** 2, axis=1)
            # argmin returns the first minimum: ids are sorted, so exact
            # ties resolve to the smallest class id
            if ids[int(np.argmin(d2))] == cls:
                hits += 1
            total += 1
    return hits / total
