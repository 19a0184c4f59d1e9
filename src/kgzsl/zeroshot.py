"""Compatibility training between example encodings and class encodings.

A class encoding phi(y) comes from running the aggregator stack over
the class node's sampled neighborhood; an example encoding theta(x)
comes from one of the example encoders.  Two heads are supported: a
low-rank bilinear score theta' B A phi trained with cross entropy or
per-class binary cross entropy, and a regression head that pulls phi(y)
toward fixed target vectors and ranks by dot product at test time.
"""

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .aggregators import gnn_forward
from .errors import ConfigError, ContractError, DataError, DivergenceError
from .seeding import make_rng


@dataclass(frozen=True)
class ClassSet:
    """Seen / unseen split, plus the dev classes used for checkpointing.

    `targets` carries per-class regression targets for the L2 head;
    bilinear training ignores it.
    """

    seen: tuple
    unseen: tuple
    dev: tuple = ()
    targets: dict | None = None

    def __post_init__(self):
        seen, unseen, dev = set(self.seen), set(self.unseen), set(self.dev)
        if seen & unseen or seen & dev or unseen & dev:
            raise ContractError("seen, dev and unseen classes must be disjoint")
        if not self.seen:
            raise ContractError("at least one seen class is required")


class BilinearHead:
    """Low-rank compatibility score theta' B A phi.

    B is (theta_dim, rank), A is (rank, phi_dim); rank bounds the rank
    of the full bilinear form, which is what keeps the head small when
    the two sides are wide.
    """

    def __init__(self, theta_dim, phi_dim, rank, rng=None, name="head"):
        if rank < 1 or rank > min(theta_dim, phi_dim):
            raise ConfigError(
                f"rank must be in [1, {min(theta_dim, phi_dim)}], got {rank}"
            )
        if rng is None:
            rng = make_rng("init", name)
        self.theta_dim = theta_dim
        self.phi_dim = phi_dim
        self.rank = rank
        self.b = ad.param((theta_dim, rank), rng, name=f"{name}/B")
        self.a = ad.param((rank, phi_dim), rng, name=f"{name}/A")

    def parameters(self):
        return {self.b.name: self.b, self.a.name: self.a}

    def score(self, theta, phi):
        return ad.matmul(ad.matmul(theta, self.b), ad.matmul(self.a, phi))

    def scores(self, theta, phis):
        """Score theta against a list of phi tensors, as one (C,) tensor."""
        left = ad.matmul(theta, self.b)
        projected = ad.matmul_t(ad.stack(phis), self.a)
        return ad.matmul(projected, left)

    def score_matrix(self):
        """The full (theta_dim, phi_dim) form B A, as a plain array."""
        return self.b.data @ self.a.data


class GnnClassEncoder:
    """Binds an aggregator stack to one graph context.

    The same stack can be re-bound to a different graph for inductive
    evaluation; parameters live on the stack, not the binding.
    """

    def __init__(self, stack, graph, features, hits, seed=0):
        if features.dimension != stack.in_dim:
            raise ConfigError(
                f"feature dim {features.dimension} does not match stack input {stack.in_dim}"
            )
        self.stack = stack
        self.graph = graph
        self.features = features
        self.hits = hits
        self.seed = seed

    def rebind(self, graph, features, hits):
        return GnnClassEncoder(self.stack, graph, features, hits, seed=self.seed)

    def parameters(self):
        return self.stack.parameters()

    def encode(self, class_node, mode="eval", rng=None):
        return gnn_forward(
            self.stack, self.graph, self.features, self.hits, class_node,
            mode=mode, seed=self.seed, rng=rng,
        )


@dataclass
class TrainResult:
    best_params: dict
    best_epoch: int
    log: list = field(default_factory=list)

    def to_jsonable(self):
        return {"best_epoch": self.best_epoch, "log": self.log}


def model_params(class_encoder, encoder=None, head=None):
    """Every trainable tensor of the given parts, keyed as checkpoints store them.

    Keys are the part's own parameter names under `gnn/`, `enc/` and
    `head/`, in that order.
    """
    parts = (("gnn", class_encoder), ("enc", encoder), ("head", head))
    return {
        f"{prefix}/{name}": t
        for prefix, part in parts if part is not None
        for name, t in part.parameters().items()
    }


def _fit(params, class_encoder, seen, dev, batches, batch_loss, dev_loss,
         epochs, seed, lr, weight_decay):
    """The epoch loop both heads share; returns the TrainResult.

    Each epoch runs one Adam step per batch that `batches()` yields:
    every seen class is encoded in train mode off the `train-perm`
    stream, and `batch_loss(reps, batch)` gives the scalar to minimize.
    The epoch's train loss is the mean of its batch losses.  With dev
    classes, `dev_loss(reps)` scores their eval-mode encodings under
    no_grad.  The selected epoch is the one with the lowest dev loss,
    or train loss without dev classes, the first winning ties; the live
    parameters are left at its snapshot.  A non-finite loss raises
    DivergenceError, since no comparison can rank it.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {epochs}")
    opt = ad.Adam(params, lr=lr, weight_decay=weight_decay)
    perm_rng = make_rng("train-perm", seed)

    def step(batch):
        # a function scope, so this batch's graph is freed before the
        # next batch builds its own
        opt.zero_grad()
        reps = [class_encoder.encode(c, mode="train", rng=perm_rng) for c in seen]
        loss = batch_loss(reps, batch)
        ad.backward(loss)
        opt.step()
        return float(loss.data)

    result = TrainResult(best_params={}, best_epoch=-1)
    best = None
    for epoch in range(epochs):
        train_loss = float(np.mean([step(batch) for batch in batches()]))
        held = None
        if dev:
            with ad.no_grad():
                held = dev_loss([class_encoder.encode(c, mode="eval") for c in dev])
        for split, loss in (("train", train_loss), ("dev", held)):
            if loss is not None and not np.isfinite(loss):
                raise DivergenceError(f"{split} loss is {loss!r} in epoch {epoch}")
        result.log.append({"epoch": epoch, "train_loss": train_loss, "dev_loss": held})
        selector = train_loss if held is None else held
        if best is None or selector < best:
            best = selector
            result.best_params = {k: p.data.copy() for k, p in params.items()}
            result.best_epoch = epoch
    for k, p in params.items():
        p.data = result.best_params[k].copy()
    return result


def train_bilinear(train_examples, dev_examples, encoder, class_encoder, head, classes,
                   loss_mode="multiclass", epochs=10, seed=0, batch_size=32,
                   lr=0.001, weight_decay=0.0, label_smoothing=0.0):
    """Joint training of encoder, aggregator stack and bilinear head.

    Examples are (input, label) pairs for multiclass or (input, labels)
    with an iterable of labels for multilabel.  Train labels must come
    from classes.seen, dev labels from classes.dev.  Per epoch the dev
    loss is computed in eval mode; the returned checkpoint is the
    parameter snapshot of the epoch with the lowest dev loss (first on
    ties), falling back to train loss when there is no dev data.  The
    live parameters are left at that snapshot, so the model is ready
    for prediction when training returns.

    `label_smoothing` spreads that fraction of the target mass uniformly
    over the seen classes.  Plain cross entropy on separable data has no
    finite optimum, so margins keep growing wherever the optimizer
    happens to push them; the smoothed loss bottoms out at equal, finite
    logit gaps, which is what a score used for ranking should look like.
    Multiclass only.

    Everything stochastic runs off streams derived from `seed`, so two
    runs with the same inputs are bitwise identical.
    """
    if loss_mode not in ("multiclass", "multilabel"):
        raise ConfigError(f"unknown loss mode {loss_mode!r}")
    if not 0.0 <= label_smoothing < 1.0:
        raise ConfigError(f"label_smoothing must be in [0, 1), got {label_smoothing}")
    if label_smoothing and loss_mode != "multiclass":
        raise ConfigError("label smoothing applies to multiclass training only")
    if not train_examples:
        raise DataError("no training examples")
    seen = list(classes.seen)
    seen_index = {c: i for i, c in enumerate(seen)}
    dev = list(classes.dev)
    dev_index = {c: i for i, c in enumerate(dev)}
    _validate_labels(train_examples, seen_index, loss_mode, "train")
    _validate_labels(dev_examples, dev_index, loss_mode, "dev")
    shuffle_rng = make_rng("train-shuffle", seed)

    def batches():
        order = shuffle_rng.permutation(len(train_examples))
        for start in range(0, len(order), batch_size):
            yield order[start:start + batch_size]

    def batch_loss(reps, batch):
        losses = [
            _example_loss(head.scores(encoder.encode(x), reps), label, seen_index,
                          loss_mode, label_smoothing)
            for x, label in (train_examples[i] for i in batch)
        ]
        return ad.mean(ad.stack(losses))

    def dev_loss(reps):
        return float(np.mean([
            float(_example_loss(head.scores(encoder.encode(x), reps), label, dev_index, loss_mode).data)
            for x, label in dev_examples
        ]))

    return _fit(
        model_params(class_encoder, encoder, head), class_encoder, seen,
        dev if dev_examples else [], batches, batch_loss, dev_loss,
        epochs, seed, lr, weight_decay,
    )


def _validate_labels(examples, index, loss_mode, split):
    for i, (_, label) in enumerate(examples):
        if loss_mode == "multiclass":
            if label not in index:
                raise DataError(f"{split} example {i} labeled {label!r}, not a {split} class")
        else:
            labels = list(label)
            if not labels:
                raise DataError(f"{split} example {i} has no labels")
            for lab in labels:
                if lab not in index:
                    raise DataError(f"{split} example {i} labeled {lab!r}, not a {split} class")


def _example_loss(scores, label, index, loss_mode, label_smoothing=0.0):
    if loss_mode == "multiclass":
        target = index[label]
        ce = ad.cross_entropy(scores, target)
        if not label_smoothing:
            return ce
        # mean_c -log p_c = logsumexp - mean(z) = CE + z_target - mean(z),
        # so the smoothed loss (1 - e) CE + e mean_c -log p_c needs no log
        # of a probability that may underflow
        gap = ad.subtract(ad.element(scores, target), ad.mean(scores))
        return ad.add(ce, ad.scale(gap, label_smoothing))
    target = np.zeros(len(index))
    for lab in label:
        target[index[lab]] = 1.0
    return ad.mean(ad.binary_cross_entropy(scores, target))


def train_l2(class_encoder, classes, epochs=500, seed=0, lr=0.001, weight_decay=0.0):
    """Fit the aggregator stack so phi(y) regresses onto target vectors.

    One epoch is one full-batch step over the seen classes, minimizing
    the summed squared error.  Dev classes (with targets) drive
    checkpoint selection the same way dev examples do for the bilinear
    head.
    """
    targets = classes.targets or {}
    for c in list(classes.seen) + list(classes.dev):
        if c not in targets:
            raise DataError(f"no regression target for class {c!r}")
    target_dim = np.asarray(targets[classes.seen[0]]).shape[0]
    if target_dim != class_encoder.stack.out_dim:
        raise ConfigError(
            f"target dim {target_dim} does not match stack output {class_encoder.stack.out_dim}"
        )

    def class_losses(class_ids, reps):
        return [
            ad.l2_loss(phi, ad.constant(np.asarray(targets[c], dtype=np.float64)))
            for c, phi in zip(class_ids, reps)
        ]

    def batch_loss(reps, _):
        return ad.sum(ad.stack(class_losses(classes.seen, reps)))

    def dev_loss(reps):
        return float(np.sum([float(loss.data) for loss in class_losses(classes.dev, reps)]))

    return _fit(
        model_params(class_encoder), class_encoder, classes.seen, classes.dev,
        lambda: [None], batch_loss, dev_loss, epochs, seed, lr, weight_decay,
    )


class ClassReps(Mapping):
    """Candidate class representations as one read-only (C, d) matrix.

    `ids` holds the class ids in sorted order and row i of `matrix` is
    phi of ids[i]; `reps[c]` is a view of that row.  Built from any
    {class id: phi} mapping whose values are arrays or Tensors of one
    width.
    """

    def __init__(self, class_reps):
        if not class_reps:
            raise ContractError("no candidate classes")
        self.ids = tuple(sorted(class_reps))
        self._row = {c: i for i, c in enumerate(self.ids)}
        rows = [class_reps[c] for c in self.ids]
        try:
            matrix = np.array([r.data if isinstance(r, ad.Tensor) else r for r in rows],
                              dtype=np.float64)
        except ValueError:
            raise ContractError("class representations differ in width") from None
        if matrix.ndim != 2:
            raise ContractError(f"class representations must be vectors, got shape {matrix.shape[1:]}")
        matrix.flags.writeable = False
        self.matrix = matrix

    def __getitem__(self, c):
        return self.matrix[self._row[c]]

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)

    def __contains__(self, c):
        return c in self._row


def candidate_scores(theta, head, class_reps, mode="multiclass"):
    """The sorted candidate ids and their scores, as `predict` ranks them.

    Every candidate is scored against the one vector theta B A (theta
    for "l2") in a single stacked product, which rounds exactly like
    scoring each candidate on its own.  Arguments are as for `predict`.
    """
    if not class_reps:
        raise ContractError("no candidate classes")
    if mode not in ("multiclass", "multilabel", "l2"):
        raise ConfigError(f"unknown predict mode {mode!r}")
    if not isinstance(class_reps, ClassReps):
        class_reps = ClassReps(class_reps)
    theta = theta.data if isinstance(theta, ad.Tensor) else np.asarray(theta, dtype=np.float64)
    width = class_reps.matrix.shape[1]
    if mode == "l2":
        vec = theta
        if width == theta.shape[0] + 1:
            vec = np.concatenate([theta, [1.0]])
        elif width != theta.shape[0]:
            raise ContractError(f"phi dim {width} incompatible with theta dim {theta.shape[0]}")
    else:
        if theta.shape != (head.theta_dim,) or width != head.phi_dim:
            raise ContractError(
                f"theta {theta.shape} and phi width {width} do not fit a "
                f"({head.theta_dim}, {head.phi_dim}) head"
            )
        vec = theta @ head.score_matrix()
    scores = ad.dot_rows(ad.constant(class_reps.matrix), ad.constant(vec)).data
    return list(class_reps.ids), scores


def predict(theta, head, class_reps, mode="multiclass"):
    """Rank or select candidate classes for one example encoding.

    Args:
        theta: example encoding as a plain array (or Tensor).
        head: BilinearHead for the bilinear modes; ignored for "l2".
        class_reps: {class id: phi} over the candidate set, as arrays
            or Tensors of one width; a ClassReps is scored as it is.
        mode: "multiclass" ranks all candidates (ties by id), returning
            a list; "multilabel" returns the set with positive score;
            "l2" ranks by dot product, appending a bias 1 to theta when
            phi carries one extra dimension.
    """
    ids, scores = candidate_scores(theta, head, class_reps, mode)
    if mode == "multilabel":
        return {ids[i] for i in np.flatnonzero(scores > 0.0).tolist()}
    # ids are sorted, so a stable sort breaks score ties by id
    return [ids[i] for i in np.argsort(-scores, kind="stable").tolist()]


def class_representations(class_encoder, class_ids, mode="eval"):
    """phi for each class id, as one ClassReps over the sorted ids."""
    with ad.no_grad():
        return ClassReps({c: class_encoder.encode(c, mode=mode).data for c in class_ids})
