"""Compatibility training between example encodings and class encodings.

A class encoding phi(y) comes from running the aggregator stack over
the class node's sampled neighborhood; an example encoding theta(x)
comes from one of the example encoders.  Two heads are supported: a
low-rank bilinear score theta' B A phi trained with cross entropy or
per-class binary cross entropy, and a regression head that pulls phi(y)
toward fixed target vectors and picks the highest dot product at test time.
"""

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .aggregators import forward_roots, plan_forward, run_forward
from .errors import ConfigError, ContractError, DataError, DivergenceError
from .seeding import make_rng


def repeated(names):
    """The first name that occurs twice in `names`, or None."""
    return next((name for name, n in Counter(names).items() if n > 1), None)


@dataclass(frozen=True)
class ClassSet:
    """Seen / unseen split, plus the dev classes used for checkpointing.

    An evaluation fold is a ClassSet whose unseen classes are tested.
    `targets` carries per-class regression targets for the L2 head;
    bilinear training ignores it.
    """

    seen: tuple
    unseen: tuple
    dev: tuple = ()
    targets: dict | None = None

    def __post_init__(self):
        for split in ("seen", "unseen", "dev"):
            twice = repeated(getattr(self, split))
            if twice is not None:
                raise ContractError(f"class {twice!r} is listed twice in {split}")
        seen, unseen, dev = set(self.seen), set(self.unseen), set(self.dev)
        if seen & unseen or seen & dev or unseen & dev:
            raise ContractError("seen, dev and unseen classes must be disjoint")
        if not self.seen:
            raise ContractError("at least one seen class is required")


class BilinearHead:
    """Low-rank compatibility score theta' B A phi.

    B is (theta_dim, rank), A is (rank, phi_dim); rank bounds the rank
    of the full bilinear form, which is what keeps the head small when
    the two sides are wide.  `scores` is one tape node per example
    (`ad.bilinear_scores`), whatever the number of candidates.
    `score_matrix` keeps the B A it last formed, so an eval pass forms
    it once, not once per example.
    """

    def __init__(self, theta_dim, phi_dim, rank, *, rng, name="head"):
        if rank < 1 or rank > min(theta_dim, phi_dim):
            raise ConfigError(
                f"rank must be in [1, {min(theta_dim, phi_dim)}], got {rank}"
            )
        self.theta_dim = theta_dim
        self.phi_dim = phi_dim
        self.rank = rank
        self.b = ad.param((theta_dim, rank), rng, name=f"{name}/B")
        self.a = ad.param((rank, phi_dim), rng, name=f"{name}/A")
        # (key, B A) from the last score_matrix call
        self._kept = None

    def parameters(self):
        return {self.b.name: self.b, self.a.name: self.a}

    def score(self, theta, phi):
        return ad.matmul(ad.matmul(theta, self.b), ad.matmul(self.a, phi))

    def scores(self, theta, phis):
        """Score theta against the (C, phi_dim) phi matrix (a list is stacked), as one (C,) node."""
        return ad.bilinear_scores(theta, self.b, self.a, phis)

    def score_matrix(self):
        """The full (theta_dim, phi_dim) form B A, as a read-only array.

        B A is formed once per parameter state and kept with a key: the
        shape, strides, dtype and bytes of the `b.data` and `a.data` it
        came from.  Every way a parameter changes changes that key, be it
        Adam's in-place step, a write into the array or a new array
        assigned to `data` (a checkpoint restore or load), so the kept
        matrix is bitwise `b.data @ a.data` whenever it is returned.  The
        strides are in the key because numpy's matmul picks its kernel
        by layout, and two layouts of one matrix can round differently.
        """
        b, a = self.b.data, self.a.data
        key = (b.shape, b.strides, b.dtype, b.tobytes(), a.shape, a.strides, a.dtype, a.tobytes())
        kept = self._kept
        if kept is None or kept[0] != key:
            matrix = b @ a
            matrix.flags.writeable = False
            self._kept = kept = (key, matrix)
        return kept[1]


class GnnClassEncoder:
    """Binds an aggregator stack to one graph context.

    The same stack can be re-bound to a different graph for inductive
    evaluation; parameters live on the stack, not the binding.  A
    binding keeps the ForwardPlan of each root sequence it encodes: the
    graph, features, hit tables and seed it binds fix a plan, and the
    parameters never change it.
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
        # (roots, hop limits) -> ForwardPlan, for this binding only
        self._plans = {}

    def rebind(self, graph, features, hits):
        return GnnClassEncoder(self.stack, graph, features, hits, seed=self.seed)

    def parameters(self):
        return self.stack.parameters()

    def encode(self, class_node, mode="eval", rng=None):
        """phi of one class id as an (out_dim,) tensor, or of a sequence of
        ids as one (len, out_dim) tensor in that order, repeats included,
        built by one forward over the union of their truncated k-hop
        neighborhoods: a root keeps a node's top hop_limits[d] neighbors
        by hit probability at the shallowest depth d where it reaches it.
        "train" mode draws each lstm permutation from `rng`, which it
        requires; "eval" derives it from (seed, node id).

        Every call checks its arguments.  The first call for a root
        sequence under the stack's hop limits plans that forward
        (`plan_forward`), reading each hit table it needs and each leaf's
        feature once; every call runs the kept plan (`run_forward`),
        which reads neither and gives a fresh binding's bits.  Only
        repeated encodes of one root sequence gain: `_fit` re-encodes
        `seen` every step and `dev` every epoch, while `kgzsl eval`
        encodes each fold's classes once, through a binding of that
        fold's own over one shared HitSource, so each fold's plan goes
        with its binding.
        """
        roots = forward_roots(self.graph, class_node, mode, rng)
        key = (tuple(roots), tuple(self.stack.hop_limits))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = plan_forward(self.stack, self.graph, self.features, self.hits,
                                                   roots, self.seed)
        return run_forward(self.stack, plan, class_node, mode, rng)


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

    Each epoch runs one Adam step per batch that `batches()` yields.  A
    step encodes the seen classes with one train-mode `encode(seen)`
    call off the `train-perm` stream, one forward over the union of
    their DAGs, as `class_representations` makes in eval mode; then
    `batch_loss(reps, batch)` gives the scalar to minimize from that
    (len(seen), d) tensor, whose rows follow `seen`.  The epoch's train
    loss is the mean of its batch losses.  With dev classes,
    `dev_loss(reps)` scores the (len(dev), d) tensor of their eval-mode
    encodings, made under no_grad by one `encode(dev)` call.  The
    selected epoch is the one with the lowest dev loss, or train loss
    without dev classes, the first winning ties; the live parameters
    are left at its snapshot.  A non-finite loss raises DivergenceError,
    since no comparison can rank it.
    """
    if epochs < 1:
        raise ConfigError(f"epochs must be at least 1, got {epochs}")
    opt = ad.Adam(params, lr=lr, weight_decay=weight_decay)
    perm_rng = make_rng("train-perm", seed)

    def step(batch):
        # a function scope, so this batch's graph is freed before the
        # next batch builds its own
        opt.zero_grad()
        loss = batch_loss(class_encoder.encode(seen, mode="train", rng=perm_rng), batch)
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
                held = dev_loss(class_encoder.encode(dev, mode="eval"))
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
            # a str is iterable too, and would train on its characters
            if isinstance(label, str):
                raise DataError(f"{split} example {i} has the one label {label!r}; "
                                "multilabel examples take a list of labels")
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
    given = classes.targets or {}
    out_dim = class_encoder.stack.out_dim
    targets = {}
    for c in list(classes.seen) + list(classes.dev):
        if c not in given:
            raise DataError(f"no regression target for class {c!r}")
        try:
            target = np.asarray(given[c], dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError(f"regression target for class {c!r} is not numeric") from None
        if target.shape != (out_dim,):
            raise ConfigError(
                f"regression target for class {c!r} has shape {target.shape}, "
                f"stack output is ({out_dim},)"
            )
        if not np.isfinite(target).all():
            raise DataError(f"regression target for class {c!r} has a non-finite value")
        targets[c] = target

    def batch_loss(reps, _):
        return ad.l2_loss(reps, ad.constant(np.array([targets[c] for c in classes.seen])))

    def dev_loss(reps):
        return float(ad.l2_loss(reps, ad.constant(np.array([targets[c] for c in classes.dev]))).data)

    return _fit(
        model_params(class_encoder), class_encoder, classes.seen, classes.dev,
        lambda: [None], batch_loss, dev_loss, epochs, seed, lr, weight_decay,
    )


class ClassReps(Mapping):
    """Candidate class representations as one read-only (C, d) matrix.

    `ClassReps(ids, matrix)` holds `matrix` itself, made read-only: row
    i is phi of ids[i], and `ids` are sorted and distinct, as
    `class_representations`, the one producer, makes them.  `reps[c]`
    is a view of c's row.
    """

    def __init__(self, ids, matrix):
        self.ids = tuple(ids)
        self._row = {c: i for i, c in enumerate(self.ids)}
        matrix.flags.writeable = False
        self.matrix = matrix

    def __getitem__(self, c):
        return self.matrix[self._row[c]]

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)


def candidate_scores(theta, head, class_reps, mode="multiclass"):
    """The candidate ids and their scores, as `predict` reads them.

    Every candidate is scored against the one vector theta B A (theta
    for "l2"; B A is the head's kept `score_matrix()`) by one row-wise
    `np.vecdot`, which rounds exactly like scoring each candidate on
    its own.  Arguments are as for `predict`; theta must be a vector in
    every mode.  Scores are not checked for being finite here; `predict`
    does that.  The ids are the ClassReps' own `ids` tuple.
    """
    if not isinstance(class_reps, ClassReps):
        raise ContractError(f"candidates must be a ClassReps, got {type(class_reps).__name__}")
    if mode not in ("multiclass", "multilabel", "l2"):
        raise ConfigError(f"unknown predict mode {mode!r}")
    theta = theta.data if isinstance(theta, ad.Tensor) else np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1:
        raise ContractError(f"theta must be a vector, got shape {theta.shape}")
    width = class_reps.matrix.shape[1]
    if mode == "l2":
        vec = theta
        if width == theta.shape[0] + 1:
            vec = np.concatenate([theta, [1.0]])
        elif width != theta.shape[0]:
            raise ContractError(f"phi dim {width} incompatible with theta dim {theta.shape[0]}")
    else:
        if theta.shape[0] != head.theta_dim or width != head.phi_dim:
            raise ContractError(
                f"theta {theta.shape} and phi width {width} do not fit a "
                f"({head.theta_dim}, {head.phi_dim}) head"
            )
        vec = theta @ head.score_matrix()
    return class_reps.ids, np.vecdot(class_reps.matrix, vec)


def predict(theta, head, class_reps, mode="multiclass"):
    """Select the predicted classes for one example encoding.

    Args:
        theta: example encoding as a plain array (or Tensor).
        head: BilinearHead for the bilinear modes; ignored for "l2".
        class_reps: the candidates' ClassReps, as `class_representations`
            makes it; anything else is a ContractError.
        mode: "multiclass" returns [best], the one candidate with the
            highest score, the smaller id winning an exact tie;
            "multilabel" returns the set with positive score; "l2"
            returns [best] by dot product, appending a bias 1 to theta
            when phi carries one extra dimension.

    A NaN or infinite score raises DataError naming the first such
    candidate in id order.  An example pays only for its own products,
    theta (B A) and one row-wise product with the candidates: B A is
    the head's `score_matrix()`, formed once per parameter state.
    """
    ids, scores = candidate_scores(theta, head, class_reps, mode)
    # argmax stops at the first NaN or finds +inf, and argmin at the first
    # NaN or finds -inf; only then is the first non-finite candidate looked
    # up.  Neither can overflow, as a sum of finite scores near the float64
    # limit does, with a RuntimeWarning
    best = scores.argmax()
    if not (math.isfinite(scores[best]) and math.isfinite(scores[scores.argmin()])):
        i = int(np.isfinite(scores).argmin())
        raise DataError(f"candidate {ids[i]!r} scores {float(scores[i])!r}")
    if mode == "multilabel":
        return {ids[i] for i in np.flatnonzero(scores > 0.0).tolist()}
    # ids are sorted and argmax takes the first maximum, so ties go to the smaller id
    return [ids[best]]


def class_representations(class_encoder, class_ids, mode="eval"):
    """phi for each class id, as one ClassReps over the sorted distinct ids.

    The ids go to one `encode(ids)` call under no_grad, so every class's
    phi comes from one forward, in which a neighborhood that several
    classes sample is built once; in eval mode each phi is bitwise what
    encoding its class alone gives.  The (len, d) matrix that call
    returns, one row per id, becomes the ClassReps' own matrix.

    Class representations are encoded in eval mode only: any other
    `mode` is a ContractError.
    """
    if mode != "eval":
        raise ContractError(f"class representations are encoded in eval mode only, got mode {mode!r}")
    ids = sorted(set(class_ids))
    with ad.no_grad():
        phis = class_encoder.encode(ids, mode="eval")
    return ClassReps(ids, phis.data)
