"""The benchmark's workloads, each a closed loop with one client.

A workload's constructor is its set-up: it generates the inputs from
the seed alone and warms what the timed ops should not pay for.  `op`
runs one operation through the program's public functions and returns
(items done, output), calling `tick` where the op may be paused for
the harness's speed probe; `check` verifies that output outside the op's
timing; `finish` runs the checks and probes that need the whole run.
Every call into a layer goes through a handle from `_bind`: the
function itself for untraced ops, a span-recording wrapper for traced
ones.
"""

import hashlib
import json
import os
import time
from dataclasses import asdict
from functools import partial
from types import SimpleNamespace

import numpy as np

from kgzsl import autodiff as ad
from kgzsl.aggregators import GnnStack, make_layer
from kgzsl.encoders import VectorEncoder
from kgzsl.evaluation import fold_metrics
from kgzsl.kg import ingest, serialize
from kgzsl.sampler import HitSource, HitTable, WalkConfig
from kgzsl.seeding import make_rng
from kgzsl.synth import SynthSpec, generate_synthetic
from kgzsl.zeroshot import (
    BilinearHead, GnnClassEncoder, class_representations, predict, train_bilinear,
)

from tracing import CountingFeatures, hits_through, through

# the model of the acceptance recipe (criteria 5-7)
KIND = "transformer"
LAYERS = 2
HOP_LIMITS = (8, 8)
RANK = 8
WALK_STEPS = 20
WALK_RESTARTS = 10
LR = 0.01
BATCH_SIZE = 32


def _generate(spec):
    start = time.perf_counter()
    data = generate_synthetic(spec)
    return data, time.perf_counter() - start


def _warm(hits, nodes):
    for node in nodes:
        hits(node)


def _digest(arrays):
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    return h.hexdigest()


class Model:
    """Seeded-init transformer stack, example encoder and bilinear head."""

    def __init__(self, data, hits, seed):
        d = data.spec.feature_dim
        layers = [
            make_layer(KIND, d, d, activation="relu", rng=make_rng("gnn-init", seed, i))
            for i in range(LAYERS)
        ]
        self.class_enc = GnnClassEncoder(
            GnnStack(layers, list(HOP_LIMITS)), data.train_graph, data.features, hits, seed=seed,
        )
        self.encoder = VectorEncoder(d)
        self.head = BilinearHead(d, d, RANK, rng=make_rng("head-init", seed))

    def parameters(self):
        """All trainable tensors, keyed as train_bilinear keys them."""
        out = {}
        for prefix, part in (("encoder", self.encoder), ("gnn", self.class_enc), ("head", self.head)):
            out.update({f"{prefix}/{name}": t for name, t in part.parameters().items()})
        return out

    def digest(self):
        return _digest({k: t.data for k, t in self.parameters().items()})


MODEL_PARAMS = {
    "kind": KIND, "layers": LAYERS, "hop_limits": list(HOP_LIMITS), "rank": RANK,
    "walk_steps": WALK_STEPS, "walk_restarts": WALK_RESTARTS,
}


class Workload:
    name = None
    sizes = None

    def __init__(self, seed, size, tracer, workdir):
        self.seed = seed
        self.size = size
        self.tracer = tracer
        self.walk = WalkConfig(steps=WALK_STEPS, restarts=WALK_RESTARTS, seed=seed)
        self.data, self.generate_s = _generate(SynthSpec(seed=seed, **self.sizes[size]))

    def params(self):
        return {"spec": asdict(self.data.spec), "model": MODEL_PARAMS}

    def needs_more(self):
        """Whether the run must go on past its time to have something to check."""
        return False

    def finish(self):
        """(report entries, check failures) for the whole run."""
        return {}, []

    def close(self):
        pass


class TrainAttr(Workload):
    """Minibatch training, one op per step, as train_bilinear runs it.

    train_bilinear itself cannot run yet (its loss call passes one
    argument too many), so `op` repeats its loop body line by line with
    label_smoothing=0: the same RNG streams, the same re-encoding of
    every seen class per batch, the same mean(stack(losses)) loss.
    Training restarts from the seeded initialisation every `epochs`
    epochs, so each completed session must reproduce the first bitwise.
    """

    name = "train-attr"
    sizes = {"full": {}, "tiny": {"examples_per_class": 16}}
    epochs = {"full": 5, "tiny": 2}

    def __init__(self, seed, size="full", tracer=None, workdir=None):
        super().__init__(seed, size, tracer, workdir)
        data = self.data
        self.train_hits = HitSource(data.train_graph, self.walk)
        self.traced_hits = hits_through(self.tracer, self.train_hits)
        _warm(self.traced_hits, data.train_graph.nodes)
        self.full_hits = HitSource(data.graph, self.walk)
        _warm(self.full_hits, data.graph.nodes)
        self.pairs = data.train_pairs()
        self.seen = list(data.classes.seen)
        self.seen_index = {c: i for i, c in enumerate(self.seen)}
        self.sessions = []
        self.first_model = None
        self.epoch1_digest = None
        self.session = self._new_session()

    def params(self):
        out = super().params()
        out.update(epochs_per_session=self.epochs[self.size], batch_size=BATCH_SIZE, lr=LR)
        return out

    def _new_session(self):
        model = Model(self.data, self.train_hits, self.seed)
        opt = ad.Adam(model.parameters(), lr=LR)
        s = SimpleNamespace(
            model=model, opt=opt, batches=[], epoch_losses=[],
            shuffle_rng=make_rng("train-shuffle", self.seed),
            perm_rng=make_rng("train-perm", self.seed),
            calls={False: self._bind(model, opt, None)},
        )
        if self.tracer is not None:
            s.calls[True] = self._bind(model, opt, self.tracer)
        return s

    def _bind(self, model, opt, tracer):
        class_enc = model.class_enc
        if tracer is not None:
            class_enc = class_enc.rebind(
                self.data.train_graph, CountingFeatures(self.data.features, tracer.counts),
                self.traced_hits,
            )
        return SimpleNamespace(
            encode=through(tracer, "aggregators", class_enc.encode),
            encode_x=through(tracer, "encoders", model.encoder.encode),
            scores=through(tracer, "zeroshot.score", model.head.scores),
            loss=through(tracer, "zeroshot.score", ad.cross_entropy),
            reduce=through(tracer, "zeroshot.score", lambda losses: ad.mean(ad.stack(losses))),
            backward=through(tracer, "autodiff.backward", ad.backward),
            zero_grad=through(tracer, "autodiff.adam", opt.zero_grad),
            step=through(tracer, "autodiff.adam", opt.step),
        )

    def op(self, traced, tick):
        s = self.session
        c = s.calls[traced]
        if not s.batches:
            order = s.shuffle_rng.permutation(len(self.pairs))
            s.batches = [order[i:i + BATCH_SIZE] for i in range(0, len(order), BATCH_SIZE)]
            s.epoch_losses.append([])
        batch = s.batches.pop(0)
        c.zero_grad()
        reps = [c.encode(cls, mode="train", rng=s.perm_rng) for cls in self.seen]
        losses = []
        for i in batch:
            x, label = self.pairs[i]
            scores = c.scores(c.encode_x(x), reps)
            losses.append(c.loss(scores, self.seen_index[label]))
        loss = c.reduce(losses)
        c.backward(loss)
        c.step()
        s.epoch_losses[-1].append(float(loss.data))
        return len(batch), (loss, reps)

    def check(self, output, traced):
        loss, reps = output
        s = self.session
        failures = []
        if not np.isfinite(loss.data):
            failures.append(f"non-finite loss {float(loss.data)!r} in epoch {len(s.epoch_losses)}")
        if traced:
            counts = self.tracer.counts
            counts["autodiff.tape_nodes"] += len(ad.Tape.from_output(loss))
            counts["aggregators.tape_nodes"] += sum(len(ad.Tape.from_output(r)) for r in reps)
        if s.batches:
            return failures
        if len(s.epoch_losses) == 1 and self.epoch1_digest is None:
            self.epoch1_digest = s.model.digest()
        if len(s.epoch_losses) == self.epochs[self.size]:
            failures += self._close_session(s)
            self.session = self._new_session()
        return failures

    def _close_session(self, s):
        losses = [v for epoch in s.epoch_losses for v in epoch]
        summary = {
            "params_digest": s.model.digest(),
            "loss_digest": _digest({"loss": np.array(losses)}),
            "epoch_mean_loss": [float(np.mean(e)) for e in s.epoch_losses],
        }
        failures = []
        first, last = summary["epoch_mean_loss"][0], summary["epoch_mean_loss"][-1]
        if not last < first:
            failures.append(f"last epoch mean loss {last!r} is not below the first {first!r}")
        if self.sessions:
            for key in ("params_digest", "loss_digest"):
                if summary[key] != self.sessions[0][key]:
                    failures.append(f"session {len(self.sessions)} {key} differs from session 0")
        else:
            self.first_model = s.model
        self.sessions.append(summary)
        return failures

    def needs_more(self):
        return not self.sessions

    def finish(self):
        if not self.sessions:
            return {}, ["no training session completed"]
        first = self.sessions[0]
        report = {
            "sessions_completed": len(self.sessions),
            "params_digest": first["params_digest"],
            "loss_digest": first["loss_digest"],
            "epoch_mean_loss": first["epoch_mean_loss"],
            "unseen_top1": self._unseen_top1(self.first_model),
            "train_bilinear_probe": self._probe_train_bilinear(),
        }
        return report, []

    def _unseen_top1(self, model):
        """Rebind the first session's model to the full graph; top-1 on unseen examples."""
        bound = model.class_enc.rebind(self.data.graph, self.data.features, self.full_hits)
        reps = class_representations(bound, sorted(self.data.classes.unseen), mode="eval")
        pairs = [
            ((predict(model.encoder.encode(x), model.head, reps, "multiclass")[0],), (gold,))
            for x, gold in self.data.test_pairs()
        ]
        return fold_metrics([pairs]).micro

    def _probe_train_bilinear(self):
        """One epoch of the program's own loop, compared with this loop's first epoch."""
        model = Model(self.data, self.train_hits, self.seed)
        try:
            train_bilinear(
                self.pairs, [], model.encoder, model.class_enc, model.head, self.data.classes,
                epochs=1, seed=self.seed, batch_size=BATCH_SIZE, lr=LR, label_smoothing=0.0,
            )
        except Exception as exc:  # the probe reports how the program fails; it is not an op
            return f"error: {type(exc).__name__}: {exc}"
        return "matches loop" if model.digest() == self.epoch1_digest else "differs from loop"


def top1_mismatches(thetas, predicted, head, reps):
    """Examples whose predicted top-1 is not the reference argmax.

    The reference scores theta B A phi for every candidate in one numpy
    matmul and takes the argmax, ties going to the smaller id.  One
    matmul rounds differently from a product per candidate, so a
    prediction scoring within 1e-12 (relative) of the best also passes.
    """
    ids = sorted(reps)
    column = {c: j for j, c in enumerate(ids)}
    scores = thetas @ head.b.data @ head.a.data @ np.stack([reps[c] for c in ids]).T
    best = scores.argmax(axis=1)
    bad = []
    for i, pred in enumerate(predicted):
        top = scores[i, best[i]]
        if pred == ids[best[i]]:
            continue
        if pred not in column or scores[i, column[pred]] < top - 1e-12 * max(1.0, abs(top)):
            bad.append(i)
    return bad


class InferWide(Workload):
    """One eval pass, like one fold of `kgzsl eval`, on a wide graph.

    Encodes every unseen class in eval mode, then ranks all of them for
    every test example.  The untrained, seeded-init model is rebound
    from the train graph to the full graph first, as eval does with a
    trained one.
    """

    name = "infer-wide"
    sizes = {
        "full": dict(num_classes=400, attribute_pool=100, attrs_per_class=8,
                     num_unseen=300, examples_per_class=2),
        "tiny": dict(num_classes=40, attribute_pool=20, attrs_per_class=4,
                     num_unseen=20, examples_per_class=2),
    }

    def __init__(self, seed, size="full", tracer=None, workdir=None):
        super().__init__(seed, size, tracer, workdir)
        data = self.data
        self.model = Model(data, HitSource(data.train_graph, self.walk), seed)
        full_hits = HitSource(data.graph, self.walk)
        traced_hits = hits_through(tracer, full_hits)
        _warm(traced_hits, data.graph.nodes)
        self.class_enc = self.model.class_enc.rebind(data.graph, data.features, full_hits)
        self.unseen = sorted(data.classes.unseen)
        self.pairs = data.test_pairs()
        self.calls = {False: self._bind(self.class_enc, None)}
        if tracer is not None:
            traced_enc = self.class_enc.rebind(
                data.graph, CountingFeatures(data.features, tracer.counts), traced_hits,
            )
            self.calls[True] = self._bind(traced_enc, tracer)
        self.first = None
        self.accuracy = None
        self.checked = 0

    def _bind(self, class_enc, tracer):
        return SimpleNamespace(
            encode=through(tracer, "aggregators", class_enc.encode),
            encode_x=through(tracer, "encoders", self.model.encoder.encode),
            predict=through(tracer, "zeroshot.predict", predict),
            fold_metrics=through(tracer, "evaluation", fold_metrics),
        )

    def op(self, traced, tick):
        c = self.calls[traced]
        head = self.model.head

        def encode(cls, mode):
            phi = c.encode(cls, mode=mode)
            tick()
            return phi

        reps = class_representations(SimpleNamespace(encode=encode), self.unseen, mode="eval")
        top1 = []
        for x, _ in self.pairs:
            top1.append(c.predict(c.encode_x(x), head, reps, "multiclass")[0])
            tick()
        result = c.fold_metrics([[((p,), (gold,)) for p, (_, gold) in zip(top1, self.pairs)]])
        return len(self.pairs), (reps, top1, result)

    def check(self, output, traced):
        reps, top1, result = output
        self.checked += 1
        failures = []
        thetas = np.stack([x for x, _ in self.pairs])
        bad = top1_mismatches(thetas, top1, self.model.head, reps)
        if bad:
            failures.append(
                f"{len(bad)} of {len(top1)} top-1 predictions differ from the numpy "
                f"reference, first at example {bad[0]}"
            )
        hits = sum(p == gold for p, (_, gold) in zip(top1, self.pairs))
        if result.micro != hits / len(top1):
            failures.append(f"fold_metrics micro {result.micro!r} != {hits}/{len(top1)}")
        if self.first is None:
            self.first = (reps, top1)
            self.accuracy = result.micro
        else:
            first_reps, first_top1 = self.first
            changed = [c for c in self.unseen if reps[c].tobytes() != first_reps[c].tobytes()]
            if changed:
                failures.append(f"eval-mode encodings of {len(changed)} classes differ between passes")
            if top1 != first_top1:
                failures.append("predictions differ between passes")
        return failures

    def needs_more(self):
        return self.checked < 2

    def finish(self):
        return {"eval_top1_untrained": self.accuracy}, []


class SampleBig(Workload):
    """`kgzsl sample` without the file writes, on a 4,000-node graph.

    Ingests the graph's TSV, then builds a fresh HitSource over every
    node in sorted order and renders each table as JSON.
    """

    name = "sample-big"
    sizes = {
        "full": dict(num_classes=3000, attribute_pool=1000, attrs_per_class=8,
                     num_unseen=1000, examples_per_class=1),
        "tiny": dict(num_classes=60, attribute_pool=20, attrs_per_class=4,
                     num_unseen=20, examples_per_class=1),
    }

    def __init__(self, seed, size="full", tracer=None, workdir=".bench_out"):
        super().__init__(seed, size, tracer, workdir)
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, f"{self.name}-{os.getpid()}.tsv")
        serialize(self.data.graph, self.path)
        self.calls = {False: self._bind(None)}
        if tracer is not None:
            self.calls[True] = self._bind(tracer)
        self.digest = None
        self.checked = 0

    def _bind(self, tracer):
        return SimpleNamespace(
            ingest=through(tracer, "kg.ingest", ingest),
            jsonable=through(tracer, "sampler", HitTable.to_jsonable),
            hits=partial(hits_through, tracer),
        )

    def params(self):
        out = super().params()
        out["model"] = {"walk_steps": WALK_STEPS, "walk_restarts": WALK_RESTARTS}
        return out

    def op(self, traced, tick):
        c = self.calls[traced]
        graph = c.ingest(self.path)
        hits = c.hits(HitSource(graph, self.walk))
        tables = {}
        for node in sorted(graph.nodes):
            tables[node] = c.jsonable(hits(node))
            tick()
        return graph.num_nodes, (graph, tables)

    def check(self, output, traced):
        graph, tables = output
        self.checked += 1
        failures = []
        if graph.edges != self.data.graph.edges:
            failures.append("ingested edges differ from the serialized graph")
        if set(tables) != set(graph.nodes):
            failures.append("hit tables do not cover exactly the graph's nodes")
        wrong = [
            node for node, table in tables.items()
            if {n["id"] for n in table["neighbors"]} != set(graph.neighbors(node))
        ]
        if wrong:
            failures.append(f"{len(wrong)} tables' neighbor sets differ from the graph, e.g. {wrong[0]}")
        digest = hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failures.append("hit tables differ between ops")
        return failures

    def needs_more(self):
        return self.checked < 2

    def finish(self):
        return {"tables_digest": self.digest}, []

    def close(self):
        if os.path.exists(self.path):
            os.remove(self.path)


WORKLOADS = {w.name: w for w in (TrainAttr, InferWide, SampleBig)}
