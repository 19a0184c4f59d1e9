"""Graph aggregation layers and the stacked neighborhood forward pass.

Every layer follows the same AGGREGATE / COMBINE shape: pool the
neighbor representations into a single vector, then combine with the
node's own representation and apply a nonlinearity.  Four of the five
kinds are order-free over the neighbor multiset; to make that exact at
the bit level, neighbors are put into a canonical order (sorted by
their raw bytes) before any float reduction, because float addition
is not associative.  The sequence aggregator is order-sensitive by
design and takes an explicit permutation instead.

Every layer has one implementation, the level interface
``forward_group(prev, rows, node_args)``, which embeds a group of B
nodes with the same member count M at once:

- ``prev`` is the (N, in_dim) tensor of the level below, one row per
  node;
- ``rows`` is a (B, M) integer array of rows of ``prev``: each node
  itself first, then its sampled neighbors in rank order;
- ``node_args`` holds one extra per node, for the kinds that need it:
  the relations to each neighbor (``rgcn``) or the member permutation
  (``lstm``).

It returns a (B, out_dim) tensor.  All five kinds stack the group into
(B, M, in_dim) tensors and make one call of each op (per relation and
basis for ``rgcn``, per time step for ``lstm``), which rounds exactly
like B separate calls.  The per-node ``forward`` is the B = 1 case of
the same code.
"""

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, UnknownNodeError, UnknownRelationError
from .sampler import top_n
from .seeding import make_rng

ACTIVATIONS = {
    "relu": ad.relu,
    "leaky_relu": lambda t: ad.leaky_relu(t, 0.2),
    "tanh": ad.tanh,
    "sigmoid": ad.sigmoid,
    "identity": lambda t: t,
}


def _activation(name):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ConfigError(f"unknown activation {name!r}") from None


def canonical_rows(prev, rows):
    """`rows` with each node's neighbors (every column but the first) in canonical order."""
    data = prev.data
    return np.array([[r[0]] + sorted(r[1:], key=lambda i: data[i].tobytes()) for r in rows])


def _forward_one(layer, members, node_args=None):
    """A per-node forward: the layer's group forward with B = 1."""
    rows = np.arange(len(members))[None]
    return ad.row(layer.forward_group(ad.stack(members), rows, node_args), 0)


class MeanPoolLayer:
    """h_v = act(W * mean(N(v) union {v}))."""

    kind = "gcn"

    def __init__(self, in_dim, out_dim, activation="relu", rng=None, name="gcn"):
        if rng is None:
            rng = make_rng("init", name)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.act = _activation(activation)
        self.weight = ad.param((out_dim, in_dim), rng, name=f"{name}/W")

    def parameters(self):
        return {self.weight.name: self.weight}

    def forward(self, self_feat, neighbors):
        return _forward_one(self, [self_feat, *neighbors])

    def forward_group(self, prev, rows, node_args=None):
        members = ad.gather(prev, canonical_rows(prev, rows))
        return self.act(ad.matvec(self.weight, ad.mean(members, axis=1)))


class AttentionPoolLayer:
    """Project members, softmax-score each against the self node, blend.

    Scores are leaky_relu(a . [h'_u ; h'_v]) with a fixed 0.2 slope on
    the scorer regardless of the output activation.
    """

    kind = "gat"

    def __init__(self, in_dim, out_dim, activation="relu", rng=None, name="gat"):
        if rng is None:
            rng = make_rng("init", name)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.act = _activation(activation)
        self.weight = ad.param((out_dim, in_dim), rng, name=f"{name}/W")
        self.attn = ad.param((2 * out_dim,), rng, name=f"{name}/a")

    def parameters(self):
        return {self.weight.name: self.weight, self.attn.name: self.attn}

    def forward(self, self_feat, neighbors):
        return _forward_one(self, [self_feat, *neighbors])

    def forward_group(self, prev, rows, node_args=None):
        rows = canonical_rows(prev, rows)
        count, size = rows.shape
        projected = ad.matvec(self.weight, ad.gather(prev, rows))
        # the self row next to every member, for the [h'_u ; h'_v] scorer
        h_self = ad.matvec(self.weight, ad.gather(prev, np.repeat(rows[:, :1], size, axis=1)))
        scores = ad.dot_rows(ad.concat([projected, h_self], axis=2), self.attn)
        alpha = ad.softmax(ad.leaky_relu(scores, 0.2), axis=-1)
        pooled = ad.matmul(ad.reshape(alpha, (count, 1, size)), projected)
        return self.act(ad.reshape(pooled, (count, self.out_dim)))


class RelationalMeanLayer:
    """Per-relation normalized sums through shared basis matrices.

    a_v = sum_r (1/c_vr) sum_b alpha_br V_b (sum_{u in N_r(v)} h_u)
    h_v = act(a_v + W_self h_v).  With num_bases == len(relations) and
    an identity coefficient matrix this reduces to independent
    per-relation weights.
    """

    kind = "rgcn"

    def __init__(self, in_dim, out_dim, relations, num_bases=1, activation="relu", rng=None, name="rgcn"):
        if rng is None:
            rng = make_rng("init", name)
        if num_bases < 1:
            raise ConfigError(f"num_bases must be >= 1, got {num_bases}")
        if not relations:
            raise ConfigError("rgcn layer needs at least one relation")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.relations = tuple(relations)
        self._rel_index = {r: i for i, r in enumerate(self.relations)}
        self.num_bases = num_bases
        self.act = _activation(activation)
        self.bases = [ad.param((out_dim, in_dim), rng, name=f"{name}/V{b}") for b in range(num_bases)]
        self.coeff = {
            r: ad.param((num_bases,), rng, name=f"{name}/coeff/{r}") for r in self.relations
        }
        self.self_weight = ad.param((out_dim, in_dim), rng, name=f"{name}/Wself")

    def parameters(self):
        out = {t.name: t for t in self.bases}
        for t in self.coeff.values():
            out[t.name] = t
        out[self.self_weight.name] = self.self_weight
        return out

    def forward(self, self_feat, tagged_neighbors):
        """tagged_neighbors: iterable of (relation, tensor) pairs."""
        tagged = list(tagged_neighbors)
        members = [self_feat] + [feat for _, feat in tagged]
        return _forward_one(self, members, [[(rel,) for rel, _ in tagged]])

    def forward_group(self, prev, rows, node_args):
        """node_args: per node, the relations from it to each neighbor."""
        data = prev.data
        count, size = rows.shape
        # each node's neighbors in canonical order, as in canonical_rows, and
        # per relation a {0, 1} mask over them
        index = np.empty((count, size - 1), dtype=np.intp)
        masks = np.zeros((len(self.relations), count, size - 1, 1))
        for node, (r, relations) in enumerate(zip(rows, node_args)):
            ranked = sorted(zip(r[1:], relations), key=lambda pair: data[pair[0]].tobytes())
            for k, (u, rels) in enumerate(ranked):
                index[node, k] = u
                for rel in rels:
                    if rel not in self._rel_index:
                        raise UnknownRelationError(rel)
                    masks[self._rel_index[rel], node, k] = 1.0
        neighbors = ad.gather(prev, index)
        agg = None
        for rel, mask in zip(self.relations, masks):
            counts = mask.sum(axis=1)
            if not counts.any():
                continue
            keep = ad.constant(np.broadcast_to(mask, neighbors.shape))
            total = ad.sum(ad.multiply(neighbors, keep), axis=1)
            inverse = ad.constant(np.broadcast_to(1.0 / np.maximum(counts, 1.0), total.shape))
            normed = ad.multiply(total, inverse)
            coeff = self.coeff[rel]
            for b, basis in enumerate(self.bases):
                term = ad.multiply(ad.matvec(basis, normed), ad.element(coeff, b))
                agg = term if agg is None else ad.add(agg, term)
        combined = ad.matvec(self.self_weight, ad.gather(prev, rows[:, 0]))
        if agg is not None:
            combined = ad.add(agg, combined)
        return self.act(combined)


class _LstmCell:
    """Plain LSTM cell with separate per-gate weights."""

    def __init__(self, input_dim, hidden_dim, rng, name):
        def w(gate, kind, shape):
            return ad.param(shape, rng, name=f"{name}/{kind}{gate}")

        self.hidden_dim = hidden_dim
        self.wx = {g: w(g, "Wx", (hidden_dim, input_dim)) for g in "ifgo"}
        self.wh = {g: w(g, "Wh", (hidden_dim, hidden_dim)) for g in "ifgo"}
        self.b = {g: ad.zeros_param((hidden_dim,), name=f"{name}/b{g}") for g in "ifgo"}

    def parameters(self):
        out = {}
        for group in (self.wx, self.wh, self.b):
            for t in group.values():
                out[t.name] = t
        return out

    def step(self, x, h, c):
        """One step for an (input_dim,) input or a (B, input_dim) batch."""
        def gate(g):
            return ad.add(ad.add(ad.matvec(self.wx[g], x), ad.matvec(self.wh[g], h)), self.b[g])

        i = ad.sigmoid(gate("i"))
        f = ad.sigmoid(gate("f"))
        gg = ad.tanh(gate("g"))
        o = ad.sigmoid(gate("o"))
        c_new = ad.add(ad.multiply(f, c), ad.multiply(i, gg))
        h_new = ad.multiply(o, ad.tanh(c_new))
        return h_new, c_new

    def run_all(self, sequence):
        """All hidden states over a non-empty sequence, from a zero state."""
        h = c = ad.constant(np.zeros(sequence[0].shape[:-1] + (self.hidden_dim,)))
        states = []
        for x in sequence:
            h, c = self.step(x, h, c)
            states.append(h)
        return states


class SequencePoolLayer:
    """Run an LSTM over a permutation of N(v) union {v}, keep the last state.

    The hidden size equals the input size.  The combine step is
    act(W [h_v ; a_v]) where a_v is the final LSTM state, so with fresh
    permutations per call the layer is intentionally order-sensitive.
    """

    kind = "lstm"

    def __init__(self, in_dim, out_dim, activation="relu", rng=None, name="lstm"):
        if rng is None:
            rng = make_rng("init", name)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.act = _activation(activation)
        self.cell = _LstmCell(in_dim, in_dim, rng, name=f"{name}/cell")
        self.weight = ad.param((out_dim, 2 * in_dim), rng, name=f"{name}/W")

    def parameters(self):
        out = self.cell.parameters()
        out[self.weight.name] = self.weight
        return out

    def forward(self, self_feat, neighbors, permutation=None):
        """`permutation` is an index order over the members; required."""
        members = [self_feat, *neighbors]
        if permutation is None:
            raise ContractError("sequence aggregator needs an explicit permutation")
        order = list(permutation)
        if sorted(order) != list(range(len(members))):
            raise ContractError(f"permutation {order} is not a permutation of {len(members)} items")
        return _forward_one(self, members, [order])

    def forward_group(self, prev, rows, node_args):
        """node_args: per node, a permutation of its neighbors followed by itself."""
        sequence = np.take_along_axis(np.roll(rows, -1, axis=1), np.array(node_args), axis=1)
        a_v = self.cell.run_all([ad.gather(prev, sequence[:, t]) for t in range(sequence.shape[1])])[-1]
        combined = ad.concat([ad.gather(prev, rows[:, 0]), a_v], axis=1)
        return self.act(ad.matvec(self.weight, combined))


class TransformerPoolLayer:
    """One self-attention block over the member set, mean-pooled.

    Members are projected to ``proj_dim``, half the input width (at
    least 1), run through a single pre-norm attention + feedforward
    block with residuals (no positional encoding, so the member set
    stays unordered), projected back up and mean-pooled into a_v.  The
    feedforward hidden width equals the projected width.  There is
    exactly one attention block no matter how many layers are stacked
    above or below.

    The combine step is TrGCN's act(W [h_v ; a_v]): the node's own
    representation reaches the output through its own columns of W
    instead of only as one member of the pooled set, as in GraphSAGE's
    concatenation and the sequence aggregator here.
    """

    kind = "transformer"

    def __init__(self, in_dim, out_dim, activation="relu", rng=None, name="transformer"):
        if rng is None:
            rng = make_rng("init", name)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.act = _activation(activation)
        proj = self.proj_dim = max(1, in_dim // 2)
        self.p_in = ad.param((proj, in_dim), rng, name=f"{name}/Pin")
        self.wq = ad.param((proj, proj), rng, name=f"{name}/Wq")
        self.wk = ad.param((proj, proj), rng, name=f"{name}/Wk")
        self.wv = ad.param((proj, proj), rng, name=f"{name}/Wv")
        self.wo = ad.param((proj, proj), rng, name=f"{name}/Wo")
        self.ln1_g = ad.Tensor(np.ones(proj), requires_grad=True, name=f"{name}/ln1g")
        self.ln1_b = ad.zeros_param((proj,), name=f"{name}/ln1b")
        self.ln2_g = ad.Tensor(np.ones(proj), requires_grad=True, name=f"{name}/ln2g")
        self.ln2_b = ad.zeros_param((proj,), name=f"{name}/ln2b")
        self.ff1 = ad.param((proj, proj), rng, name=f"{name}/F1")
        self.ff1_b = ad.zeros_param((proj,), name=f"{name}/F1b")
        self.ff2 = ad.param((proj, proj), rng, name=f"{name}/F2")
        self.ff2_b = ad.zeros_param((proj,), name=f"{name}/F2b")
        self.p_out = ad.param((in_dim, proj), rng, name=f"{name}/Pout")
        self.weight = ad.param((out_dim, 2 * in_dim), rng, name=f"{name}/W")

    def parameters(self):
        tensors = [
            self.p_in, self.wq, self.wk, self.wv, self.wo,
            self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b,
            self.ff1, self.ff1_b, self.ff2, self.ff2_b,
            self.p_out, self.weight,
        ]
        return {t.name: t for t in tensors}

    def forward(self, self_feat, neighbors):
        return _forward_one(self, [self_feat, *neighbors])

    def forward_group(self, prev, rows, node_args=None):
        rows = canonical_rows(prev, rows)
        x = ad.matmul_t(ad.gather(prev, rows), self.p_in)
        n1 = ad.layer_norm(x, self.ln1_g, self.ln1_b)
        q = ad.matmul_t(n1, self.wq)
        k = ad.matmul_t(n1, self.wk)
        v = ad.matmul_t(n1, self.wv)
        scores = ad.scale(ad.matmul_t(q, k), 1.0 / np.sqrt(self.proj_dim))
        attn = ad.matmul(ad.softmax(scores, axis=-1), v)
        x = ad.add(x, ad.matmul_t(attn, self.wo))
        n2 = ad.layer_norm(x, self.ln2_g, self.ln2_b)
        ff = ad.add(ad.matmul_t(n2, self.ff1), self.ff1_b)
        ff = ad.add(ad.matmul_t(ad.relu(ff), self.ff2), self.ff2_b)
        x = ad.add(x, ff)
        back = ad.matmul_t(x, self.p_out)
        a_v = ad.mean(back, axis=1)
        combined = ad.concat([ad.gather(prev, rows[:, 0]), a_v], axis=1)
        return self.act(ad.matvec(self.weight, combined))


LAYER_KINDS = {
    "gcn": MeanPoolLayer,
    "gat": AttentionPoolLayer,
    "rgcn": RelationalMeanLayer,
    "lstm": SequencePoolLayer,
    "transformer": TransformerPoolLayer,
}


def make_layer(kind, in_dim, out_dim, activation="relu", rng=None, name=None, **kwargs):
    try:
        cls = LAYER_KINDS[kind]
    except KeyError:
        raise ConfigError(f"unknown aggregator kind {kind!r}") from None
    return cls(in_dim, out_dim, activation=activation, rng=rng, name=name or kind, **kwargs)


class GnnStack:
    """Layers ordered input-side first: layers[0] consumes raw features.

    hop_limits[d] caps how many ranked neighbors a node first reached at
    depth d may expand; len(hop_limits) == len(layers).
    """

    def __init__(self, layers, hop_limits):
        layers = list(layers)
        hop_limits = list(hop_limits)
        if not layers:
            raise ConfigError("stack needs at least one layer")
        if len(layers) != len(hop_limits):
            raise ConfigError(
                f"{len(layers)} layers but {len(hop_limits)} hop limits"
            )
        # 0 is a valid cap: nodes first reached at that depth become leaves
        if any(n < 0 for n in hop_limits):
            raise ConfigError(f"hop limits must be >= 0, got {hop_limits}")
        for shallow, deep in zip(layers, layers[1:]):
            if deep.in_dim != shallow.out_dim:
                raise ConfigError(
                    f"layer dims do not chain: {shallow.out_dim} -> {deep.in_dim}"
                )
        self.layers = layers
        self.hop_limits = hop_limits

    @property
    def depth(self):
        return len(self.layers)

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def parameters(self):
        out = {}
        for i, layer in enumerate(self.layers):
            for name, t in layer.parameters().items():
                out[f"layer{i}/{name}"] = t
        return out


def gnn_forward(stack, graph, features, hits, node, mode="eval", seed=0, rng=None):
    """Embed `node` from its truncated k-hop neighborhood.

    The sampled neighborhood is fixed per node at the shallowest depth
    where it is reached: top hop_limits[d] neighbors by hit probability.
    Representation levels are then evaluated bottom-up over that DAG, so
    the output depends only on the truncated k-hop neighborhood.  Each
    level is one `forward_group` call per distinct member count.

    Args:
        hits: callable node -> HitTable (see sampler.HitSource).
        mode: "train" draws a fresh sequence permutation per call from
            `rng`; "eval" derives it from (seed, node id) so repeated
            evaluation is bitwise stable.
        rng: train-mode permutation stream; defaults to a stream seeded
            by `seed`.
    """
    if node not in graph:
        raise UnknownNodeError(node)
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and rng is None:
        rng = make_rng("gnn-train", seed)

    k = stack.depth

    # fix each node's truncated neighbor list at the shallowest depth
    # where it is reached; nodes first reached at depth k stay leaves
    sampled = {}
    depth_of = {node: 0}
    frontier = [node]
    for depth in range(k):
        nxt = []
        for v in frontier:
            sampled[v] = top_n(hits(v), stack.hop_limits[depth])
            for u in sampled[v]:
                if u not in depth_of:
                    depth_of[u] = depth + 1
                    if depth + 1 < k:
                        nxt.append(u)
        frontier = nxt

    row_of = {v: i for i, v in enumerate(depth_of)}
    prev = ad.constant(np.array([features[v] for v in depth_of], dtype=np.float64))

    # a node first reached at depth d is needed up to level k - d; its
    # sampled neighbors then always have the level below already built
    for level in range(1, k + 1):
        layer = stack.layers[level - 1]
        todo = [v for v in sampled if level <= k - depth_of[v]]
        # node_args in DAG order, so train-mode permutation draws
        # come off `rng` in a fixed order
        if layer.kind == "rgcn":
            node_args = [[graph.relations_between(v, u) for u in sampled[v]] for v in todo]
        elif layer.kind == "lstm":
            node_args = []
            for v in todo:
                perm_rng = rng if mode == "train" else make_rng("lstm-perm", seed, v)
                node_args.append(list(perm_rng.permutation(len(sampled[v]) + 1)))
        else:
            node_args = [None] * len(todo)
        groups = {}
        for v, arg in zip(todo, node_args):
            groups.setdefault(len(sampled[v]) + 1, []).append((v, arg))
        outs, order = [], []
        for size in sorted(groups):
            nodes = [v for v, _ in groups[size]]
            rows = np.array([[row_of[v]] + [row_of[u] for u in sampled[v]] for v in nodes])
            outs.append(layer.forward_group(prev, rows, [arg for _, arg in groups[size]]))
            order += nodes
        prev = outs[0] if len(outs) == 1 else ad.concat(outs)
        row_of = {v: i for i, v in enumerate(order)}

    return ad.row(prev, row_of[node])
