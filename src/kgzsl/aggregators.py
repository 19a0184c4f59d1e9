"""Graph aggregation layers and the stacked neighborhood forward pass.

Every layer follows the same AGGREGATE / COMBINE shape: pool the
neighbor representations into a single vector, then combine with the
node's own representation and apply a nonlinearity.  Four of the five
kinds are order-free over the neighbor multiset (`order_free`); to make
that exact at the bit level, neighbors are put into a canonical order
(sorted by their raw bytes) before any float reduction, because float
addition is not associative.  A group is ordered by one stable argsort
of its members' rows viewed as void items, which compare like Python's
`bytes`.  One helper, `canonical_rows`, decides that order, and the
layers never sort: a plan orders level 1 once, since its rows are
features the binding fixes; a run orders each level above it, whose
rows the parameters change; and the per-node `forward` orders its one
node.  The sequence aggregator is order-sensitive by design and takes
an explicit permutation instead.

Every layer has one implementation, the level interface
``forward_group(prev, rows, node_args)``, which embeds a group of B
nodes with the same member count M at once:

- ``prev`` is the (N, in_dim) tensor of the level below, one row per
  node;
- ``rows`` is a (B, M) integer array of rows of ``prev``: each node
  itself first, then its sampled neighbors, in canonical order for the
  order-free kinds and in rank order for ``lstm``;
- ``node_args`` holds one extra per node, for the kinds that need it:
  the relations to each neighbor, in the order of ``rows`` (``rgcn``),
  or the member permutation (``lstm``).

It returns a (B, out_dim) tensor.  All five kinds stack the group into
(B, M, in_dim) tensors and make one call of each op (per relation and
basis for ``rgcn``, per time step for ``lstm``), which rounds exactly
like B separate calls.  The per-node ``forward`` is the B = 1 case of
the same code.

``zeroshot.GnnClassEncoder.encode`` is the one way in to the stacked
forward.  It embeds one root, or a sequence of roots as one forward
over the union of their sampled DAGs, in two parts.  ``plan_forward``
fixes everything the parameters cannot change, as a ``ForwardPlan``:
the walk, the keys, each level's calls and their fixed node_args, and
the read-only leaf matrix, each leaf's feature row read once, on which
level 1's rows are already in canonical order.  ``run_forward`` makes
the layer calls from the plan alone, drawing train-mode permutations
as it goes.  The binding keeps its plans, so it runs a plan again
without walking and without reading a feature.  A root's walk expands
only the nodes it first reaches above depth k; those first reached at
depth k are leaves and are not walked per root.
A node's level-1 key depends only on the node and its cut neighbor
list, so it is interned once per (node, hop limit) per plan, and level
0 is read off level 1: its rows are the distinct members of level 1's
keys.  The plan splits the nodes of a level that share a member count
into slices of at most ``GROUP_ROWS`` and the run makes one call per
slice, so a wide eval level never holds the intermediates of its whole
group at once, and the slices round like one call.
"""

import numbers
from dataclasses import dataclass
from itertools import chain

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


def _member_order(data, rows):
    """Per node, the stable order of its neighbors (every column of `rows`
    but the first) by the bytes of their rows of `data`: a (B, M - 1)
    index into rows[:, 1:].

    Each member row is viewed as one void item of its full width, which
    numpy compares like memcmp, the order of Python's `bytes`; the stable
    sort keeps equal rows in their given order, as `sorted` does.
    """
    members = data[rows[:, 1:]]
    keys = members.view(np.dtype((np.void, members.shape[-1] * members.itemsize)))[..., 0]
    return keys.argsort(axis=1, kind="stable")


def canonical_rows(data, rows, node_args=None):
    """`rows` of `data` with each node's neighbors (every column but the
    first) in canonical order, and `node_args` to match.

    `node_args` is None or, for rgcn, per node its relations to each
    neighbor, which are permuted with the neighbors.  One stable argsort
    orders a whole group; with one neighbor or none there is nothing to
    sort and both come back as they are.
    """
    size = rows.shape[1]
    if size <= 2:
        return rows, node_args
    ranked = _member_order(data, rows)
    neighbors = rows[:, 1:].ravel()
    out = rows.copy()
    out[:, 1:] = neighbors[ranked + np.arange(0, neighbors.size, size - 1)[:, None]]
    if node_args is not None:
        node_args = tuple([relations[j] for j in order]
                          for order, relations in zip(ranked.tolist(), node_args))
    return out, node_args


def _forward_one(layer, members, node_args=None):
    """A per-node forward: the layer's group forward with B = 1."""
    prev = ad.stack(members)
    rows = np.arange(len(members))[None]
    if layer.order_free:
        rows, node_args = canonical_rows(prev.data, rows, node_args)
    return ad.row(layer.forward_group(prev, rows, node_args), 0)


class MeanPoolLayer:
    """h_v = act(W * mean(N(v) union {v}))."""

    kind = "gcn"
    order_free = True

    def __init__(self, in_dim, out_dim, activation="relu", *, rng, name="gcn"):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.act = _activation(activation)
        self.weight = ad.param((out_dim, in_dim), rng, name=f"{name}/W")

    def parameters(self):
        return {self.weight.name: self.weight}

    def forward(self, self_feat, neighbors):
        return _forward_one(self, [self_feat, *neighbors])

    def forward_group(self, prev, rows, node_args=None):
        members = ad.gather(prev, rows)
        return self.act(ad.matvec(self.weight, ad.mean(members, axis=1)))


class AttentionPoolLayer:
    """Project members, softmax-score each against the self node, blend.

    Scores are leaky_relu(a . [h'_u ; h'_v]) with a fixed 0.2 slope on
    the scorer regardless of the output activation.
    """

    kind = "gat"
    order_free = True

    def __init__(self, in_dim, out_dim, activation="relu", *, rng, name="gat"):
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
    order_free = True

    def __init__(self, in_dim, out_dim, relations, num_bases=1, activation="relu", *, rng, name="rgcn"):
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
        """tagged_neighbors: iterable of (relation, tensor) pairs.

        Pairs that share one tensor object are one neighbor reached
        through several relations: one member, as in `forward_group`, so
        both sum the same members in the same order, and a relation
        repeated for it counts once.
        """
        relations = {}
        for rel, feat in tagged_neighbors:
            relations.setdefault(id(feat), (feat, []))[1].append(rel)
        members = [self_feat] + [feat for feat, _ in relations.values()]
        return _forward_one(self, members, [[tuple(rels) for _, rels in relations.values()]])

    def _relation_masks(self, rows, node_args):
        """Per relation a {0, 1} mask over each node's neighbors, (R, B, M - 1, 1)."""
        count, size = rows.shape
        masks = np.zeros((len(self.relations), count, size - 1, 1))
        for node, relations in enumerate(node_args):
            for k, rels in enumerate(relations):
                for rel in rels:
                    if rel not in self._rel_index:
                        raise UnknownRelationError(rel)
                    masks[self._rel_index[rel], node, k] = 1.0
        return masks

    def forward_group(self, prev, rows, node_args):
        """node_args: per node, the relations from it to each neighbor, in the order of `rows`."""
        masks = self._relation_masks(rows, node_args)
        neighbors = ad.gather(prev, rows[:, 1:])
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
    order_free = False

    def __init__(self, in_dim, out_dim, activation="relu", *, rng, name="lstm"):
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

    A group is two tape nodes: `ad.transformer_block`, which gathers
    the members and the self rows from the level below, runs the block
    and returns W [h_v ; a_v], and the activation.
    """

    kind = "transformer"
    order_free = True

    def __init__(self, in_dim, out_dim, activation="relu", *, rng, name="transformer"):
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
        return self.act(ad.transformer_block(
            prev, rows, self.p_in, self.wq, self.wk, self.wv, self.wo,
            self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b,
            self.ff1, self.ff1_b, self.ff2, self.ff2_b, self.p_out, self.weight,
        ))


LAYER_KINDS = {
    "gcn": MeanPoolLayer,
    "gat": AttentionPoolLayer,
    "rgcn": RelationalMeanLayer,
    "lstm": SequencePoolLayer,
    "transformer": TransformerPoolLayer,
}


def make_layer(kind, in_dim, out_dim, activation="relu", *, rng, name=None, **kwargs):
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
        for n in hop_limits:
            # numpy integers slice like ints; a bool is not a count (as config.is_int)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                raise ConfigError(f"hop limits must be integers, got {n!r}")
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


# the most nodes one `forward_group` call embeds (see the module docstring)
GROUP_ROWS = 64


@dataclass(frozen=True)
class GroupSlice:
    """One `forward_group` call of a plan: at most GROUP_ROWS nodes of a
    level with one member count.

    `rows` is the (B, M) intp array of rows of the level below,
    `positions` the (B,) intp positions of the nodes in their level's
    DAG order, and `args` the call's fixed node_args, one per node
    (rgcn's relations or lstm's eval-mode permutation), or None for the
    kinds that take none.  At level 1 of an order-free kind, `rows` and
    rgcn's relations are already in canonical order; above it they are
    in rank order.
    """

    rows: np.ndarray
    positions: np.ndarray
    args: tuple


@dataclass(frozen=True)
class LevelPlan:
    """One level's calls, plus its nodes' member counts in DAG order,
    from which train mode draws its lstm permutations."""

    sizes: np.ndarray
    slices: tuple


@dataclass(frozen=True)
class ForwardPlan:
    """What `GnnClassEncoder.encode` fixes before its first layer call.

    `leaves` are level 0's node ids and `leaf_matrix` their feature
    rows, read once when planning and read-only; `levels` holds one
    LevelPlan per layer, input side first; `index` holds the top level's
    row of each root, in the roots' order.  Beyond the leaf matrix it
    holds ids and integer arrays, and no float, so a run reads no
    feature.
    """

    leaves: tuple
    leaf_matrix: np.ndarray
    levels: tuple
    index: np.ndarray


def forward_roots(graph, node, mode, rng):
    """`node` as a list of roots, after the checks every forward makes."""
    roots = [node] if isinstance(node, str) else list(node)
    if not roots:
        raise ContractError("no nodes to embed")
    for r in roots:
        if r not in graph:
            raise UnknownNodeError(r)
    if mode not in ("train", "eval"):
        raise ContractError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and rng is None:
        raise ContractError("train mode needs an rng for its sequence permutations")
    return roots


def plan_forward(stack, graph, features, hits, roots, seed=0):
    """The ForwardPlan of the union of the roots' sampled DAGs.

    Each root's DAG is sampled on its own, reading each node's hit table
    once per plan, and a node's row at level l is keyed by hash-consing:
    key(v, 0) = v, and key(v, l) interns (key(v, l - 1), the level l - 1
    keys of v's sampled neighbors) in level l's table, as its position
    there.  A key fixes its row for any hop limits, since lstm's eval
    permutation depends only on (seed, v, member count) and rgcn's
    relations only on the graph, so each level builds each distinct key
    once and in eval mode every root's row comes out bitwise as from a
    call of its own.

    A root's walk tracks only the nodes it expands, those first reached
    above depth k.  key(v, 1) is interned when v's list is first cut for
    a hop limit and kept beside that list, so each root looks its level-1
    keys up and builds member tuples only for levels 2 and up.  Level 1's
    table keeps the roots' order, each root's nodes in walk order, which
    is the DAG order of train-mode draws.  Level 0 holds the distinct
    members of level 1's keys, in first-seen order: the nodes within k
    hops of some root.  Each of them is read from `features` once, into
    the plan's leaf matrix, and an order-free first layer's rows are put
    into canonical order on it here, since the binding fixes them.

    Args:
        hits: callable node -> HitTable (see sampler.HitSource).
        seed: fixes the eval-mode lstm permutations, one
            make_rng("lstm-perm", seed, v) per DAG node.
    """
    k = stack.depth
    # per level, member keys -> (key, node, its sampled neighbors)
    todo = {level: {} for level in range(1, k + 1)}
    level1 = todo[1]
    # node -> its hit table, and (node, hop limit) -> (its cut neighbor
    # list, key(node, 1)), each made once per plan
    tables, ranked = {}, {}
    tops = {}
    for root in dict.fromkeys(roots):
        # fix each node's truncated neighbor list at the shallowest depth
        # where this root reaches it; only nodes first reached above depth
        # k expand, and those first reached at depth k are left to level 0
        sampled = {}
        depth_of = {root: 0}
        frontier = [root]
        for depth, limit in enumerate(stack.hop_limits):
            nxt = []
            for v in frontier:
                cut = ranked.get((v, limit))
                if cut is None:
                    if v not in tables:
                        tables[v] = hits(v)
                    nbrs = top_n(tables[v], limit)
                    # key(v, 1) depends only on v and its cut list
                    key = level1.setdefault((v, *nbrs), (len(level1), v, nbrs))[0]
                    cut = ranked[v, limit] = (nbrs, key)
                sampled[v] = cut
                if depth + 1 < k:
                    for u in cut[0]:
                        if u not in depth_of:
                            depth_of[u] = depth + 1
                            nxt.append(u)
            frontier = nxt
        # a node first reached at depth d is needed up to level k - d; its
        # sampled neighbors then always have the level below already keyed
        below = {v: key for v, (_, key) in sampled.items()}
        for level in range(2, k + 1):
            nodes = todo[level]
            keys = {}
            for v, (nbrs, _) in sampled.items():
                if level <= k - depth_of[v]:
                    members = (below[v], *map(below.__getitem__, nbrs))
                    keys[v] = nodes.setdefault(members, (len(nodes), v, nbrs))[0]
            below = keys
        tops[root] = below[root]

    # level 0 holds every member of a level-1 key, each once, in first-seen order
    leaves = tuple(dict.fromkeys(chain.from_iterable(level1)))
    leaf_matrix = np.array([features[v] for v in leaves], dtype=np.float64)
    leaf_matrix.flags.writeable = False
    row_of = {v: i for i, v in enumerate(leaves)}
    levels = []
    for level, nodes in todo.items():
        layer = stack.layers[level - 1]
        kind = layer.kind
        if kind == "rgcn":
            node_args = [[graph.relations_between(v, u) for u in nbrs] for _, v, nbrs in nodes.values()]
        elif kind == "lstm":
            node_args = [make_rng("lstm-perm", seed, v).permutation(len(nbrs) + 1)
                         for _, v, nbrs in nodes.values()]
        else:
            node_args = [None] * len(nodes)
        groups = {}
        for (members, (key, _, _)), arg in zip(nodes.items(), node_args):
            groups.setdefault(len(members), []).append((key, members, arg))
        slices, order = [], []
        for size in sorted(groups):
            group = groups[size]
            for start in range(0, len(group), GROUP_ROWS):
                part = group[start:start + GROUP_ROWS]
                rows = np.fromiter(map(row_of.__getitem__, chain.from_iterable(m for _, m, _ in part)),
                                   dtype=np.intp, count=len(part) * size).reshape(len(part), size)
                args = tuple(arg for _, _, arg in part) if kind in ("rgcn", "lstm") else None
                if level == 1 and layer.order_free:
                    rows, args = canonical_rows(leaf_matrix, rows, args)
                keys = [key for key, _, _ in part]
                positions = np.array(keys, dtype=np.intp)
                slices.append(GroupSlice(rows, positions, args))
                order += keys
        sizes = np.fromiter(map(len, nodes), dtype=np.intp, count=len(nodes))
        levels.append(LevelPlan(sizes, tuple(slices)))
        row_of = {key: i for i, key in enumerate(order)}
    index = np.array([row_of[tops[r]] for r in roots], dtype=np.intp)
    return ForwardPlan(leaves, leaf_matrix, tuple(levels), index)


def run_forward(stack, plan, node, mode="eval", rng=None):
    """The forward pass a ForwardPlan fixes, from the plan and the live parameters.

    Level 0 is the plan's leaf matrix, so a run reads no feature; each
    level is then one `forward_group` call per slice, in the plan's
    order.  Level 1's rows come in canonical order from the plan, and an
    order-free level above it puts each slice's rows into canonical
    order on the level below, which the parameters change, before its
    call.  In train mode an lstm level draws one permutation per DAG
    node from `rng`, in DAG order, before its calls.  `node` is what was
    passed to `GnnClassEncoder.encode`: one id gives an (out_dim,) row,
    a sequence a (len, out_dim) tensor.
    """
    prev = ad.constant(plan.leaf_matrix)
    for depth, (layer, level) in enumerate(zip(stack.layers, plan.levels)):
        if mode == "train" and layer.kind == "lstm":
            perms = [rng.permutation(n) for n in level.sizes.tolist()]
            node_args = [[perms[p] for p in part.positions.tolist()] for part in level.slices]
        else:
            node_args = [part.args for part in level.slices]
        reorder = depth > 0 and layer.order_free
        outs = []
        for part, args in zip(level.slices, node_args):
            rows = part.rows
            if reorder:
                rows, args = canonical_rows(prev.data, rows, args)
            outs.append(layer.forward_group(prev, rows, args))
        prev = outs[0] if len(outs) == 1 else ad.concat(outs)
    if isinstance(node, str):
        return ad.row(prev, plan.index[0])
    return ad.gather(prev, plan.index)
