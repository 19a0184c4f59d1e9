"""Test-side oracles, implemented independently of the package code."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from kgzsl import autodiff as ad
from kgzsl.aggregators import GROUP_ROWS, TransformerPoolLayer
from kgzsl.errors import ContractError, UnknownNodeError
from kgzsl.sampler import CHUNK_STREAMS, HitTable, _neighbor_rows, _positions, top_n
from kgzsl.seeding import derive_seed, make_rng, uniform_blocks
from kgzsl.zeroshot import GnnClassEncoder, class_representations


def markov_hit_table(g, center, steps, restarts):
    """Exact expected hit table via transition-matrix powering.

    States are the graph nodes plus an absorbing sink for dead ends.
    The expected visit count of node u over one restart is the sum over
    t = 1..T of the occupation probability at step t.  Expected counts
    are pushed through the same add-one smoothing and neighbor
    restriction as the sampler, giving the distribution the empirical
    table converges to.
    """
    nodes = list(g.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    P = np.zeros((n + 1, n + 1))
    for v in nodes:
        nbrs = g.neighbors(v)
        if nbrs:
            for u in nbrs:
                P[index[v], index[u]] = 1.0 / len(nbrs)
        else:
            P[index[v], n] = 1.0
    P[n, n] = 1.0

    occ = np.zeros(n + 1)
    occ[index[center]] = 1.0
    expected = np.zeros(n + 1)
    for _ in range(steps):
        occ = occ @ P
        expected += occ

    nbrs = g.neighbors(center)
    smoothed = {u: restarts * expected[index[u]] + 1.0 for u in nbrs}
    denom = sum(smoothed.values())
    return {u: c / denom for u, c in smoothed.items()}


def reference_walk_counts(g, center, cfg):
    """Visit counts of `center`'s walks, one Python step at a time.

    Restart r draws its T uniforms from make_rng("walk", seed, center, r)
    and steps to neighbors(cur)[int(draw * len(neighbors))], stopping
    at the first dead end; the start is not counted.
    """
    counts = {}
    for restart in range(cfg.restarts):
        draws = make_rng("walk", cfg.seed, center, restart).random(cfg.steps)
        cur = center
        for t in range(cfg.steps):
            nbrs = g.neighbors(cur)
            if not nbrs:
                break
            cur = nbrs[int(draws[t] * len(nbrs))]
            counts[cur] = counts.get(cur, 0) + 1
    return counts


def reference_hit_entries(g, center, counts):
    """HitTable entries from counts: (count + 1) / total, ranked by (-count, id)."""
    smoothed = [(n, counts.get(n, 0) + 1) for n in g.neighbors(center)]
    denom = sum(c for _, c in smoothed)
    ranked = sorted(smoothed, key=lambda item: (-item[1], item[0]))
    return tuple((n, c / denom) for n, c in ranked)


def searchsorted_landing_counts(pair_keys, key_blocks):
    """Landings per pair key, one `searchsorted` of each landing into `pair_keys`.

    The counter that sorting each stream chunk's landings replaced:
    `pair_keys` ascend, and a landing whose key is no pair key counts
    for nothing.
    """
    counts = np.zeros(len(pair_keys), dtype=np.int64)
    for keys in key_blocks:
        at = np.minimum(np.searchsorted(pair_keys, keys), len(pair_keys) - 1)
        counts += np.bincount(at[pair_keys[at] == keys], minlength=len(pair_keys))
    return counts


def entry_tuple_tables(csr, centers, slot, nbr, counts):
    """[(center, ((id, p), ...))] from walk counts, one (id, p) tuple per neighbor.

    The ranking that parallel `ids` and `probs` tuples replaced:
    (count + 1) / the center's total, ordered by the integer counts
    descending and then by the rows' id order.
    """
    smoothed = counts + 1
    order = np.lexsort((-smoothed, slot))
    denom = np.bincount(slot, weights=smoothed, minlength=len(centers))
    probs = (smoothed / denom[slot])[order].tolist()
    entries = list(zip(map(csr.ids.__getitem__, nbr[order].tolist()), probs))
    ends = np.cumsum(np.bincount(slot, minlength=len(centers))).tolist()
    tables = []
    begin = 0
    for center, end in zip(centers, ends):
        tables.append((center, tuple(entries[begin:end])))
        begin = end
    return tables


def stepwise_walk_steps(csr, centers, cidx, cfg):
    """The landing keys of `centers`' walks, with a liveness test on every step.

    The walk loop that settling dead ends before the first step
    replaced: every center's streams are seeded and drawn, each step
    drops the walks standing on a degree-0 node and keeps the rows of
    the rest, and a chunk whose walks have all stopped ends early.
    Seeds come from `derive_seed`, one stream at a time.
    """
    indptr, indices = csr.indptr, csr.indices
    degree = np.diff(indptr)
    restarts = cfg.restarts
    start = np.repeat(cidx, restarts)
    base = np.repeat(np.arange(len(centers), dtype=np.int64) * len(csr.ids), restarts)
    seeds = [derive_seed("walk", cfg.seed, c, r) for c in centers for r in range(restarts)]
    for lo in range(0, len(seeds), CHUNK_STREAMS):
        cur = start[lo:lo + CHUNK_STREAMS]
        key_base = base[lo:lo + CHUNK_STREAMS]
        rows = None  # the chunk rows of the live walks, once one has stopped
        landed = [key_base[:0]]
        for block in uniform_blocks(seeds[lo:lo + CHUNK_STREAMS], cfg.steps):
            for draw in block.T:
                deg = degree[cur]
                alive = deg > 0
                if not alive.all():
                    rows = alive.nonzero()[0] if rows is None else rows[alive]
                    cur, deg, key_base = cur[alive], deg[alive], key_base[alive]
                    if not rows.size:
                        break
                if rows is not None:
                    draw = draw[rows]
                cur = indices[indptr[cur] + (draw * deg).astype(np.int64)]
                landed.append(key_base + cur)
            if rows is not None and not rows.size:
                break
        yield np.concatenate(landed)


def per_table_ranked(csr, centers, slot, nbr, counts):
    """HitTables from walk counts, each built by `HitTable(center, entries)`.

    The assembly that one object-array id gather and slot setters
    replaced: ids are looked up one neighbor at a time, and each table
    is checked by its own constructor.
    """
    smoothed = counts + 1
    order = lexsort_rank_order(slot, smoothed)
    denom = np.bincount(slot, weights=smoothed, minlength=len(centers))
    probs = (smoothed / denom[slot])[order].tolist()
    ids = list(map(csr.ids.__getitem__, nbr[order].tolist()))
    tables = []
    begin = 0
    for center, end in zip(centers, np.cumsum(np.bincount(slot, minlength=len(centers))).tolist()):
        tables.append(HitTable(center, tuple(zip(ids[begin:end], probs[begin:end]))))
        begin = end
    return tables


def stepwise_sample(g, centers, cfg):
    """`sampler._sample` through `stepwise_walk_steps` and `per_table_ranked`."""
    csr = g.csr()
    cidx = _positions(csr, centers)
    slot, nbr = _neighbor_rows(csr, cidx)
    pair_keys = slot * len(csr.ids) + nbr
    counts = searchsorted_landing_counts(pair_keys, stepwise_walk_steps(csr, centers, cidx, cfg))
    return per_table_ranked(csr, centers, slot, nbr, counts)


def total_variation(table, exact):
    """TV distance between a HitTable and an exact {node: p} map."""
    empirical = {node: p for node, p in table.entries}
    keys = set(empirical) | set(exact)
    return 0.5 * sum(abs(empirical.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)


def per_root_dag(stack, hits, node):
    """One root's truncated neighborhood DAG, as (sampled, depth_of).

    `sampled` maps each node first reached above depth k to its top
    hop_limits[depth] neighbors, cut at that shallowest depth, in walk
    order; `depth_of` gives every reached node's depth.
    """
    k = stack.depth
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
    return sampled, depth_of


def union_dag_size(stack, hits, roots):
    """How many distinct rows the union of the roots' DAGs holds above level 0.

    A node's row at level l is named by its whole structure: key(v, 0)
    is v, and key(v, l) pairs key(v, l - 1) with the level l - 1 keys of
    v's sampled neighbors, over each root's own DAG.
    """
    k = stack.depth
    distinct = set()
    for root in roots:
        sampled, depth_of = per_root_dag(stack, hits, root)
        below = {v: v for v in depth_of}
        for level in range(1, k + 1):
            below = {v: (below[v], tuple(below[u] for u in nbrs))
                     for v, nbrs in sampled.items() if level <= k - depth_of[v]}
            distinct.update((level, key) for key in below.values())
    return len(distinct)


def fresh_forward(stack, graph, features, hits, node, mode="eval", seed=0, rng=None):
    """`node`'s class forward as the program runs it: the first encode
    of a fresh binding, which checks, plans and runs."""
    return GnnClassEncoder(stack, graph, features, hits, seed=seed).encode(node, mode=mode, rng=rng)


def per_node_forward(stack, graph, features, hits, node, mode="eval", seed=0, rng=None):
    """Reference class encoder: one `layer.forward` call per DAG node.

    The same truncated neighborhood DAG as `fresh_forward`, walked one
    node at a time in DAG order with per-node tensors, so the batched
    level forward can be compared with it byte for byte.  Train-mode
    sequence permutations are drawn from `rng` in that same order.
    """
    k = stack.depth
    sampled, depth_of = per_root_dag(stack, hits, node)
    reps = {(0, v): ad.constant(np.asarray(features[v])) for v in depth_of}
    for level in range(1, k + 1):
        layer = stack.layers[level - 1]
        for v, neigh_ids in sampled.items():
            if level > k - depth_of[v]:
                continue
            prev_self = reps[(level - 1, v)]
            prev_neighbors = [reps[(level - 1, u)] for u in neigh_ids]
            if layer.kind == "rgcn":
                tagged = [
                    (rel, feat)
                    for u, feat in zip(neigh_ids, prev_neighbors)
                    for rel in graph.relations_between(v, u)
                ]
                reps[(level, v)] = layer.forward(prev_self, tagged)
            elif layer.kind == "lstm":
                perm_rng = rng if mode == "train" else make_rng("lstm-perm", seed, v)
                perm = perm_rng.permutation(len(neigh_ids) + 1)
                reps[(level, v)] = layer.forward(prev_self, prev_neighbors, permutation=list(perm))
            else:
                reps[(level, v)] = layer.forward(prev_self, prev_neighbors)
    return reps[(k, node)]


def reference_canonical_rows(data, rows, node_args=None):
    """Each node's neighbors sorted by the bytes of their rows of `data`,
    and `node_args` (rgcn's relations) permuted to match.

    Python's stable `sorted` over `bytes` keys: the order the layers'
    canonical member order must equal.  Rows come back as lists.
    """
    out, args = [], []
    for b, r in enumerate(np.asarray(rows).tolist()):
        ranked = sorted(range(len(r) - 1), key=lambda j: data[r[1 + j]].tobytes())
        out.append([r[0]] + [r[1 + j] for j in ranked])
        if node_args is not None:
            args.append([node_args[b][j] for j in ranked])
    return out, None if node_args is None else args


def sorting_forward_group(layer, prev, rows, node_args):
    """`layer.forward_group` as it was before plans fixed member order:
    an order-free layer sorts its own group on the rows of `prev`, at
    every level and on every run."""
    if layer.order_free:
        relations = node_args if layer.kind == "rgcn" else None
        ordered, node_args = reference_canonical_rows(prev.data, rows, relations)
        rows = np.array(ordered, dtype=np.intp).reshape(rows.shape)
    return layer.forward_group(prev, rows, node_args)


def reference_union_forward(stack, graph, features, hits, node, mode="eval", seed=0, rng=None):
    """The union forward before level 0 was read off level 1's keys.

    The class forward as it was when every root's walk still visited the
    nodes first reached at depth k, recorded their depths for the leaf
    matrix and keyed level 1 per root, read every leaf's features on
    every call, and sorted each order-free group's members inside its
    group call (`sorting_forward_group`).  It is the oracle for the
    build and the member order that replaced it: same outputs, gradients
    and train-mode draw order for any sequence of roots.
    """
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

    k = stack.depth
    tables, ranked = {}, {}
    # per level, member keys -> (key, node, its sampled neighbors)
    todo = {level: {} for level in range(1, k + 1)}
    leaves = {}
    tops = {}
    for root in dict.fromkeys(roots):
        # fix each node's truncated neighbor list at the shallowest depth
        # where this root reaches it; nodes first reached at depth k stay leaves
        sampled = {}
        depth_of = {root: 0}
        frontier = [root]
        for depth, limit in enumerate(stack.hop_limits):
            nxt = []
            for v in frontier:
                nbrs = ranked.get((v, limit))
                if nbrs is None:
                    if v not in tables:
                        tables[v] = hits(v)
                    nbrs = ranked[v, limit] = top_n(tables[v], limit)
                sampled[v] = nbrs
                for u in nbrs:
                    if u not in depth_of:
                        depth_of[u] = depth + 1
                        if depth + 1 < k:
                            nxt.append(u)
            frontier = nxt
        leaves.update(depth_of)
        # a node first reached at depth d is needed up to level k - d; its
        # sampled neighbors then always have the level below already keyed
        below = None
        for level in todo:
            keys = {}
            for v in sampled:
                if level <= k - depth_of[v]:
                    if below is None:  # key(v, 0) is v
                        members = (v, *sampled[v])
                    else:
                        members = (below[v], *map(below.__getitem__, sampled[v]))
                    nodes = todo[level]
                    keys[v] = nodes.setdefault(members, (len(nodes), v, sampled[v]))[0]
            below = keys
        tops[root] = below[root]

    prev = ad.constant(np.array([features[v] for v in leaves], dtype=np.float64))
    row_of = {v: i for i, v in enumerate(leaves)}
    for level, nodes in todo.items():
        layer = stack.layers[level - 1]
        # node_args in DAG order, so train-mode permutation draws
        # come off `rng` in a fixed order
        if layer.kind == "rgcn":
            node_args = [[graph.relations_between(v, u) for u in nbrs] for _, v, nbrs in nodes.values()]
        elif layer.kind == "lstm":
            node_args = []
            for _, v, nbrs in nodes.values():
                perm_rng = rng if mode == "train" else make_rng("lstm-perm", seed, v)
                node_args.append(list(perm_rng.permutation(len(nbrs) + 1)))
        else:
            node_args = [None] * len(nodes)
        groups = {}
        for (members, (key, _, _)), arg in zip(nodes.items(), node_args):
            groups.setdefault(len(members), []).append((key, members, arg))
        outs, order = [], []
        for size in sorted(groups):
            group = groups[size]
            for start in range(0, len(group), GROUP_ROWS):
                part = group[start:start + GROUP_ROWS]
                rows = np.array([[row_of[m] for m in members] for _, members, _ in part])
                outs.append(sorting_forward_group(layer, prev, rows, [arg for _, _, arg in part]))
                order += [key for key, _, _ in part]
        prev = outs[0] if len(outs) == 1 else ad.concat(outs)
        row_of = {key: i for i, key in enumerate(order)}

    if isinstance(node, str):
        return ad.row(prev, row_of[tops[node]])
    return ad.gather(prev, np.array([row_of[tops[r]] for r in roots]))


def composed_transformer_block(members, p_in, wq, wk, wv, wo, ln1_g, ln1_b, ln2_g, ln2_b,
                               ff1, ff1_b, ff2, ff2_b, p_out):
    """The transformer block built from the engine's elementary ops.

    The aggregator's block before it became `transformer_block`: one
    tape node per step, so the fused op's values, gradients and
    gradient accumulation order can be compared with it byte for byte.
    """
    x = ad.matmul_t(members, p_in)
    n1 = ad.layer_norm(x, ln1_g, ln1_b)
    q = ad.matmul_t(n1, wq)
    k = ad.matmul_t(n1, wk)
    v = ad.matmul_t(n1, wv)
    scores = ad.scale(ad.matmul_t(q, k), 1.0 / np.sqrt(p_in.shape[0]))
    attn = ad.matmul(ad.softmax(scores, axis=-1), v)
    x = ad.add(x, ad.matmul_t(attn, wo))
    n2 = ad.layer_norm(x, ln2_g, ln2_b)
    ff = ad.add(ad.matmul_t(n2, ff1), ff1_b)
    ff = ad.add(ad.matmul_t(ad.relu(ff), ff2), ff2_b)
    x = ad.add(x, ff)
    return ad.mean(ad.matmul_t(x, p_out), axis=1)


class ComposedTransformerLayer(TransformerPoolLayer):
    """A TransformerPoolLayer whose group forward is all elementary ops.

    Gathers, the composed block, concat, matvec and the activation, one
    tape node each: the oracle for `ad.transformer_block`, which fuses
    all of them but the activation.
    """

    def forward_group(self, prev, rows, node_args=None):
        a_v = composed_transformer_block(
            ad.gather(prev, rows), self.p_in, self.wq, self.wk, self.wv, self.wo,
            self.ln1_g, self.ln1_b, self.ln2_g, self.ln2_b,
            self.ff1, self.ff1_b, self.ff2, self.ff2_b, self.p_out,
        )
        combined = ad.concat([ad.gather(prev, rows[:, 0]), a_v], axis=1)
        return self.act(ad.matvec(self.weight, combined))


def composed_bilinear_scores(theta, b, a, phis):
    """The bilinear head's scores from the engine's elementary ops.

    `BilinearHead.scores` before it became `ad.bilinear_scores`: a stack
    of a list of phis, then matmul_t, matmul and matmul, one tape node
    each, so the fused op's values, gradients and gradient accumulation
    order can be compared with it byte for byte.
    """
    stacked = ad.stack(phis) if isinstance(phis, list) else phis
    return ad.matmul(ad.matmul_t(stacked, a), ad.matmul(theta, b))


def id_keyed_tape_order(out):
    """`Tape.from_output`'s node order from the walk that keyed its
    visited set by `id()`: the oracle for the walk keyed by the tensors."""
    ordered = []
    visited = set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            ordered.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return ordered


def layer_norm_reference(x, gain, bias, eps=1e-5):
    """Layer norm over the last axis from np.mean and np.var."""
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return (x - mu) * (1.0 / np.sqrt(var + eps)) * gain + bias


def reference_graph(edges, extra_nodes=()):
    """What a `kg.Graph` over these triples holds, built from dicts of sets.

    Returns a dict with the first-seen `nodes`, `edges` and `relations`,
    `neighbors` (node -> sorted distinct non-self neighbors),
    `relations_between` ((u, v) with u <= v -> relations in first-seen
    order) and the CSR arrays `ids`, `indptr`, `indices` in sorted-id
    numbering.
    """
    nodes, relations, kept = [], [], []
    adj, rels_between = {}, {}
    for v in extra_nodes:
        if v not in adj:
            adj[v] = set()
            nodes.append(v)
    for rel, head, tail in edges:
        if (rel, head, tail) in kept:
            continue
        kept.append((rel, head, tail))
        if rel not in relations:
            relations.append(rel)
        for v in (head, tail):
            if v not in adj:
                adj[v] = set()
                nodes.append(v)
        if head != tail:
            adj[head].add(tail)
            adj[tail].add(head)
        rels_between.setdefault(tuple(sorted((head, tail))), set()).add(rel)
    neighbors = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
    ids = tuple(sorted(nodes))
    position = {v: i for i, v in enumerate(ids)}
    indptr = [0]
    indices = []
    for v in ids:
        indices.extend(position[u] for u in neighbors[v])
        indptr.append(len(indices))
    return {
        "nodes": tuple(nodes),
        "edges": tuple(kept),
        "relations": tuple(relations),
        "neighbors": neighbors,
        "relations_between": {
            k: tuple(r for r in relations if r in rs) for k, rs in rels_between.items()
        },
        "ids": ids,
        "indptr": indptr,
        "indices": indices,
    }


def lexsort_graph(edges, extra_nodes=()):
    """What `kg.Graph` held when it was built from tuples alone.

    The bitwise oracle for the column build: triples deduplicated by a
    dict, first occurrence winning; nodes numbered in first-seen order
    by `setdefault`; and the CSR from both directions of every non-loop
    edge, sorted by (row, column) with `np.lexsort`, the first of each
    repeat kept.  Returns a dict of the first-seen `nodes`, `edges` and
    `relations`, `neighbors` read from the CSR rows, `relations_between`
    ((u, v) with u <= v -> relations in first-seen order) and the `Csr`
    fields `ids`, `index`, `indptr` and `indices`.
    """
    edges = tuple(dict.fromkeys(map(tuple, edges)))
    relations = tuple(dict.fromkeys(rel for rel, _, _ in edges))
    first_seen = {}
    for v in extra_nodes:
        first_seen.setdefault(v, len(first_seen))
    ends = [first_seen.setdefault(v, len(first_seen)) for _, head, tail in edges for v in (head, tail)]
    nodes = tuple(first_seen)
    n = len(nodes)
    order = sorted(range(n), key=nodes.__getitem__)
    ids = tuple(nodes[i] for i in order)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    pairs = rank[np.array(ends, dtype=np.int64).reshape(-1, 2)]
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    rows, cols = np.concatenate([pairs, pairs[:, ::-1]]).T
    by_pair = np.lexsort((cols, rows))
    rows, cols = rows[by_pair], cols[by_pair]
    keys = rows * n + cols
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] > keys[:-1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[fresh], minlength=n), out=indptr[1:])
    indices = cols[fresh]
    rels_between = {}
    for rel, head, tail in edges:
        rels_between.setdefault((head, tail) if head <= tail else (tail, head), set()).add(rel)
    return {
        "nodes": nodes,
        "edges": edges,
        "relations": relations,
        "neighbors": {
            v: tuple(ids[j] for j in indices[indptr[i]:indptr[i + 1]].tolist()) for i, v in enumerate(ids)
        },
        "relations_between": {
            k: tuple(r for r in relations if r in rs) for k, rs in rels_between.items()
        },
        "ids": ids,
        "index": {v: i for i, v in enumerate(ids)},
        "indptr": indptr,
        "indices": indices,
    }


def lexsort_rank_order(slot, smoothed):
    """Rows by slot, then by `smoothed` descending, ties in row order:
    the `np.lexsort` that one stable sort of composite keys replaced."""
    return np.lexsort((-smoothed, slot))


def candidates(phis):
    """The ClassReps of {class id: phi}, made as `class_representations`
    makes it from an encoder whose (C, d) matrix stacks the rows in
    sorted id order."""
    def encode(ids, mode):
        return SimpleNamespace(data=np.array([phis[c] for c in ids], dtype=np.float64))

    return class_representations(SimpleNamespace(encode=encode), phis)


def reference_scores(theta, head, reps, mode):
    """{class id: score}, one `vec @ phi` per candidate.

    vec is theta B A for the bilinear modes; for "l2" it is theta, with
    a bias 1 appended when phi is one entry wider.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if mode == "l2":
        width = len(next(iter(reps.values())))
        vec = np.concatenate([theta, [1.0]]) if width == len(theta) + 1 else theta
    else:
        vec = theta @ (head.b.data @ head.a.data)
    return {c: vec @ np.asarray(phi, dtype=np.float64) for c, phi in reps.items()}


def ranking_reference(theta, head, reps, mode):
    """Every candidate id ordered by (-score, id): the full ranking whose
    head is the multiclass and l2 prediction."""
    scores = reference_scores(theta, head, reps, mode)
    return sorted(scores, key=lambda c: (-scores[c], c))


class ReferenceAdam:
    """`ad.Adam` as it was with one moment array per parameter: the
    bitwise oracle for the flat-buffer step.  `_m` and `_v` map names to
    arrays shaped like the parameters."""

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params, lr=0.001, weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._t = 0

    def step(self):
        self._t += 1
        b1, b2 = self.BETAS
        for key, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[key]
            v = self._v[key]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self._t)
            vhat = v / (1 - b2 ** self._t)
            update = mhat / (np.sqrt(vhat) + self.EPS)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update
