"""Test-side oracles, implemented independently of the package code."""

from __future__ import annotations

import numpy as np


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
    from kgzsl.seeding import make_rng

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


def total_variation(table, exact):
    """TV distance between a HitTable and an exact {node: p} map."""
    empirical = {node: p for node, p in table.entries}
    keys = set(empirical) | set(exact)
    return 0.5 * sum(abs(empirical.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)


def per_node_forward(stack, graph, features, hits, node, mode="eval", seed=0, rng=None):
    """Reference class encoder: one `layer.forward` call per DAG node.

    The same truncated neighborhood DAG as `gnn_forward`, walked one
    node at a time in DAG order with per-node tensors, so the batched
    level forward can be compared with it byte for byte.  Train-mode
    sequence permutations are drawn from `rng` in that same order.
    """
    from kgzsl import autodiff as ad
    from kgzsl.sampler import top_n
    from kgzsl.seeding import make_rng

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


def layer_norm_reference(x, gain, bias, eps=1e-5):
    """Layer norm over the last axis from np.mean and np.var."""
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    return (x - mu) * (1.0 / np.sqrt(var + eps)) * gain + bias
