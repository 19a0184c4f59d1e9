"""Random-walk neighborhood sampling with hit-probability smoothing.

For a center node, R restarts of a T-step uniform undirected walk are
simulated.  Visit counts over the center's immediate neighbors, plus
add-one smoothing, give a probability table used to rank and truncate
neighborhoods.  Each (center, restart) pair owns its own PCG64 stream,
named ("walk", seed, center, restart), so a table depends neither on
the order in which centers are queried nor on which centers are
sampled alongside it.

One kernel runs every walk.  The streams of a run of centers, at most
CHUNK_STREAMS at a time, draw together through
`seeding.uniform_blocks`, which equals numpy's PCG64 bit for bit, and
step in lockstep over the graph's CSR arrays: a walk at node v takes
draw t to neighbor floor(draw_t * deg(v)) of v in sorted-id order, and
stops at its first dead end.
"""

from dataclasses import dataclass

import numpy as np

from .config import is_int
from .errors import ConfigError, ContractError, UnknownNodeError
from .seeding import derive_seeds, uniform_blocks

# the most streams the kernel walks at once, and so the most that one
# HitSource miss in a sweep samples (unless one center has more restarts)
CHUNK_STREAMS = 8192


@dataclass(frozen=True)
class WalkConfig:
    steps: int = 20
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("steps", "restarts", "seed"):
            value = getattr(self, name)
            if not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")


def _positions(csr, centers):
    """Sorted-order indices of `centers`; an unknown one is an UnknownNodeError."""
    try:
        return np.array([csr.index[c] for c in centers], dtype=np.int64)
    except KeyError as exc:
        raise UnknownNodeError(exc.args[0]) from None


def _walk_steps(csr, centers, cfg):
    """Yield slot * N + node for every step that lands, a draw block at a time.

    `slot` is the position of the walk's center in `centers` and N the
    node count, so the keys of one center sort together.  The starting
    occupation of a center is not a step.  Streams walk in groups of at
    most CHUNK_STREAMS, one step of all of a group's walks at a time,
    and each yield holds the landings of one `uniform_blocks` block, so
    memory stays a few arrays of one block's size.
    """
    indptr, indices = csr.indptr, csr.indices
    degree = np.diff(indptr)
    restarts = cfg.restarts
    start = np.repeat(_positions(csr, centers), restarts)
    base = np.repeat(np.arange(len(centers), dtype=np.int64) * len(csr.ids), restarts)
    seeds = derive_seeds([("walk", cfg.seed, c) for c in centers], range(restarts))
    for lo in range(0, len(seeds), CHUNK_STREAMS):
        cur = start[lo:lo + CHUNK_STREAMS]
        key_base = base[lo:lo + CHUNK_STREAMS]
        rows = np.arange(len(cur))
        for block in uniform_blocks(seeds[lo:lo + CHUNK_STREAMS], cfg.steps):
            landed = []
            for draw in block.T:
                deg = degree[cur]
                alive = deg > 0
                if not alive.all():
                    rows, cur, deg, key_base = rows[alive], cur[alive], deg[alive], key_base[alive]
                    if not rows.size:
                        break
                cur = indices[indptr[cur] + (draw[rows] * deg).astype(np.int64)]
                landed.append(key_base + cur)
            yield np.concatenate([key_base[:0], *landed])
            if not rows.size:
                break


@dataclass(frozen=True)
class HitTable:
    """Smoothed hit probabilities over one center's immediate neighbors.

    `entries` is a tuple of (neighbor id, probability), sorted by
    probability descending with ties broken by id ascending.  The
    probabilities are strictly positive and sum to 1 unless the center
    has no neighbors at all.
    """

    center: str
    entries: tuple

    def __post_init__(self):
        if self.entries:
            # written as negations so that NaN fails them too; a NaN or an
            # infinity makes the sum non-finite, so past the sum check
            # `min` compares only finite values
            probs = [p for _, p in self.entries]
            total = sum(probs)
            if not abs(total - 1.0) <= 1e-9:
                raise ContractError(f"hit probabilities sum to {total!r}, want 1")
            if not min(probs) > 0:
                raise ContractError("hit probabilities must be strictly positive")

    def to_jsonable(self):
        return {
            "center": self.center,
            "neighbors": [{"id": n, "p": p} for n, p in self.entries],
        }


def _neighbor_rows(csr, centers):
    """(slot, node) of every center-neighbor pair, centers' rows concatenated.

    Slots ascend, and nodes ascend within a slot, so slot * N + node is
    strictly increasing.
    """
    cidx = _positions(csr, centers)
    starts = csr.indptr[cidx]
    lens = csr.indptr[cidx + 1] - starts
    slot = np.repeat(np.arange(len(cidx), dtype=np.int64), lens)
    pos = np.arange(lens.sum(), dtype=np.int64) + np.repeat(starts - np.cumsum(lens) + lens, lens)
    return slot, csr.indices[pos]


def _ranked(csr, centers, slot, nbr, counts):
    """HitTables of `centers` from the walk counts of their `_neighbor_rows`.

    Every neighbor gets (count + 1) / sum over its center's neighbors
    of (count + 1).  The order sorts on the integer counts, not the
    float probabilities, so ties are exact and keep the rows' id order.
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
        tables.append(HitTable(center, tuple(entries[begin:end])))
        begin = end
    return tables


def _sample(g, centers, cfg):
    """HitTables of `centers`, in order, from one run of the walk kernel."""
    csr = g.csr()
    slot, nbr = _neighbor_rows(csr, centers)
    pair_keys = slot * len(csr.ids) + nbr
    counts = np.zeros(len(pair_keys), dtype=np.int64)
    # a walk lands only if some center has a neighbor, so pair_keys is not empty
    for keys in _walk_steps(csr, centers, cfg):
        at = np.minimum(np.searchsorted(pair_keys, keys), len(pair_keys) - 1)
        counts += np.bincount(at[pair_keys[at] == keys], minlength=len(pair_keys))
    return _ranked(csr, centers, slot, nbr, counts)


def sample_neighborhood(g, center, cfg):
    """Walks plus smoothing in one call."""
    return _sample(g, [center], cfg)[0]


def top_n(table, n):
    """Ids of the n most probable neighbors, in table order; 0 is allowed."""
    if n < 0:
        raise ContractError(f"n must be >= 0, got {n}")
    return [node for node, _ in table.entries[:n]]


class HitSource:
    """Caching hit-table provider for the nodes of one graph.

    Tables are computed lazily and cached.  A miss at the sorted-order
    position right after the nodes the previous miss sampled continues
    a sweep: it samples the uncached nodes among the next as many as
    fit CHUNK_STREAMS streams, so a sorted sweep runs at the kernel's
    bulk rate.  Any other miss samples just its node, so sparse queries,
    such as a class encoder's DAG, pay for no table they do not ask
    for.  Because streams are keyed by (seed, center, restart), the
    result for a node does not depend on which other nodes were queried
    first.

    `kernel_runs` counts the misses, each one run of the walk kernel,
    and `tables_sampled` the tables those runs computed.
    """

    def __init__(self, graph, cfg):
        self.graph = graph
        self.cfg = cfg
        self.kernel_runs = 0
        self.tables_sampled = 0
        self._cache = {}
        self._next = None  # sorted position right after the last sampled run

    def __call__(self, node):
        table = self._cache.get(node)
        if table is None:
            csr = self.graph.csr()
            first = csr.index.get(node)
            if first is None:
                raise UnknownNodeError(node)
            run = max(1, CHUNK_STREAMS // self.cfg.restarts) if first == self._next else 1
            self._next = first + run
            todo = [v for v in csr.ids[first:self._next] if v not in self._cache]
            self._cache.update(zip(todo, _sample(self.graph, todo, self.cfg)))
            self.kernel_runs += 1
            self.tables_sampled += len(todo)
            table = self._cache[node]
        return table
