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
draw t to neighbor floor(draw_t * deg(v)) of v in sorted-id order.
The CSR is symmetric and has no self-loops, so a walk can always step
back the way it came, and only a center can be a dead end: a degree-0
center's walks take no step and derive no stream, and every other walk
takes all its steps.  A chunk's landings are sorted once and counted
per center-neighbor pair by binary search; the run's tables are ranked,
checked and cut from flat arrays, and each `HitTable` holds its
neighbor ids and probabilities as two parallel tuples.
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


def _walk_steps(csr, centers, cidx, cfg):
    """Yield slot * N + node for every step that lands, a stream chunk at a time.

    `cidx` holds the sorted-order positions of `centers`, `slot` is the
    position of the walk's center in `centers` and N the node count, so
    the keys of one center sort together.  The starting occupation of a
    center is not a step.  The CSR is symmetric and has no self-loops,
    so every node a step lands on has a neighbor to go back to: only a
    center can be a dead end.  A degree-0 center's streams are dropped
    before any seed is derived, and every other walk takes all its
    steps.  Streams walk in chunks of at most CHUNK_STREAMS, one step of
    all of a chunk's walks at a time, and each yield holds the landings
    of one chunk, so memory stays a few arrays of CHUNK_STREAMS * steps
    keys.
    """
    indptr, indices = csr.indptr, csr.indices
    degree = np.diff(indptr)
    live = (degree[cidx] > 0).nonzero()[0]
    restarts = cfg.restarts
    start = np.repeat(cidx[live], restarts)
    base = np.repeat(live * len(csr.ids), restarts)
    seeds = derive_seeds(("walk", cfg.seed), [centers[i] for i in live.tolist()], range(restarts))
    for lo in range(0, len(seeds), CHUNK_STREAMS):
        cur = start[lo:lo + CHUNK_STREAMS]
        key_base = base[lo:lo + CHUNK_STREAMS]
        landed = []
        for block in uniform_blocks(seeds[lo:lo + CHUNK_STREAMS], cfg.steps):
            for draw in block.T:
                cur = indices[indptr[cur] + (draw * degree[cur]).astype(np.int64)]
                landed.append(key_base + cur)
        yield np.concatenate(landed)


def _check_probs(probs, starts):
    """Raise for the first table whose probabilities are no distribution.

    `probs` holds tables back to back and `starts` the offset of each
    non-empty one, in order.  A table must sum to 1 within 1e-9 and
    have a strictly positive least entry.  The tests are negations so
    that NaN fails them too; a NaN or an infinity fails the sum.
    """
    if not len(starts):
        return
    with np.errstate(invalid="ignore", over="ignore"):
        totals = np.add.reduceat(probs, starts)
    bad_sum = ~(np.abs(totals - 1.0) <= 1e-9)
    bad = bad_sum | ~(np.minimum.reduceat(probs, starts) > 0)
    if bad.any():
        first = bad.argmax()
        if bad_sum[first]:
            raise ContractError(f"hit probabilities sum to {float(totals[first])!r}, want 1")
        raise ContractError("hit probabilities must be strictly positive")


@dataclass(frozen=True, init=False, slots=True)
class HitTable:
    """Smoothed hit probabilities over one center's immediate neighbors.

    `HitTable(center, entries)` takes (neighbor id, probability) pairs,
    sorted by probability descending with ties broken by id ascending,
    and keeps them as the parallel tuples `ids` and `probs`.  The
    probabilities are strictly positive and sum to 1 unless the center
    has no neighbors at all.
    """

    center: str
    ids: tuple
    probs: tuple

    def __init__(self, center, entries):
        ids = tuple(n for n, _ in entries)
        probs = tuple(p for _, p in entries)
        _check_probs(np.array(probs, dtype=np.float64), [0] if probs else [])
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "probs", probs)

    @property
    def entries(self):
        """(neighbor id, probability) pairs, in table order."""
        return tuple(zip(self.ids, self.probs))

    def to_jsonable(self):
        return {
            "center": self.center,
            "neighbors": [{"id": n, "p": p} for n, p in zip(self.ids, self.probs)],
        }


def _neighbor_rows(csr, cidx):
    """(slot, node) of every center-neighbor pair, the rows of `cidx` concatenated.

    `cidx` holds sorted-order positions.  Slots ascend, and nodes ascend
    within a slot, so slot * N + node is strictly increasing.
    """
    starts = csr.indptr[cidx]
    lens = csr.indptr[cidx + 1] - starts
    slot = np.repeat(np.arange(len(cidx), dtype=np.int64), lens)
    pos = np.arange(lens.sum(), dtype=np.int64) + np.repeat(starts - np.cumsum(lens) + lens, lens)
    return slot, csr.indices[pos]


def _rank_order(slot, smoothed, slots, top):
    """The permutation that orders rows by slot, then by `smoothed` descending.

    Ties keep row order: one stable sort of the int64 keys
    slot * top + (top - smoothed), which ascend with slot and fall with
    `smoothed`.  They fit while every slot is below `slots`, every
    smoothed count is in [1, top], and slots * top <= 2 ** 63.

    Raises:
        ContractError: slots * top exceeds the int64 keys.
    """
    if slots * top > 2 ** 63:
        raise ContractError(f"{slots} slots with counts up to {top} overflow an int64 sort key")
    return np.argsort(slot * top + (top - smoothed), kind="stable")


def _ranked(csr, centers, slot, nbr, counts, top):
    """HitTables of `centers` from the walk counts of their `_neighbor_rows`.

    Every neighbor gets (count + 1) / sum over its center's neighbors
    of (count + 1), and no count + 1 exceeds `top`.  The order sorts on
    the integer counts, not the float probabilities, so ties are exact
    and keep the rows' id order.  The run's tables are checked
    together, then cut from one run-wide tuple of ids, gathered from
    the graph's own id array, and one of probabilities.
    """
    smoothed = counts + 1
    order = _rank_order(slot, smoothed, len(centers), top)
    denom = np.bincount(slot, weights=smoothed, minlength=len(centers))
    probs = (smoothed / denom[slot])[order]
    lens = np.bincount(slot, minlength=len(centers))
    ends = np.cumsum(lens)
    _check_probs(probs, (ends - lens)[lens > 0])
    probs = tuple(probs.tolist())
    ids = tuple(csr.id_array[nbr[order]].tolist())
    # the slots' own setters fill a checked table past the frozen __setattr__
    new = object.__new__
    put_center, put_ids, put_probs = HitTable.center.__set__, HitTable.ids.__set__, HitTable.probs.__set__
    tables = []
    begin = 0
    for center, end in zip(centers, ends.tolist()):
        table = new(HitTable)
        put_center(table, center)
        put_ids(table, ids[begin:end])
        put_probs(table, probs[begin:end])
        tables.append(table)
        begin = end
    return tables


def _landing_counts(csr, centers, cidx, cfg, pair_keys):
    """How many walk steps of `centers` land on each of the ascending `pair_keys`.

    Each stream chunk's landing keys are sorted once, and a key's count
    is the width of its run in them, found by two binary searches.
    """
    counts = np.zeros(len(pair_keys), dtype=np.int64)
    for landed in _walk_steps(csr, centers, cidx, cfg):
        landed.sort()
        counts += np.searchsorted(landed, pair_keys, "right")
        counts -= np.searchsorted(landed, pair_keys, "left")
    return counts


def _sample(g, centers, cfg):
    """HitTables of `centers`, in order, from one run of the walk kernel.

    Counting holds one stream chunk's landings at a time, sorted once.
    A neighbor's count is at most steps * restarts, one per step, so
    count + 1 is at most steps * restarts + 1.
    """
    csr = g.csr()
    cidx = _positions(csr, centers)
    slot, nbr = _neighbor_rows(csr, cidx)
    counts = _landing_counts(csr, centers, cidx, cfg, slot * len(csr.ids) + nbr)
    return _ranked(csr, centers, slot, nbr, counts, cfg.steps * cfg.restarts + 1)


def sample_neighborhood(g, center, cfg):
    """Walks plus smoothing in one call."""
    return _sample(g, [center], cfg)[0]


def top_n(table, n):
    """Ids of the n most probable neighbors, in table order; 0 is allowed."""
    if n < 0:
        raise ContractError(f"n must be >= 0, got {n}")
    return list(table.ids[:n])


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
