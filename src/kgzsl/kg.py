"""Knowledge graph ingestion and node features.

Graphs are immutable after construction.  Triples are (relation, head,
tail) with string ids; traversal is undirected because neighborhood
sampling and aggregation do not distinguish edge direction.
"""

from typing import NamedTuple

import numpy as np

from .errors import EmptyNameError, ParseError, UnknownNodeError
from .seeding import make_rng


class Csr(NamedTuple):
    """Adjacency in compressed sparse rows, nodes numbered in sorted-id order.

    Row i holds the distinct undirected neighbors of ids[i], self-loops
    excluded, so its column indices ascend.
    """

    ids: tuple
    index: dict
    indptr: np.ndarray
    indices: np.ndarray


class Graph:
    """Immutable multi-relational graph over string node ids.

    Nodes, relations and edges keep first-seen order so that any
    iteration over them is reproducible across processes.  The adjacency
    is held once, as the `Csr` built at construction.
    """

    __slots__ = ("_nodes", "_edges", "_relations", "_rels_between", "_csr")

    def __init__(self, edges, extra_nodes=()):
        """Build a graph from (relation, head, tail) triples.

        Args:
            edges: iterable of (relation, head, tail) string triples.
                Duplicates are dropped, first occurrence wins.
            extra_nodes: node ids to intern before the edge endpoints,
                letting isolated nodes exist.
        """
        self._edges = tuple(dict.fromkeys((rel, head, tail) for rel, head, tail in edges))
        self._relations = tuple(dict.fromkeys(rel for rel, _, _ in self._edges))
        first_seen = {}
        for v in extra_nodes:
            first_seen.setdefault(v, len(first_seen))
        ends = [first_seen.setdefault(v, len(first_seen)) for _, head, tail in self._edges
                for v in (head, tail)]
        self._nodes = tuple(first_seen)

        rels_between = {}
        for rel, head, tail in self._edges:
            key = (head, tail) if head <= tail else (tail, head)
            rels_between.setdefault(key, {})[rel] = None
        rel_order = {r: i for i, r in enumerate(self._relations)}
        self._rels_between = {
            k: tuple(sorted(rs, key=rel_order.__getitem__)) for k, rs in rels_between.items()
        }

        # number nodes in sorted-id order, then sort both directions of every
        # non-loop edge by (row, column) and keep the first of each repeat
        n = len(self._nodes)
        order = sorted(range(n), key=self._nodes.__getitem__)
        ids = tuple(self._nodes[i] for i in order)
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
        self._csr = Csr(ids, dict(zip(ids, range(n))), indptr, cols[fresh])

    @property
    def nodes(self):
        return self._nodes

    @property
    def edges(self):
        return self._edges

    @property
    def relations(self):
        return self._relations

    @property
    def num_nodes(self):
        return len(self._nodes)

    @property
    def num_edges(self):
        return len(self._edges)

    def __contains__(self, node):
        return node in self._csr.index

    def _position(self, node):
        i = self._csr.index.get(node)
        if i is None:
            raise UnknownNodeError(node)
        return i

    def neighbors(self, node):
        """Distinct undirected neighbors of `node`, sorted by id."""
        i = self._position(node)
        ids, indptr = self._csr.ids, self._csr.indptr
        return tuple(ids[j] for j in self._csr.indices[indptr[i]:indptr[i + 1]].tolist())

    def csr(self):
        """The `Csr` adjacency."""
        return self._csr

    def relations_between(self, u, v):
        """Relations on any edge joining u and v, in either direction."""
        self._position(u)
        self._position(v)
        key = (u, v) if u <= v else (v, u)
        return self._rels_between.get(key, ())

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._edges == other._edges
            and self._relations == other._relations
        )

    def __hash__(self):
        return hash((self._nodes, self._edges))

    def __repr__(self):
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges}, relations={len(self._relations)})"


def ingest(path, lang_filter=None, bidirectional=False):
    """Read a TSV assertion file into a Graph.

    Each data line is `relation<TAB>head<TAB>tail` with an optional
    fourth language column.  Blank lines and lines starting with "#" are
    skipped.  When `lang_filter` is given, only rows carrying exactly
    that language tag are kept; untagged rows do not match.

    Raises:
        ParseError: wrong column count or empty field, with line number.
    """
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise ParseError(
                    f"expected 3 or 4 tab-separated fields, got {len(fields)}", line=lineno
                )
            fields = [f.strip() for f in fields]
            rel, head, tail = fields[0], fields[1], fields[2]
            if not rel or not head or not tail:
                raise ParseError("empty relation or node id", line=lineno)
            if lang_filter is not None:
                lang = fields[3] if len(fields) == 4 else None
                if lang != lang_filter:
                    continue
            edges.append((rel, head, tail))
    g = Graph(edges)
    if bidirectional:
        g = make_bidirectional(g)
    return g


def make_bidirectional(g):
    """Add the reverse of every edge (same relation id), deduplicated."""
    reverses = [(rel, tail, head) for rel, head, tail in g.edges]
    return Graph(list(g.edges) + reverses, extra_nodes=g.nodes)


def serialize(g, path):
    """Write the graph back to TSV, one edge per line in stored order.

    Only edges are written, so a node with no edges is not representable;
    ingested graphs never contain one.  `ingest(serialize(g))` returns an
    equal graph for any edge-covered graph.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for rel, head, tail in g.edges:
            fh.write(f"{rel}\t{head}\t{tail}\n")


def default_tokenizer(node_id):
    """Tokens of the last path segment, split on underscores."""
    segs = [s for s in node_id.split("/") if s]
    last = segs[-1] if segs else ""
    return [t for t in last.split("_") if t]


class EmbeddingTable:
    """Token to vector lookup with deterministic out-of-vocabulary fill.

    Lookup first tries the token verbatim, then lowercased.  A miss gets
    a vector drawn uniformly from [-0.5/d, 0.5/d), seeded by the token
    itself, so the same miss yields the same vector in every process.
    """

    def __init__(self, entries, dimension=None):
        self._entries = {}
        for token, vec in entries.items():
            arr = np.asarray(vec, dtype=np.float64)
            if dimension is None:
                dimension = arr.shape[0]
            if arr.shape != (dimension,):
                raise ParseError(f"embedding for {token!r} has shape {arr.shape}, want ({dimension},)")
            if not np.isfinite(arr).all():
                raise ParseError(f"embedding for {token!r} has a non-finite value")
            arr.flags.writeable = False
            self._entries[token] = arr
        if dimension is None:
            raise ParseError("cannot determine embedding dimension from empty table")
        self._dim = int(dimension)
        self._oov_cache = {}

    @classmethod
    def from_file(cls, path):
        """Parse a whitespace-separated `token v1 ... vd` file."""
        entries = {}
        dim = None
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                parts = line.split()
                if dim is None:
                    if len(parts) < 2:
                        raise ParseError("embedding line needs a token and at least one value", line=lineno)
                    dim = len(parts) - 1
                if len(parts) != dim + 1:
                    raise ParseError(
                        f"expected {dim} values, got {len(parts) - 1}", line=lineno
                    )
                try:
                    vec = [float(x) for x in parts[1:]]
                except ValueError as exc:
                    raise ParseError(str(exc), line=lineno) from exc
                entries[parts[0]] = vec
        if dim is None:
            raise ParseError("empty embedding file")
        return cls(entries, dimension=dim)

    @property
    def dimension(self):
        return self._dim

    def lookup(self, token):
        vec = self._entries.get(token)
        if vec is None:
            vec = self._entries.get(token.lower())
        if vec is None:
            key = token.lower()
            vec = self._oov_cache.get(key)
            if vec is None:
                rng = make_rng("oov", 0, key)
                span = 0.5 / self._dim
                vec = rng.uniform(-span, span, size=self._dim)
                vec.flags.writeable = False
                self._oov_cache[key] = vec
        return vec


class FeatureTable:
    """One fixed-dimension float64 vector per node."""

    def __init__(self, dimension, features):
        self._dim = int(dimension)
        self._features = {}
        for node, vec in features.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (self._dim,):
                raise ParseError(f"feature for {node!r} has shape {arr.shape}, want ({self._dim},)")
            if not np.isfinite(arr).all():
                raise ParseError(f"feature for {node!r} has a non-finite value")
            arr.flags.writeable = False
            self._features[node] = arr

    @property
    def dimension(self):
        return self._dim

    def __contains__(self, node):
        return node in self._features

    def __getitem__(self, node):
        try:
            return self._features[node]
        except KeyError:
            raise UnknownNodeError(node) from None

    def to_jsonable(self):
        return {
            "dimension": self._dim,
            "features": {node: [float(x) for x in vec] for node, vec in self._features.items()},
        }


def init_features(g, embeddings):
    """Mean of the `default_tokenizer` token embeddings for every graph node.

    Raises:
        EmptyNameError: a node id tokenizes to nothing.
    """
    feats = {}
    for node in g.nodes:
        tokens = default_tokenizer(node)
        if not tokens:
            raise EmptyNameError(node)
        vecs = [embeddings.lookup(t) for t in tokens]
        feats[node] = np.mean(vecs, axis=0)
    return FeatureTable(embeddings.dimension, feats)
