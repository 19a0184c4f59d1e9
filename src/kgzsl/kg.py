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

    Row i holds the neighbors of ids[i] in `Graph.neighbors` order, so
    its column indices ascend.
    """

    ids: tuple
    index: dict
    indptr: np.ndarray
    indices: np.ndarray


class Graph:
    """Immutable multi-relational graph over string node ids.

    Nodes, relations and edges keep first-seen order so that any
    iteration over them is reproducible across processes.
    """

    __slots__ = (
        "_nodes", "_node_set", "_edges", "_edge_set", "_relations", "_adj", "_rels_between", "_csr",
    )

    def __init__(self, edges, extra_nodes=()):
        """Build a graph from (relation, head, tail) triples.

        Args:
            edges: iterable of (relation, head, tail) string triples.
                Duplicates are dropped, first occurrence wins.
            extra_nodes: node ids to intern before the edge endpoints,
                letting isolated nodes exist.
        """
        nodes = []
        node_set = set()
        relations = []
        relation_set = set()
        kept = []
        edge_set = set()
        adj = {}
        rels_between = {}

        def intern_node(v):
            if v not in node_set:
                node_set.add(v)
                nodes.append(v)
                adj[v] = set()

        for v in extra_nodes:
            intern_node(v)
        for rel, head, tail in edges:
            triple = (rel, head, tail)
            if triple in edge_set:
                continue
            edge_set.add(triple)
            kept.append(triple)
            if rel not in relation_set:
                relation_set.add(rel)
                relations.append(rel)
            intern_node(head)
            intern_node(tail)
            if head != tail:
                adj[head].add(tail)
                adj[tail].add(head)
            key = (head, tail) if head <= tail else (tail, head)
            rels_between.setdefault(key, set()).add(rel)

        self._nodes = tuple(nodes)
        self._node_set = frozenset(node_set)
        self._edges = tuple(kept)
        self._edge_set = frozenset(edge_set)
        self._relations = tuple(relations)
        # sorted tuples, not sets: set iteration over salted str hashes is
        # not reproducible across processes
        self._adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        rel_order = {r: i for i, r in enumerate(self._relations)}
        self._rels_between = {
            k: tuple(sorted(rs, key=lambda r: rel_order[r])) for k, rs in rels_between.items()
        }
        self._csr = None

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
        return node in self._node_set

    def neighbors(self, node):
        """Distinct undirected neighbors of `node`, sorted by id."""
        if node not in self._node_set:
            raise UnknownNodeError(node)
        return self._adj[node]

    def csr(self):
        """The `Csr` view of the adjacency, built on first use and kept."""
        if self._csr is None:
            ids = tuple(sorted(self._nodes))
            index = {v: i for i, v in enumerate(ids)}
            rows = [self._adj[v] for v in ids]
            indptr = np.zeros(len(ids) + 1, dtype=np.int64)
            np.cumsum([len(r) for r in rows], out=indptr[1:])
            indices = np.fromiter(
                (index[u] for r in rows for u in r), dtype=np.int64, count=int(indptr[-1])
            )
            self._csr = Csr(ids, index, indptr, indices)
        return self._csr

    def relations_between(self, u, v):
        """Relations on any edge joining u and v, in either direction."""
        if u not in self._node_set:
            raise UnknownNodeError(u)
        if v not in self._node_set:
            raise UnknownNodeError(v)
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
    edges = list(g.edges)
    present = set(edges)
    for rel, head, tail in g.edges:
        rev = (rel, tail, head)
        if rev not in present:
            present.add(rev)
            edges.append(rev)
    return Graph(edges, extra_nodes=g.nodes)


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

    def __init__(self, entries, dimension=None, oov_seed=0):
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
        self._oov_seed = oov_seed
        self._oov_cache = {}

    @classmethod
    def from_file(cls, path, oov_seed=0):
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
        return cls(entries, dimension=dim, oov_seed=oov_seed)

    @property
    def dimension(self):
        return self._dim

    def __contains__(self, token):
        return token in self._entries or token.lower() in self._entries

    def lookup(self, token):
        vec = self._entries.get(token)
        if vec is None:
            vec = self._entries.get(token.lower())
        if vec is None:
            key = token.lower()
            vec = self._oov_cache.get(key)
            if vec is None:
                rng = make_rng("oov", self._oov_seed, key)
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

    def nodes(self):
        return tuple(self._features.keys())

    def to_jsonable(self):
        return {
            "dimension": self._dim,
            "features": {node: [float(x) for x in vec] for node, vec in self._features.items()},
        }

    @classmethod
    def from_jsonable(cls, obj):
        return cls(obj["dimension"], obj["features"])


def init_features(g, embeddings, tokenizer=None):
    """Mean-of-token-embeddings feature for every graph node.

    Raises:
        EmptyNameError: a node id tokenizes to nothing.
    """
    if tokenizer is None:
        tokenizer = default_tokenizer
    feats = {}
    for node in g.nodes:
        tokens = tokenizer(node)
        if not tokens:
            raise EmptyNameError(node)
        vecs = [embeddings.lookup(t) for t in tokens]
        feats[node] = np.mean(vecs, axis=0)
    return FeatureTable(embeddings.dimension, feats)
