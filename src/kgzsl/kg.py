"""Knowledge graph ingestion and node features.

Graphs are immutable after construction.  Triples are (relation, head,
tail) with string ids; traversal is undirected because neighborhood
sampling and aggregation do not distinguish edge direction.
"""

from itertools import chain
from typing import NamedTuple

import numpy as np

from .config import open_input, write_output
from .errors import ContractError, EmptyNameError, ParseError, UnknownNodeError
from .seeding import make_rng


class Csr(NamedTuple):
    """Adjacency in compressed sparse rows, nodes numbered in sorted-id order.

    Row i holds the distinct undirected neighbors of ids[i], self-loops
    excluded, so its column indices ascend.  `id_array` holds `ids` as a
    read-only object array, built once per graph, so a run of positions
    gathers its ids in one step.
    """

    ids: tuple
    index: dict
    indptr: np.ndarray
    indices: np.ndarray
    id_array: np.ndarray


class Graph:
    """Immutable multi-relational graph over string node ids.

    Nodes, relations and edges keep first-seen order so that any
    iteration over them is reproducible across processes.  Each distinct
    triple is held as one int64 code, (relation * N + head) * N + tail,
    over relation positions and sorted-id node positions, and the
    adjacency as the `Csr` built at construction.  The edge tuples wait
    for the first read of `edges`, and the map of relations per node
    pair for the first `relations_between`.
    """

    __slots__ = ("_nodes", "_edges", "_relations", "_codes", "_rels_between", "_csr")

    def __init__(self, edges, extra_nodes=()):
        """Build a graph from (relation, head, tail) triples.

        Args:
            edges: iterable of (relation, head, tail) string triples.
                Duplicates are dropped, first occurrence wins.
            extra_nodes: node ids to intern before the edge endpoints,
                letting isolated nodes exist.
        """
        edges = list(map(tuple, edges))
        if any(len(edge) != 3 for edge in edges):
            raise ValueError("an edge must be a (relation, head, tail) triple")
        self._build(*(tuple(zip(*edges)) or ((), (), ())), extra_nodes)

    @classmethod
    def from_columns(cls, rels, heads, tails, extra_nodes=()):
        """A graph from the parallel id sequences of its triples' three fields.

        Equal to `Graph(zip(rels, heads, tails), extra_nodes)`, without a
        tuple per edge.
        """
        if not len(rels) == len(heads) == len(tails):
            raise ValueError(f"edge columns differ in length: {len(rels)}, {len(heads)}, {len(tails)}")
        g = object.__new__(cls)
        g._build(rels, heads, tails, extra_nodes)
        return g

    def _build(self, rels, heads, tails, extra_nodes):
        """Set every field; `_edges` waits for the first read of `edges`."""
        m = len(rels)
        ends = [None] * (2 * m)
        ends[0::2] = heads
        ends[1::2] = tails
        self._nodes = tuple(dict.fromkeys(chain(extra_nodes, ends)))
        self._relations = tuple(dict.fromkeys(rels))
        self._edges = None
        self._rels_between = None  # built by the first relations_between call
        n = len(self._nodes)
        if len(self._relations) * n * n > 2 ** 63:
            raise ContractError(f"{len(self._relations)} relations over {n} nodes overflow an int64 triple code")

        # number nodes in sorted-id order; a triple's code orders it by
        # (relation, head, tail), and the first of each repeat is kept
        ids = tuple(sorted(self._nodes))
        index = dict(zip(ids, range(n)))
        ranks = np.fromiter(map(index.__getitem__, ends), np.int64, 2 * m)
        h, t = ranks[0::2], ranks[1::2]
        rel_position = dict(zip(self._relations, range(len(self._relations))))
        codes = (np.fromiter(map(rel_position.__getitem__, rels), np.int64, m) * n + h) * n + t
        keep = np.sort(np.unique(codes, return_index=True)[1])
        self._codes = codes[keep]

        # both directions of every non-loop edge as row * N + column keys,
        # sorted once, with the first of each repeat kept
        link = h != t
        h, t = h[link], t[link]
        keys = np.concatenate([h * n + t, t * n + h])
        keys.sort()
        fresh = np.ones(len(keys), dtype=bool)
        fresh[1:] = keys[1:] > keys[:-1]
        keys = keys[fresh]
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n).astype(np.int64)
        id_array = np.array(ids, dtype=object)
        id_array.flags.writeable = False
        self._csr = Csr(ids, index, indptr, keys % n, id_array)

    @property
    def nodes(self):
        return self._nodes

    @property
    def edges(self):
        """(relation, head, tail) tuples in first-seen order, built on the first read."""
        if self._edges is None:
            n = len(self._nodes)
            rel_head, tail = np.divmod(self._codes, n)
            rel, head = np.divmod(rel_head, n)
            ids = self._csr.ids
            self._edges = tuple(zip(
                map(self._relations.__getitem__, rel.tolist()),
                map(ids.__getitem__, head.tolist()),
                map(ids.__getitem__, tail.tolist()),
            ))
        return self._edges

    @property
    def relations(self):
        return self._relations

    @property
    def num_nodes(self):
        return len(self._nodes)

    @property
    def num_edges(self):
        return len(self._codes)

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
        if self._rels_between is None:
            self._rels_between = self._relation_map()
        key = (u, v) if u <= v else (v, u)
        return self._rels_between.get(key, ())

    def _relation_map(self):
        """{(u, v) with u <= v: the pair's relations in first-seen order}."""
        rels_between, several = {}, {}
        for rel, head, tail in self.edges:
            key = (head, tail) if head <= tail else (tail, head)
            rels = rels_between.setdefault(key, (rel,))
            if rel not in rels:
                rels_between[key] = rels + (rel,)
                several[key] = None
        # a pair's relations come in edge order; only a pair with two or
        # more needs sorting into the relations' first-seen order
        rel_order = {r: i for i, r in enumerate(self._relations)}
        for key in several:
            rels_between[key] = tuple(sorted(rels_between[key], key=rel_order.__getitem__))
        return rels_between

    def __eq__(self, other):
        # with equal nodes and relations, equal codes are equal edges
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._nodes == other._nodes
            and self._relations == other._relations
            and np.array_equal(self._codes, other._codes)
        )

    def __repr__(self):
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges}, relations={len(self._relations)})"


def ingest(path, lang_filter=None):
    """Read a TSV assertion file into a Graph.

    Each data line is `relation<TAB>head<TAB>tail` with an optional
    fourth language column.  Blank lines and lines starting with "#" are
    skipped.  When `lang_filter` is given, only rows carrying exactly
    that language tag are kept; untagged rows do not match.

    Raises:
        ParseError: wrong column count or empty field, with the path and line number;
            a path that cannot be opened or bytes that are not UTF-8, with
            the path.
    """
    rels, heads, tails = [], [], []
    # text mode reads "\r\n" and "\r" as "\n", and stripping a field drops
    # the line's "\n", so only the fields a row uses are ever stripped
    with open_input(path, "graph file", ParseError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.lstrip()
            if not text or text[0] == "#":
                continue
            fields = raw.split("\t")
            count = len(fields)
            if count != 3 and count != 4:
                raise ParseError(f"expected 3 or 4 tab-separated fields, got {count}", line=lineno)
            rel, head, tail = fields[0].strip(), fields[1].strip(), fields[2].strip()
            if not (rel and head and tail):
                raise ParseError("empty relation or node id", line=lineno)
            if lang_filter is None or (count == 4 and fields[3].strip() == lang_filter):
                rels.append(rel)
                heads.append(head)
                tails.append(tail)
    return Graph.from_columns(rels, heads, tails)


def serialize(g, path):
    """Write the graph back to TSV, one edge per line in stored order.

    Only edges are written, so a node with no edges is not representable;
    ingested graphs never contain one.  `ingest(serialize(g))` returns an
    equal graph for any edge-covered graph.  Returns the file's sha256.
    """
    return write_output(path, "".join(f"{rel}\t{head}\t{tail}\n" for rel, head, tail in g.edges))


def default_tokenizer(node_id):
    """Tokens of the last path segment, split on underscores."""
    segs = [s for s in node_id.split("/") if s]
    last = segs[-1] if segs else ""
    return [t for t in last.split("_") if t]


class EmbeddingTable:
    """Token to vector lookup with deterministic out-of-vocabulary fill.

    Lookup first tries the token verbatim, then lowercased.  A miss gets
    a vector drawn uniformly from [-0.5/d, 0.5/d), seeded by the
    lowercased token, so the same miss yields the same vector in every
    process, and misses that differ only in case share one vector.
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
        """Parse a whitespace-separated `token v1 ... vd` file.

        A token on two lines is a ParseError naming it and both lines;
        tokens that differ in case are distinct.
        """
        entries = {}
        first_line = {}
        dim = None
        with open_input(path, "embeddings file", ParseError) as fh:
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
                token = parts[0]
                if token in first_line:
                    raise ParseError(
                        f"embedding token {token!r} repeats line {first_line[token]}", line=lineno
                    )
                first_line[token] = lineno
                entries[token] = vec
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
