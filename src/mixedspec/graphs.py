"""Mixed graphs: combinatorial representation, edge-list I/O, degree statistics.

A mixed graph has both undirected edges and directed arcs between distinct
vertices, with at most one connection per vertex pair (simple, no loops).
Vertices are 0-based internally; the text format is 1-based.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# uniforms per draw of random_mixed_graph, which takes at most three per
# vertex pair: one draw serves a graph on up to 7 vertices, and drawing more
# at once made the suite's small graphs slower. The stream does not depend
# on the chunk size.
UNIFORM_CHUNK = 64


class GraphFormatError(ValueError):
    """Raised when graph text cannot be parsed or violates simplicity."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False, init=False)
class MixedGraph:
    """Simple mixed graph on vertices 0..n-1: its order and two index arrays,
    ``edge_index`` (rows i < j) and ``arc_index`` (rows tail, head). Each is
    a read-only 2 x k intp array whose sorted columns are the pairs, and no
    two pairs share an underlying unordered pair. ``MixedGraph(n, undirected,
    arcs)`` takes each kind as (i, j) pairs or as a 2 x k integer array of
    columns, and reads n and every label through ``operator.index``."""

    n: int
    edge_index: np.ndarray
    arc_index: np.ndarray

    def __init__(self, n: int, undirected, arcs):
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        if n > sys.maxsize:
            raise ValueError(f"vertex count must be at most {sys.maxsize}, got {n}")
        edges, arcs = _index_arrays(n, _columns(undirected, "undirected edge"), _columns(arcs, "arc"))
        vars(self).update(n=n, edge_index=edges, arc_index=arcs)

    # a graph compares and hashes by n and the arrays' bytes
    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, MixedGraph) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple[int, bytes, bytes]:
        return self.n, self.edge_index.tobytes(), self.arc_index.tobytes()

    @property
    def edge_count(self) -> int:
        """Edges of the underlying graph (arcs count once)."""
        return self.edge_index.shape[1] + self.arc_index.shape[1]

    # The graph is immutable, so data derived from it is computed on first use
    # and kept; every matrix built from the graph shares it.

    @cached_property
    def stats(self) -> GraphStats:
        """Degree statistics of the underlying graph (see ``graph_stats``)."""
        return graph_stats(self)

    # the pairs as sets of (i, j) and (tail, head) tuples
    undirected = cached_property(lambda self: frozenset(zip(*self.edge_index.tolist())))
    arcs = cached_property(lambda self: frozenset(zip(*self.arc_index.tolist())))


def _columns(pairs, kind: str) -> np.ndarray:
    """The 2 x k columns of these pairs of one kind, or of this array."""
    if isinstance(pairs, np.ndarray):
        if not np.can_cast(pairs.dtype, np.intp):
            raise ValueError(f"{kind} labels must be integers, got an array of {pairs.dtype}")
        if pairs.ndim != 2 or len(pairs) != 2:
            raise ValueError(f"{kind} array must be 2 x k, got shape {pairs.shape}")
        return pairs.astype(np.intp, copy=False)
    try:
        pairs = iter(pairs)
    except TypeError:
        raise ValueError(f"{kind}s must be pairs or a 2 x k array, got {type(pairs).__name__}") from None
    labels = []
    for pair in pairs:
        try:
            i, j = pair
        except (TypeError, ValueError):
            raise ValueError(f"{kind} {pair!r} is not an (i, j) pair") from None
        try:
            labels += operator.index(i), operator.index(j)
        except TypeError:
            raise ValueError(f"{kind} ({i}, {j}) has a non-integer label") from None
    try:
        return np.array(labels, np.intp).reshape(-1, 2).T
    except OverflowError:  # a label no intp holds, which no graph has
        return np.array(labels, object).reshape(-1, 2).T


def _index_arrays(n: int, edges: np.ndarray, arcs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays of an order-n graph with these columns, after one
    check of every pair. Its rules, in order, each reported at its smallest
    failing pair: every edge is canonical (0 <= i < j < n); no arc is a
    self-loop; every arc is in range; no two pairs share an underlying pair."""
    k = edges.shape[1]
    (i, j), (t, h) = edges, arcs
    first = np.concatenate((i, np.minimum(t, h)))
    second = np.concatenate((j, np.maximum(t, h)))
    fine = (first >= 0) & (first < second) & (second < n)
    if not fine.all():
        if bad := sorted(zip(*edges[:, ~fine[:k]].tolist())):
            raise ValueError(f"undirected edge {bad[0]} not canonical for n={n}")
        # a self-loop before a pair out of range, then the smallest pair
        a, b = min(zip(*arcs[:, ~fine[k:]].tolist()), key=lambda pair: (pair[0] != pair[1], pair))
        raise ValueError(f"self-loop at vertex {a}" if a == b else f"arc ({a}, {b}) out of range for n={n}")
    keys = _pair_keys(first, second, n)
    ordered = np.sort(keys)
    if np.count_nonzero(same := ordered[1:] == ordered[:-1]):
        raise ValueError(f"duplicate underlying pair {divmod(int(ordered[1:][same][0]), n)}")
    return _sorted_index_array(keys[:k], n), _sorted_index_array(_pair_keys(t, h, n), n)


# up to this order a pair of vertices is one int64 key, first * n + second
_KEYED_ORDER = math.isqrt(np.iinfo(np.int64).max)


def _pair_keys(first: np.ndarray, second: np.ndarray, n: int) -> np.ndarray:
    """Keys first * n + second, which sort as the pairs do; Python ints above _KEYED_ORDER."""
    return (first if n <= _KEYED_ORDER else first.astype(object)) * n + second


def _sorted_index_array(keys: np.ndarray, n: int) -> np.ndarray:
    """The pairs with these ``_pair_keys`` as a read-only 2 x k intp array of
    columns, sorted as tuples sort. Sorting keys takes about a third of the
    time of ``np.lexsort`` at 900 pairs."""
    keys = np.sort(keys)
    pairs = np.array((keys // n, keys % n), np.intp)
    pairs.setflags(write=False)
    return pairs


@dataclass(frozen=True)
class GraphStats:
    """Degree statistics of the underlying graph, consumed by the bounds."""

    n: int
    m: int
    arc_count: int
    undirected_count: int
    degrees: tuple[int, ...]
    max_degree: int
    min_degree: int
    zagreb: int

    def __post_init__(self):
        if self.m != self.arc_count + self.undirected_count:
            raise ValueError(
                f"m={self.m} is not arcs {self.arc_count} + undirected {self.undirected_count}"
            )
        if sum(self.degrees) != 2 * self.m:
            raise ValueError(f"degree sum {sum(self.degrees)} is not 2m = {2 * self.m}")
        if not all(self.min_degree <= d <= self.max_degree for d in self.degrees):
            raise ValueError(
                f"degrees {self.degrees} outside [{self.min_degree}, {self.max_degree}]"
            )
        if self.zagreb != sum(d * d for d in self.degrees):
            raise ValueError(f"zagreb={self.zagreb} is not the sum of squared degrees")


def graph_stats(g: MixedGraph) -> GraphStats:
    """Compute degrees, extremes and the first Zagreb index of ``g``."""
    ends = np.concatenate((g.edge_index, g.arc_index), axis=1)
    degrees = np.bincount(ends.ravel(), minlength=g.n).tolist()
    return GraphStats(
        n=g.n,
        m=g.edge_count,
        arc_count=g.arc_index.shape[1],
        undirected_count=g.edge_index.shape[1],
        degrees=tuple(degrees),
        max_degree=max(degrees),
        min_degree=min(degrees),
        zagreb=sum(d * d for d in degrees),
    )


def zagreb_lower_bound(stats: GraphStats) -> float:
    """Lower bound on the first Zagreb index in terms of n, m and the degree extremes.

    Requires n >= 3 (the n-2 denominator); equality holds e.g. for regular
    graphs and stars.
    """
    n, m = stats.n, stats.m
    if n < 3:
        raise ValueError(f"zagreb lower bound needs n >= 3, got n={n}")
    dmax, dmin = stats.max_degree, stats.min_degree
    return (
        4.0 * m * m / n
        + 0.5 * (dmax - dmin) ** 2
        + (2.0 * n / (n - 2)) * (2.0 * m / n - (dmax + dmin) / 2.0) ** 2
    )


def random_mixed_graph(n: int, edge_prob: float, orient_prob: float, seed: int) -> MixedGraph:
    """Sample a mixed graph: each pair kept with ``edge_prob``, kept pairs become
    arcs with ``orient_prob`` (direction uniform), else undirected.

    Uses the PCG64 generator; pairs are visited in lexicographic order and the
    orientation draws happen only for kept pairs, so a fixed seed reproduces
    the graph exactly. The uniforms are drawn UNIFORM_CHUNK at a time and
    consumed in order, which gives the same stream as one draw per call.
    """
    if n > sys.maxsize:
        raise ValueError(f"vertex count must be at most {sys.maxsize}, got {n}")
    if not (0.0 <= edge_prob <= 1.0 and 0.0 <= orient_prob <= 1.0):
        raise ValueError(f"probabilities must lie in [0, 1], got {edge_prob}, {orient_prob}")
    rng = np.random.Generator(np.random.PCG64(seed))
    uniform = _uniforms(rng).__next__
    edges, arcs = [], []  # labels, two per pair
    for i in range(n):
        for j in range(i + 1, n):
            if uniform() >= edge_prob:
                continue
            if uniform() < orient_prob:
                arcs += (i, j) if uniform() < 0.5 else (j, i)
            else:
                edges += i, j
    return MixedGraph(n, *(np.array(labels, np.intp).reshape(-1, 2).T for labels in (edges, arcs)))


def _uniforms(rng: np.random.Generator):
    """The generator's uniform stream, drawn UNIFORM_CHUNK values at a time."""
    while True:
        yield from rng.random(UNIFORM_CHUNK).tolist()


def parse_graph(text: str) -> MixedGraph:
    """Parse the edge-list format: first line n, then ``i -- j`` / ``i -> j`` lines.

    Labels are 1-based and read by ``int``; ``#`` starts a comment; blank
    lines are skipped; lines are numbered as ``str.splitlines`` splits them.
    Text in the plain grammar ``_PLAIN`` is read from its bytes; any other
    text, and any text that fails the check, is walked line by line, which
    gives the same graph or reports the first bad line.
    """
    return _byte_graph(text) or MixedGraph(*_walk_lines(text))


_OPS = ("--", "->")

# A comment runs from "#" to the end of its line: to the first character at
# which str.splitlines would break.
_COMMENT = re.compile(r"#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")

# The plain grammar, in ASCII digits, space, tab, newline, "-" and ">": the
# count, then lines of one edge each, with blanks and blank lines anywhere
# between lines. Each line matches in one way only, so a failing match takes
# linear time. A count or label of at most 18 digits is below 2**63.
_PLAIN = re.compile(
    rb"[ \t\n]*[0-9]{1,18}[ \t]*(?:\n[ \t\n]*[0-9]{1,18}[ \t]+-[->][ \t]+[0-9]{1,18}[ \t]*)*[ \t\n]*"
)


def _byte_graph(text: str) -> MixedGraph | None:
    """The graph read from the bytes of ``text``; None unless ``text`` outside
    its comments matches the plain grammar ``_PLAIN`` and passes the check."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    # isascii first: encode() raises on a lone surrogate. A newline at each
    # end changes no match and puts a non-digit byte around every digit run.
    if not text.isascii() or _PLAIN.fullmatch(raw := f"\n{text}\n".encode()) is None:
        return None
    b = np.frombuffer(raw, np.uint8)
    digit = (b >= ord("0")) & (b <= ord("9"))
    # the digit runs: the count, then the two labels of each edge line
    starts, ends = (np.flatnonzero(digit[1:] != digit[:-1]) + 1).reshape(-1, 2).T
    n = int(raw[starts[0]:ends[0]])
    firsts, lasts = starts[1:], ends[1:]
    # the labels as digit columns, ones first; a shorter label's column is 0
    labels = b[lasts - 1] - np.intp(ord("0"))
    for place in range(1, int((lasts - firsts).max(initial=1))):
        at = lasts - 1 - place
        labels += np.where(at >= firsts, b[at] - np.intp(ord("0")), 0) * 10**place
    pairs = labels.reshape(-1, 2).T - 1
    # a line's ">" lies between the ends of its first label and the next one
    is_arc = np.logical_or.reduceat(b == ord(">"), ends[1::2])
    i, j = pairs[:, ~is_arc]
    try:
        return MixedGraph(n, np.array((np.minimum(i, j), np.maximum(i, j))), pairs[:, is_arc])
    except ValueError:
        return None  # the walker names the first bad line


def _walk_lines(text: str) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]]]:
    """n and the 0-based undirected edges and arcs of any text, plain or
    not, read line by line; raises GraphFormatError for the first bad line."""
    n = None
    edges, arcs = [], []
    seen: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphFormatError(f"expected vertex count, got {line!r}", lineno) from None
            if n < 1:
                raise GraphFormatError(f"vertex count must be positive, got {n}", lineno)
            if n > sys.maxsize:
                raise GraphFormatError(f"vertex count must be at most {sys.maxsize}, got {n}", lineno)
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] not in _OPS:
            raise GraphFormatError(f"expected 'i -- j' or 'i -> j', got {line!r}", lineno)
        try:
            i, j = int(tokens[0]), int(tokens[2])
        except ValueError:
            raise GraphFormatError(f"vertex labels must be integers, got {line!r}", lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphFormatError(f"vertex label out of range 1..{n} in {line!r}", lineno)
        if i == j:
            raise GraphFormatError(f"self-loop at vertex {i}", lineno)
        lo, hi = min(i, j), max(i, j)
        if (lo, hi) in seen:
            first = seen[lo, hi]
            raise GraphFormatError(
                f"duplicate underlying pair {{{lo}, {hi}}} (first seen on line {first})", lineno
            )
        seen[lo, hi] = lineno
        if tokens[1] == "->":
            arcs.append((i - 1, j - 1))
        else:
            edges.append((lo - 1, hi - 1))
    if n is None:
        raise GraphFormatError("empty input: no vertex count found")
    return n, edges, arcs


def serialize_graph(g: MixedGraph) -> str:
    """Canonical text form: n, sorted undirected edges, then sorted arcs, 1-based."""
    lines = [str(g.n)]
    lines += (f"{i + 1} -- {j + 1}" for i, j in zip(*g.edge_index.tolist()))
    lines += (f"{t + 1} -> {h + 1}" for t, h in zip(*g.arc_index.tolist()))
    return "\n".join(lines) + "\n"
