"""Mixed graphs: combinatorial representation, edge-list I/O, degree statistics.

A mixed graph has both undirected edges and directed arcs between distinct
vertices, with at most one connection per vertex pair (simple, no loops).
Vertices are 0-based internally; the text format is 1-based.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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


@dataclass(frozen=True)
class MixedGraph:
    """Simple mixed graph on vertices 0..n-1.

    ``undirected`` holds unordered pairs stored as (i, j) with i < j;
    ``arcs`` holds ordered (tail, head) pairs. The underlying unordered pair
    of every edge or arc is unique across both sets.
    """

    n: int
    undirected: frozenset[tuple[int, int]]
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        if self.n > sys.maxsize:
            raise ValueError(f"vertex count must be at most {sys.maxsize}, got {self.n}")
        seen: set[tuple[int, int]] = set()
        for i, j in self.undirected:
            if not (0 <= i < j < self.n):
                raise ValueError(f"undirected edge ({i}, {j}) not canonical for n={self.n}")
            seen.add((i, j))
        for t, h in self.arcs:
            if t == h:
                raise ValueError(f"self-loop at vertex {t}")
            if not (0 <= t < self.n and 0 <= h < self.n):
                raise ValueError(f"arc ({t}, {h}) out of range for n={self.n}")
            pair = (t, h) if t < h else (h, t)
            if pair in seen:
                raise ValueError(f"duplicate underlying pair {pair}")
            seen.add(pair)

    @property
    def edge_count(self) -> int:
        """Edges of the underlying graph (arcs count once)."""
        return len(self.undirected) + len(self.arcs)

    # The graph is immutable, so data derived from it is computed on first use
    # and kept; every matrix built from the graph shares it.

    @cached_property
    def stats(self) -> GraphStats:
        """Degree statistics of the underlying graph (see ``graph_stats``)."""
        return graph_stats(self)

    @cached_property
    def edge_index(self) -> np.ndarray:
        """Undirected edges as a read-only 2 x k int array: rows i and j, sorted."""
        return _index_array(self.undirected)

    @cached_property
    def arc_index(self) -> np.ndarray:
        """Arcs as a read-only 2 x k int array: rows tail and head, sorted."""
        return _index_array(self.arcs)

    @classmethod
    def _from_index(cls, n: int, edge_index: np.ndarray, arc_index: np.ndarray) -> MixedGraph:
        """The graph with these index arrays, which the caller has built with
        ``_sorted_index_array`` and checked for range, loops and duplicate
        pairs: ``__post_init__`` does not check them a second time."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "undirected", frozenset(zip(*edge_index.tolist())))
        object.__setattr__(g, "arcs", frozenset(zip(*arc_index.tolist())))
        g.__dict__.update(edge_index=edge_index, arc_index=arc_index)
        return g


def _index_array(pairs: frozenset[tuple[int, int]]) -> np.ndarray:
    """A set of pairs as a read-only 2 x k array of columns, sorted."""
    return _read_only(
        np.fromiter(chain.from_iterable(sorted(pairs)), np.intp, 2 * len(pairs)).reshape(-1, 2).T
    )


# up to this order a pair of vertices is one int64 key, first * n + second
_KEYED_ORDER = math.isqrt(np.iinfo(np.int64).max)


def _sorted_index_array(first: np.ndarray, second: np.ndarray, n: int) -> np.ndarray:
    """The pairs (first[k], second[k]) of vertices of an order-n graph as a
    read-only 2 x k array of columns, sorted as ``_index_array`` sorts a set
    of pairs. Sorting their int64 keys takes about a third of the time of
    ``np.lexsort`` at 900 pairs; a wider order, whose keys would overflow,
    takes ``np.lexsort``."""
    if n <= _KEYED_ORDER:
        pairs = np.divmod(np.sort(first * n + second), n)
    else:
        order = np.lexsort((second, first))
        pairs = first[order], second[order]
    return _read_only(np.stack(pairs))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        arc_count=len(g.arcs),
        undirected_count=len(g.undirected),
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
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > sys.maxsize:
        raise ValueError(f"vertex count must be at most {sys.maxsize}, got {n}")
    if not (0.0 <= edge_prob <= 1.0 and 0.0 <= orient_prob <= 1.0):
        raise ValueError(f"probabilities must lie in [0, 1], got {edge_prob}, {orient_prob}")
    rng = np.random.Generator(np.random.PCG64(seed))
    uniform = _uniforms(rng).__next__
    undirected = []
    arcs = []
    for i in range(n):
        for j in range(i + 1, n):
            if uniform() >= edge_prob:
                continue
            if uniform() < orient_prob:
                if uniform() < 0.5:
                    arcs.append((i, j))
                else:
                    arcs.append((j, i))
            else:
                undirected.append((i, j))
    return MixedGraph(n=n, undirected=frozenset(undirected), arcs=frozenset(arcs))


def _uniforms(rng: np.random.Generator):
    """The generator's uniform stream, drawn UNIFORM_CHUNK values at a time."""
    while True:
        yield from rng.random(UNIFORM_CHUNK).tolist()


def parse_graph(text: str) -> MixedGraph:
    """Parse the edge-list format: first line n, then ``i -- j`` / ``i -> j`` lines.

    Labels are 1-based and read by ``int``; ``#`` starts a comment; blank
    lines are skipped; lines are numbered as ``str.splitlines`` splits them.
    Text in the plain grammar ``_PLAIN`` is read from its bytes; any other
    text, and any text that fails a check, is walked line by line, which
    gives the same columns or reports the first bad line.
    """
    columns = _byte_columns(text)
    n, i, j, is_arc = _walk_lines(text) if columns is None else columns
    ei, ej = i[~is_arc], j[~is_arc]
    edge_index = _sorted_index_array(np.minimum(ei, ej), np.maximum(ei, ej), n)
    return MixedGraph._from_index(n, edge_index, _sorted_index_array(i[is_arc], j[is_arc], n))


_OPS = frozenset({"--", "->"})

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


def _byte_columns(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray] | None:
    """n, the edge lines' 0-based labels i and j, and a mask of the arcs
    among them, read from the bytes of ``text``; None unless ``text``
    outside its comments matches the plain grammar ``_PLAIN`` and passes
    every check that ``_walk_lines`` makes."""
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
    if n < 1 or labels.min(initial=1) < 1 or labels.max(initial=1) > n:
        return None
    i, j = labels.reshape(-1, 2).T - 1
    lo, hi = _sorted_index_array(np.minimum(i, j), np.maximum(i, j), n)
    if (lo == hi).any() or ((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])).any():
        return None
    # a line's ">" lies between the ends of its first label and the next one
    return n, i, j, np.logical_or.reduceat(b == ord(">"), ends[1::2])


def _walk_lines(text: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The columns that ``_byte_columns`` reads, read line by line from any
    text, plain or not; raises GraphFormatError for the first bad line."""
    n = None
    firsts, seconds, arcs = [], [], []
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
        firsts.append(i - 1)
        seconds.append(j - 1)
        arcs.append(tokens[1] == "->")
    if n is None:
        raise GraphFormatError("empty input: no vertex count found")
    return n, np.array(firsts, np.intp), np.array(seconds, np.intp), np.array(arcs, bool)


def serialize_graph(g: MixedGraph) -> str:
    """Canonical text form: n, sorted undirected edges, then sorted arcs, 1-based."""
    lines = [str(g.n)]
    for i, j in sorted(g.undirected):
        lines.append(f"{i + 1} -- {j + 1}")
    for t, h in sorted(g.arcs):
        lines.append(f"{t + 1} -> {h + 1}")
    return "\n".join(lines) + "\n"
