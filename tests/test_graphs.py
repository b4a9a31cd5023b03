"""Graph representation, parsing, statistics and the Zagreb lower bound."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixedspec
from mixedspec.cli import main as cli_main
from mixedspec.graphs import (
    GraphFormatError,
    GraphStats,
    MixedGraph,
    graph_stats,
    parse_graph,
    random_mixed_graph,
    serialize_graph,
    zagreb_lower_bound,
)

DATA = Path(__file__).parent / "data"


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    edge_prob = draw(st.floats(0.0, 1.0))
    orient_prob = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_mixed_graph(n, edge_prob, orient_prob, seed)


class TestMixedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            MixedGraph(n=3, undirected=frozenset(), arcs=frozenset({(1, 1)}))

    def test_rejects_duplicate_pair_across_sets(self):
        with pytest.raises(ValueError, match="duplicate"):
            MixedGraph(n=2, undirected=frozenset({(0, 1)}), arcs=frozenset({(1, 0)}))

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError, match=r"^arc \(0, 5\) out of range for n=2$"):
            MixedGraph(n=2, undirected=frozenset(), arcs=frozenset({(0, 5)}))

    def test_rejects_non_canonical_undirected_pair(self):
        with pytest.raises(ValueError, match=r"^undirected edge \(2, 0\) not canonical for n=3$"):
            MixedGraph(n=3, undirected=frozenset({(2, 0)}), arcs=frozenset())

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            MixedGraph(n=0, undirected=frozenset(), arcs=frozenset())

    def test_rejects_order_above_maxsize(self):
        # above sys.maxsize no index array can hold a vertex
        message = f"^vertex count must be at most {sys.maxsize}, got {sys.maxsize + 1}$"
        with pytest.raises(ValueError, match=message):
            MixedGraph(n=sys.maxsize + 1, undirected=frozenset(), arcs=frozenset())


class TestParse:
    def test_single_arc(self):
        g = parse_graph("2\n1 -> 2")
        assert g.n == 2
        assert g.arcs == frozenset({(0, 1)})
        assert g.undirected == frozenset()

    def test_cyclic_triangle(self):
        g = parse_graph("3\n1 -> 2\n2 -> 3\n3 -> 1")
        assert g.arcs == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_duplicate_underlying_pair_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_graph("2\n1 -- 2\n2 -> 1")

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\n3\n\n1 -- 2  # tail comment\n")
        assert g.undirected == frozenset({(0, 1)})

    def test_error_reports_line_number(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_graph("3\n1 -- 2\n1 - 3\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph("3\n2 -> 2\n")

    def test_label_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_graph("2\n1 -> 3\n")

    def test_empty_input(self):
        with pytest.raises(GraphFormatError, match="vertex count"):
            parse_graph("# nothing here\n")

    def test_vertex_count_not_integer(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_graph("two\n")

    # Pinned messages: each case below was captured from the line-by-line
    # parser that the reference in this module keeps.

    @pytest.mark.parametrize(
        "text, undirected",
        [("3\n+1 -- 02\n", {(0, 1)}), ("3\n\u0663 -- 1\n", {(0, 2)})],
        ids=["sign-and-zero", "arabic-indic-digit"],
    )
    def test_labels_are_what_int_reads(self, text, undirected):
        assert parse_graph(text).undirected == frozenset(undirected)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3\n1_0 -- 2\n", "line 2: vertex label out of range 1..3 in '1_0 -- 2'"),
            ("2\n99999999999999999999999 -- 1\n",
             "line 2: vertex label out of range 1..2 in '99999999999999999999999 -- 1'"),
            ("3\n1 -- 2 3\n", "line 2: expected 'i -- j' or 'i -> j', got '1 -- 2 3'"),
            ("3\n1 => 2\n", "line 2: expected 'i -- j' or 'i -> j', got '1 => 2'"),
            ("3\n2 -- 2\n", "line 2: self-loop at vertex 2"),
            ("3\n1 -- 2\n2 -> 1\n", "line 3: duplicate underlying pair {1, 2} (first seen on line 2)"),
            ("3\n1 -> 2\n1 -- 2\n", "line 3: duplicate underlying pair {1, 2} (first seen on line 2)"),
            ("3\n1 -- 2.0\n", "line 2: vertex labels must be integers, got '1 -- 2.0'"),
            ("x\n", "line 1: expected vertex count, got 'x'"),
            ("-3\n", "line 1: vertex count must be positive, got -3"),
            ("\n \n# c\n", "empty input: no vertex count found"),
        ],
        ids=["underscore", "beyond-int64", "four-tokens", "fat-arrow", "self-loop",
             "edge-then-arc", "arc-then-edge", "float-label", "header", "header-negative", "empty"],
    )
    def test_pinned_message(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            parse_graph(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0c", "\u2028", "\x85", "\x1e"])
    def test_every_splitlines_break_ends_a_line(self, brk):
        text = brk.join(["3", "1\t--\t2", "  2 ->  3 ", "3 => 1"])
        with pytest.raises(GraphFormatError, match=r"^line 4: expected"):
            parse_graph(text)
        g = parse_graph(text.rpartition(brk)[0])
        assert (g.undirected, g.arcs) == ({(0, 1)}, {(1, 2)})

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n99999999999999999999999 -- 1\n",
             "line 2: vertex label out of range 1..2 in '99999999999999999999999 -- 1'"),
            # the line-by-line parser accepted this count, and the report then
            # failed with an OverflowError traceback
            ("99999999999999999999999\n1 -- 2\n",
             "line 1: vertex count must be at most 9223372036854775807, got 99999999999999999999999"),
        ],
        ids=["label", "vertex-count"],
    )
    def test_beyond_int64_exits_two_without_traceback(self, tmp_path, capsys, text, message):
        path = tmp_path / "big.mg"
        path.write_text(text, encoding="utf-8")
        assert cli_main(["report", "--graph", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _reference_parse_graph(text: str) -> MixedGraph:
    """The parser as first written, one line at a time: the reference for
    every graph and every message that ``parse_graph`` gives."""
    n = None
    undirected, arcs = [], []
    seen = {}
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
            continue
        tokens = line.split()
        if len(tokens) != 3 or tokens[1] not in ("--", "->"):
            raise GraphFormatError(f"expected 'i -- j' or 'i -> j', got {line!r}", lineno)
        try:
            i, j = int(tokens[0]), int(tokens[2])
        except ValueError:
            raise GraphFormatError(f"vertex labels must be integers, got {line!r}", lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphFormatError(f"vertex label out of range 1..{n} in {line!r}", lineno)
        if i == j:
            raise GraphFormatError(f"self-loop at vertex {i}", lineno)
        i -= 1
        j -= 1
        pair = (i, j) if i < j else (j, i)
        if pair in seen:
            raise GraphFormatError(
                f"duplicate underlying pair {{{pair[0] + 1}, {pair[1] + 1}}}"
                f" (first seen on line {seen[pair]})",
                lineno,
            )
        seen[pair] = lineno
        if tokens[1] == "--":
            undirected.append(pair)
        else:
            arcs.append((i, j))
    if n is None:
        raise GraphFormatError("empty input: no vertex count found")
    return MixedGraph(n=n, undirected=frozenset(undirected), arcs=frozenset(arcs))


BREAKS = ("\n", "\r\n", "\r", "\x0c", "\u2028", "\x85", "\x1d")
BLANKS = ("", " ", "\t", " \x0b ")
ODD_LABELS = ("0", "-1", "x", "1.0", "1_0", "\u0663", "+2", "007", "1e1", "",
              "9223372036854775807", "9223372036854775808", "99999999999999999999999",
              "-99999999999999999999999", "1" * 5000)
label_texts = st.one_of(st.integers(-2, 14).map(str), st.sampled_from(ODD_LABELS))
bad_lines = st.one_of(
    st.sampled_from(["1 -- 2 3", "1 => 2", "1 ->2", "--", "1 --", "-- 1 2", "1 - 2", "1 <- 2",
                     "1 -- 2 # note", "# 1 -- 2", "1 -> # 2", "3", "  ", "1 2 3",
                     str(sys.maxsize), str(sys.maxsize + 1), "+099999999999999999999999"]),
    st.builds("{} {} {}".format, label_texts, st.sampled_from(["--", "->"]), label_texts),
)


@st.composite
def graph_texts(draw):
    """Edge-list text for a random graph, in a random line order and
    spelling, and, half the time, one line inserted or replaced by a line
    drawn from ``bad_lines``."""
    g = draw(graphs())
    edges = [("--", i, j) for i, j in g.undirected] + [("->", t, h) for t, h in g.arcs]
    edges = draw(st.permutations(edges))
    lines = draw(st.lists(st.sampled_from(["", "# c", " # x -- y"]), max_size=2))
    lines.append(draw(st.sampled_from(BLANKS)) + str(g.n) + draw(st.sampled_from(BLANKS)))
    for op, a, b in edges:
        if op == "--" and draw(st.booleans()):
            a, b = b, a
        sep = draw(st.sampled_from([" ", "\t", "  "]))
        spell = draw(st.sampled_from(["{}", "+{}", "0{}"]))
        tail = draw(st.sampled_from(["", " ", "# c", " #x"]))
        lines.append(sep.join([spell.format(a + 1), op, spell.format(b + 1)]) + tail)
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(BLANKS)))
    if draw(st.booleans()):
        near = st.integers(-1, g.n + 1).map(str)
        choices = [bad_lines, st.builds("{} {} {}".format, near, st.sampled_from(["--", "->"]), near)]
        if edges:
            # the underlying pair of an edge already given, either way round
            pair = st.sampled_from(edges).flatmap(lambda e: st.permutations(e[1:]))
            choices.append(st.builds("{0[0]} {1} {0[1]}".format, pair.map(lambda p: (p[0] + 1, p[1] + 1)),
                                     st.sampled_from(["--", "->"])))
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(st.one_of(choices))]
    breaks = draw(st.lists(st.sampled_from(BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(line + brk for line, brk in zip(lines, breaks))


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc)


def _expected_outcome(text):
    """The reference's outcome, except that a vertex count beyond
    ``sys.maxsize``, which no array can index, is rejected on its line."""
    header = next(((k, line) for k, raw in enumerate(text.splitlines(), start=1)
                   if (line := raw.split("#", 1)[0].strip())), None)
    try:
        n = int(header[1])
    except (TypeError, ValueError):
        n = 0
    if n > sys.maxsize:
        return f"line {header[0]}: vertex count must be at most {sys.maxsize}, got {n}"
    return _outcome(_reference_parse_graph, text)


PLAIN_BLANKS = ("", " ", "\t", " \t ")
PLAIN_SEPARATORS = (" ", "\t", "  ", "\t ")
PLAIN_COMMENTS = ("", "#", " # c", "#1 -- 2", "# \u00e9\t\u0663 -> x")


@st.composite
def plain_graph_texts(draw):
    """Edge-list text for a random graph in the plain alphabet: newline
    line ends, space or tab blanks, leading zeros, blank lines and comments,
    and, half the time, one line inserted or replaced by a plain bad line."""
    g = draw(graphs())
    edges = [("--", i, j) for i, j in g.undirected] + [("->", t, h) for t, h in g.arcs]
    edges = draw(st.permutations(edges))
    blank, comment = st.sampled_from(PLAIN_BLANKS), st.sampled_from(PLAIN_COMMENTS)

    def label(v):
        return draw(st.sampled_from(["", "0", "00"])) + str(v)

    lines = draw(st.lists(st.sampled_from(["", " ", "# c", "\t#"]), max_size=2))
    lines.append(draw(blank) + label(g.n) + draw(blank) + draw(comment))
    for op, a, b in edges:
        if op == "--" and draw(st.booleans()):
            a, b = b, a
        sep = st.sampled_from(PLAIN_SEPARATORS)
        tokens = [draw(blank), label(a + 1), draw(sep), op, draw(sep), label(b + 1), draw(blank)]
        lines.append("".join(tokens) + draw(comment))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(blank) + draw(comment))
    if draw(st.booleans()):
        near = st.integers(0, g.n + 1).map(str)
        choices = [
            st.sampled_from(["1 -- 2 3", "1 --2", "1- 2", "1 - 2", "1 --> 2", "1 >- 2", "-- 1 2",
                             "-1 -- 2", "1 -> -2", "3", "--", "1 2 3", "1" * 19 + " -- 1"]),
            st.builds("{} {} {}".format, near, st.sampled_from(["--", "->"]), near),
        ]
        if edges:
            # the underlying pair of an edge already given, either way round
            pair = st.sampled_from(edges).flatmap(lambda e: st.permutations(e[1:]))
            choices.append(st.builds("{0[0]} {1} {0[1]}".format, pair.map(lambda p: (p[0] + 1, p[1] + 1)),
                                     st.sampled_from(["--", "->"])))
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(st.one_of(choices))]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _walker_spy():
    """A patch that records the line walker's calls and still walks."""
    return mock.patch.object(mixedspec.graphs, "_walk_lines", wraps=mixedspec.graphs._walk_lines)


class TestParseMatchesReference:
    @given(graph_texts())
    @settings(max_examples=300)
    def test_same_graph_or_same_message(self, text):
        got, want = _outcome(parse_graph, text), _expected_outcome(text)
        assert got == want
        if isinstance(want, MixedGraph):
            # the parsed graph carries index arrays built from its columns
            assert got.edge_index.tolist() == _reference_index(want.undirected)
            assert got.arc_index.tolist() == _reference_index(want.arcs)
            assert not (got.edge_index.flags.writeable or got.arc_index.flags.writeable)

    @given(plain_graph_texts())
    @settings(max_examples=300)
    def test_plain_text_takes_byte_path(self, text):
        # every graph comes from the byte columns; every message from the walker
        with _walker_spy() as walker:
            got = _outcome(parse_graph, text)
        want = _expected_outcome(text)
        assert got == want
        assert walker.called == isinstance(want, str)
        if isinstance(want, MixedGraph):
            assert got.edge_index.tolist() == _reference_index(want.undirected)
            assert got.arc_index.tolist() == _reference_index(want.arcs)
            assert not (got.edge_index.flags.writeable or got.arc_index.flags.writeable)


class TestBytePath:
    """Which texts the byte columns read and which the line walker reads."""

    @staticmethod
    def refuse_to_walk(text):
        raise AssertionError(f"walked {text!r}")

    def test_data_files_take_byte_path(self, monkeypatch):
        monkeypatch.setattr(mixedspec.graphs, "_walk_lines", self.refuse_to_walk)
        paths = sorted(DATA.glob("*.mg"))
        assert paths
        for path in paths:
            parse_graph(path.read_text(encoding="utf-8"))

    @given(graphs())
    def test_serialized_graphs_take_byte_path(self, g):
        with mock.patch.object(mixedspec.graphs, "_walk_lines", self.refuse_to_walk):
            assert parse_graph(serialize_graph(g)) == g

    @pytest.mark.parametrize(
        "text",
        ["3\n+1 -- 2\n", "3\n\u0663 -- 1\n", "3\r\n1 -- 2\r\n", "3\n1_0 -- 2\n", "3\n1 -- 2\x0b\n"],
        ids=["sign", "arabic-indic-digit", "crlf", "underscore", "vertical-tab"],
    )
    def test_lenient_spellings_are_walked(self, text):
        with _walker_spy() as walker:
            _outcome(parse_graph, text)
        assert walker.called

    @pytest.mark.parametrize("n", [mixedspec.graphs._KEYED_ORDER, mixedspec.graphs._KEYED_ORDER + 1, 10**17 + 3])
    def test_index_arrays_at_wide_orders(self, n):
        # labels up to n, whose pair keys first * n + second overflow int64
        # above _KEYED_ORDER; "\r\n" line ends take the walker's columns
        text = f"{n}\n{n} -> {n - 1}\n{n - 2} -- {n}\n1 -> {n - 2}\n2 -- 1\n"
        duplicate = f"{n}\n{n} -- 1\n2 -- 1\n1 -> {n}\n"
        for text in (text, text.replace("\n", "\r\n")):
            got, want = parse_graph(text), _reference_parse_graph(text)
            assert got == want
            assert got.edge_index.tolist() == _reference_index(want.undirected)
            assert got.arc_index.tolist() == _reference_index(want.arcs)
        assert _outcome(parse_graph, duplicate) == _outcome(_reference_parse_graph, duplicate)

    # Bad lines in the plain alphabet that each need one check of the byte
    # columns: without it, they would be read as a graph.
    @pytest.mark.parametrize(
        "text",
        ["30\n1> -- 2\n", "30\n2 -- 1-\n", "20\n> -- 2\n", "--\n", "3\n1 --2\n", "4\n1 -- 2 3 -- 4\n",
         "3\n1 --\n2\n", "4\n1 -- 2 3\n-- 4\n", "3 1 -- 2\n", "3\n1 --> 2\n", "3\n1 >- 2\n",
         "3\n1 >> 2\n", "40\n1 -5 2>\n", "00\n"],
        ids=["gt-in-label", "dash-in-label", "gt-as-label", "operator-as-count", "glued-label",
             "six-tokens", "split-line", "operator-starts-line", "edge-on-count-line", "long-operator",
             "reversed-arrow", "double-gt", "digit-in-operator", "zero-count"],
    )
    def test_plain_lookalikes_are_walked(self, text):
        with _walker_spy() as walker:
            got = _outcome(parse_graph, text)
        assert walker.called
        assert got == _expected_outcome(text)
        assert isinstance(got, str)

    def test_labels_of_up_to_eighteen_digits_take_byte_path(self, monkeypatch):
        # 2**64 + 1 has 20 digits: as int64 digit columns it would wrap to 1
        # or overflow, so only the walker may read it
        text = "3\n18446744073709551617 -- 2\n"
        with _walker_spy() as walker:
            got = _outcome(parse_graph, text)
        assert walker.called
        assert got == _expected_outcome(text)
        assert "vertex label out of range" in got
        monkeypatch.setattr(mixedspec.graphs, "_walk_lines", self.refuse_to_walk)
        big = "9" * 18
        g = parse_graph(f"{big}\n{big} -> 1\n")
        assert (g.n, g.arcs) == (10**18 - 1, frozenset({(10**18 - 2, 0)}))

    def test_long_bad_text_fails_in_linear_time(self):
        # a pattern that could match a line in more than one way would
        # backtrack through every earlier line before giving up
        pairs = [(i, j) for i in range(1, 202) for j in range(i + 1, 202)][:20000]
        text = "201\n" + "".join(f"{i} -- {j}\n" for i, j in pairs) + "1 -- 2 3\n"
        assert _outcome(parse_graph, text) == _expected_outcome(text)


class TestStats:
    def test_single_arc(self, p2):
        s = graph_stats(p2)
        assert (s.n, s.m, s.arc_count, s.undirected_count) == (2, 1, 1, 0)
        assert s.degrees == (1, 1)
        assert (s.max_degree, s.min_degree, s.zagreb) == (1, 1, 2)

    def test_cyclic_triangle(self, c3):
        s = graph_stats(c3)
        assert (s.n, s.m, s.arc_count, s.undirected_count) == (3, 3, 3, 0)
        assert s.degrees == (2, 2, 2)
        assert s.zagreb == 12

    def test_star(self, k13):
        s = graph_stats(k13)
        assert (s.n, s.m, s.arc_count, s.undirected_count) == (4, 3, 0, 3)
        assert s.degrees == (3, 1, 1, 1)
        assert (s.max_degree, s.min_degree, s.zagreb) == (3, 1, 12)

    @given(graphs())
    def test_edge_count_and_degree_sum(self, g):
        s = graph_stats(g)
        assert s.m == s.arc_count + s.undirected_count
        assert sum(s.degrees) == 2 * s.m

    @pytest.mark.parametrize(
        "fields",
        [
            dict(m=2),  # m != arcs + undirected
            dict(degrees=(1, 2)),  # degree sum != 2m
            dict(min_degree=2, max_degree=2),  # a degree below min_degree
            dict(zagreb=3),  # not the sum of squared degrees
        ],
    )
    def test_broken_invariant_raises_value_error(self, fields):
        valid = dict(n=2, m=1, arc_count=1, undirected_count=0, degrees=(1, 1),
                     max_degree=1, min_degree=1, zagreb=2)
        GraphStats(**valid)
        with pytest.raises(ValueError):
            GraphStats(**{**valid, **fields})

    def test_invariants_hold_under_optimize_flag(self):
        # assert statements vanish under python -O; the checks must not
        code = (
            "from mixedspec.graphs import GraphStats\n"
            "try:\n"
            "    GraphStats(n=2, m=2, arc_count=1, undirected_count=0, degrees=(1, 1),"
            " max_degree=1, min_degree=1, zagreb=2)\n"
            "except ValueError:\n"
            "    print('rejected')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(mixedspec.__file__).parent.parent)}
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out == "rejected\n"


class TestDerivedData:
    @given(graphs())
    def test_stats_property_matches_graph_stats(self, g):
        assert g.stats == graph_stats(g)

    def test_computed_once_per_graph(self, c3):
        assert c3.stats is c3.stats
        assert c3.edge_index is c3.edge_index
        assert c3.arc_index is c3.arc_index

    @given(graphs())
    def test_index_arrays_list_every_pair(self, g):
        assert g.edge_index.shape == (2, len(g.undirected))
        assert g.arc_index.shape == (2, len(g.arcs))
        assert g.edge_index.tolist() == _reference_index(g.undirected)
        assert g.arc_index.tolist() == _reference_index(g.arcs)

    @given(graphs())
    def test_degrees_match_loop_reference(self, g):
        degrees = [0] * g.n
        for i, j in (*g.undirected, *g.arcs):
            degrees[i] += 1
            degrees[j] += 1
        assert graph_stats(g).degrees == tuple(degrees)

    def test_index_arrays_read_only(self, c3):
        with pytest.raises(ValueError):
            c3.arc_index[0, 0] = 2

    def test_cached_data_leaves_equality_alone(self, c3):
        again = parse_graph("3\n1 -> 2\n2 -> 3\n3 -> 1\n")
        c3.stats
        assert again == c3 and hash(again) == hash(c3)
        assert np.array_equal(again.arc_index, c3.arc_index)


def _reference_index(pairs):
    """Rows i and j of the sorted pairs, as lists."""
    ordered = sorted(pairs)
    return [[i for i, _ in ordered], [j for _, j in ordered]]


class TestZagrebLowerBound:
    def test_star_equality(self, k13):
        # 4m^2/n + (Dmax-Dmin)^2/2 + (2n/(n-2))(2m/n - (Dmax+Dmin)/2)^2 = 9+2+1
        s = graph_stats(k13)
        assert zagreb_lower_bound(s) == pytest.approx(12.0, abs=1e-12)

    def test_regular_equality(self, c3):
        assert zagreb_lower_bound(graph_stats(c3)) == pytest.approx(12.0, abs=1e-12)

    def test_two_vertices_rejected(self, p2):
        with pytest.raises(ValueError, match="n >= 3"):
            zagreb_lower_bound(graph_stats(p2))

    @given(graphs())
    def test_never_exceeds_zagreb_index(self, g):
        s = graph_stats(g)
        if s.n >= 3:
            assert zagreb_lower_bound(s) <= s.zagreb + 1e-9


class TestRandomGraph:
    def test_deterministic_for_fixed_seed(self):
        a = random_mixed_graph(10, 0.3, 0.5, 42)
        b = random_mixed_graph(10, 0.3, 0.5, 42)
        assert a == b

    def test_zero_edge_prob_gives_empty_graph(self):
        g = random_mixed_graph(5, 0.0, 0.5, 1)
        assert g.edge_count == 0

    def test_full_undirected(self):
        g = random_mixed_graph(4, 1.0, 0.0, 3)
        assert len(g.undirected) == 6
        assert not g.arcs

    def test_full_arcs(self):
        g = random_mixed_graph(4, 1.0, 1.0, 3)
        assert len(g.arcs) == 6
        assert not g.undirected

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            random_mixed_graph(4, 1.5, 0.0, 0)
        with pytest.raises(ValueError):
            random_mixed_graph(4, 0.5, -0.1, 0)

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            random_mixed_graph(0, 0.5, 0.5, 0)

    def test_rejects_vertex_count_above_maxsize(self, monkeypatch):
        # rejected before the pair loop, which would never end at this n
        def no_draws(rng):
            raise AssertionError("pairs walked")

        monkeypatch.setattr(mixedspec.graphs, "_uniforms", no_draws)
        with pytest.raises(ValueError, match=f"vertex count must be at most {sys.maxsize}, got"):
            random_mixed_graph(sys.maxsize + 1, 0.5, 0.5, 0)

    def test_pinned_graphs(self):
        # captured from the one-draw-per-call sampler; every suite trial and
        # every golden check file rests on these exact graphs
        path = DATA / "random_graphs.json"
        for case in json.loads(path.read_text(encoding="utf-8")):
            g = random_mixed_graph(case["n"], case["edge_prob"], case["orient_prob"], case["seed"])
            assert serialize_graph(g) == case["graph"], case

    @given(
        st.integers(1, 14),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**63 - 1),
    )
    def test_matches_one_draw_per_call_reference(self, n, edge_prob, orient_prob, seed):
        args = (n, edge_prob, orient_prob, seed)
        assert random_mixed_graph(*args) == _reference_random_graph(*args)


def _reference_random_graph(n, edge_prob, orient_prob, seed):
    """The sampler as first written: one ``rng.random()`` call per draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    undirected, arcs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= edge_prob:
                continue
            if rng.random() < orient_prob:
                arcs.append((i, j) if rng.random() < 0.5 else (j, i))
            else:
                undirected.append((i, j))
    return MixedGraph(n=n, undirected=frozenset(undirected), arcs=frozenset(arcs))


class TestSerialize:
    def test_canonical_form(self, k13):
        assert serialize_graph(k13) == "4\n1 -- 2\n1 -- 3\n1 -- 4\n"

    def test_arcs_after_edges(self):
        g = parse_graph("3\n2 -> 1\n1 -- 3\n")
        assert serialize_graph(g) == "3\n1 -- 3\n2 -> 1\n"

    @given(graphs())
    def test_parse_inverts_serialize(self, g):
        assert parse_graph(serialize_graph(g)) == g
