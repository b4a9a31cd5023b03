"""Command-line interface: grids, formats, exit codes, determinism."""

import dataclasses
import json
import math
import re
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import mixedspec.bounds
import mixedspec.cli
import mixedspec.graphs
import mixedspec.harness
import mixedspec.matrices
from mixedspec.cli import csv_row, main, parse_grid, report_json
from mixedspec.eig import Spectrum
from mixedspec.graphs import parse_graph, random_mixed_graph
from mixedspec.harness import (
    BoundReport,
    Status,
    SuiteSummary,
    ViolationRecord,
    sweep_alpha,
    verify_all,
)
from mixedspec.matrices import BetaParam, omega_constant


def _broken_rayleigh(stats, a, tr, beta):
    """A falsely high rayleigh_mu1_lower at every point."""
    return (1e6,), "", None


C3_TEXT = "3\n1 -> 2\n2 -> 3\n3 -> 1\n"
P2_TEXT = "2\n1 -> 2\n"
README = Path(__file__).parent.parent / "README.md"
DATA = Path(__file__).parent / "data"
GRAPH_N16 = DATA / "graph_n16.mg"

mixed_graphs = st.builds(
    random_mixed_graph,
    st.integers(1, 12),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)


def _readme_schema_keys(label):
    """Backticked keys on the README schema line starting with ``label``,
    split into required keys and those after "optionally"."""
    line = next(x for x in README.read_text(encoding="utf-8").splitlines() if x.startswith(label))
    required, _, optional = line.partition(":")[2].partition("optionally")
    return set(re.findall(r"`(\w+)`", required)), set(re.findall(r"`(\w+)`", optional))


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.mg"
    path.write_text(C3_TEXT)
    return str(path)


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.mg"
    path.write_text(P2_TEXT)
    return str(path)


class TestParser:
    def test_built_once_per_process(self, c3_file, capsys, monkeypatch):
        parser = mixedspec.cli._parser()

        def rebuilt():
            raise AssertionError("parser built again")

        monkeypatch.setattr(mixedspec.cli, "build_parser", rebuilt)
        assert main(["report", "--graph", c3_file]) == 0
        assert mixedspec.cli._parser() is parser

    @pytest.mark.parametrize(
        "argv", [["sweep", "--graph", "GRAPH"], ["check", "--trials", "1"], ["random", "--n", "3"]]
    )
    def test_negative_seed_is_usage_error_naming_the_flag(self, c3_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([c3_file if a == "GRAPH" else a for a in argv] + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "argument --seed: invalid non_negative_int value: '-1'" in captured.err
        assert "Traceback" not in captured.err

    def test_usage_error_repeats_byte_for_byte(self, capsys):
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--format", "xml"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errs.append(captured.err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("usage: mixedspec sweep")


class TestParseGrid:
    def test_single_value(self):
        assert parse_grid("0.3") == [0.3]

    def test_three_part_grid(self):
        assert parse_grid("0:1:0.5") == pytest.approx([0.0, 0.5, 1.0])

    def test_step_larger_than_range(self):
        assert parse_grid("0:1:5") == [0.0]

    def test_zero_length_range(self):
        assert parse_grid("0.5:0.5:0.1") == [0.5]

    def test_endpoint_reached_despite_rounding(self):
        grid = parse_grid("0:1:0.1")
        assert len(grid) == 11
        assert grid[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("text, last", [("0.09:1:0.07", 1.0), ("0:0.3:0.1", 0.3)])
    def test_no_point_passes_stop(self, text, last):
        # 0.09 + 13 * 0.07 rounds to 1.0000000000000002, and 3 * 0.1 to
        # 0.30000000000000004; each last point is clamped to stop
        grid = parse_grid(text)
        assert grid[-1] == last
        assert max(grid) == last

    def test_grid_ending_at_one_sweeps(self, p2_file, capsys):
        assert main(["sweep", "--graph", p2_file, "--alpha", "0.09:1:0.07"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 15
        assert rows[-1].startswith("1,")

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError):
            parse_grid("0:1:-0.5")

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            parse_grid("1:0:0.5")

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_grid("0:1")

    @pytest.mark.parametrize(
        "text", ["nan", "inf", "0:inf:0.5", "nan:1:0.5", "0:1:nan", "0:1:inf", "0:1e308:1e-308"]
    )
    def test_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_grid(text)


class TestReport:
    def test_json_spectrum(self, c3_file, capsys):
        code = main(["report", "--graph", c3_file, "--alpha", "0"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["spectrum"] == pytest.approx([1.0, 1.0, -2.0], abs=1e-9)
        assert doc["rho"] == pytest.approx(2.0, abs=1e-9)
        assert doc["graph"]["n"] == 3
        statuses = {b["status"] for b in doc["bounds"]}
        assert "VIOLATED" not in statuses

    def test_json_round_trips(self, c3_file, capsys):
        main(["report", "--graph", c3_file, "--alpha", "0.5"])
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_alpha_one_diagonal(self, p2_file, capsys):
        code = main(["report", "--graph", p2_file, "--alpha", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["spectrum"] == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_csv_format_single_row(self, c3_file, capsys):
        code = main(["report", "--graph", c3_file, "--alpha", "0.5", "--format", "csv"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(out) == 2
        assert out[0].startswith("alpha,beta_arg,mu1,muN,rho,spread,traceNorm,")

    def test_missing_file(self, capsys):
        assert main(["report", "--graph", "/nonexistent/file.mg"]) == 2

    def test_missing_file_reported_before_grid_alpha(self, capsys):
        code = main(["report", "--graph", "/nonexistent/file.mg", "--alpha", "0:1:0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "No such file" in captured.err
        assert "single alpha" not in captured.err

    def test_unparseable_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.mg"
        bad.write_text("2\n1 -- 1\n")
        assert main(["report", "--graph", str(bad)]) == 2

    def test_leading_byte_order_mark_is_skipped(self, c3_file, tmp_path, capsys):
        marked = tmp_path / "c3_bom.mg"
        marked.write_text(C3_TEXT, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["report", "--graph", c3_file]) == 0
        plain = capsys.readouterr()
        assert main(["report", "--graph", str(marked)]) == 0
        assert capsys.readouterr() == plain

    def test_grid_alpha_rejected(self, c3_file, capsys):
        assert main(["report", "--graph", c3_file, "--alpha", "0:1:0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_alpha_out_of_range(self, c3_file, capsys):
        assert main(["report", "--graph", c3_file, "--alpha", "1.5"]) == 2

    @pytest.mark.parametrize("beta_arg", ["nan", "inf"])
    def test_non_finite_beta_arg_is_usage_error(self, c3_file, capsys, beta_arg):
        code = main(["report", "--graph", c3_file, "--beta-arg", beta_arg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "beta angle must be finite" in captured.err

    def test_out_of_range_beta_arg_is_usage_error(self, c3_file, capsys):
        code = main(["report", "--graph", c3_file, "--beta-arg", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "[-pi/2, pi/2]" in captured.err
        assert "Traceback" not in captured.err

    def test_graph_too_large_for_memory_is_usage_error(self, c3_file, capsys, monkeypatch):
        def out_of_memory(g, beta):
            raise MemoryError()

        monkeypatch.setattr(mixedspec.matrices, "_adjacency_array", out_of_memory)
        code = main(["report", "--graph", c3_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: MemoryError\n"
        assert "Traceback" not in captured.err

    def test_beta_arg_zero_gives_real_adjacency_spectrum(self, p2_file, capsys):
        code = main(["report", "--graph", p2_file, "--alpha", "0", "--beta-arg", "0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["beta"] == [1.0, 0.0]
        assert doc["spectrum"] == pytest.approx([1.0, -1.0], abs=1e-9)
        ray = [b for b in doc["bounds"] if b["name"] == "rayleigh_mu1_lower"][0]
        assert ray["status"] == "NOT_APPLICABLE"

    def test_violated_bound_gives_exit_one(self, p2_file, capsys, monkeypatch):
        monkeypatch.setattr(mixedspec.bounds, "_rayleigh", _broken_rayleigh)
        code = main(["report", "--graph", p2_file, "--alpha", "0.5"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        statuses = {b["status"] for b in doc["bounds"]}
        assert "VIOLATED" in statuses

    def test_json_keys_match_readme_schema(self, c3_file, p2_file, capsys):
        top, _ = _readme_schema_keys("- top level:")
        graph, _ = _readme_schema_keys("- `graph`:")
        entry, optional = _readme_schema_keys("- each `bounds` entry:")
        assert optional == {"j", "note"}
        seen_optional = set()
        for path in (c3_file, p2_file):
            assert main(["report", "--graph", path, "--alpha", "0.5"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert set(doc) == top
            assert set(doc["graph"]) == graph
            for b in doc["bounds"]:
                assert entry <= set(b) <= entry | optional
                seen_optional |= set(b) - entry
        assert seen_optional == optional

    def test_readme_quick_start_runs(self, capsys):
        block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        exec(block.group(1), {})
        out = capsys.readouterr().out.splitlines()
        comment = re.search(r"print\(report\.spectrum\.values\)\s+# (.*)", block.group(1))
        printed = [float(x) for x in out[0].strip("()").split(",")]
        documented = [float(x) for x in comment.group(1).strip("()").split(",")]
        assert printed == pytest.approx([1.5, 1.5, 0.0], abs=1e-12)
        assert documented == pytest.approx(printed, abs=1e-12)
        # the stack route's raw spectrum is the verified one, bit for bit
        assert out[-1] == out[0]

    @pytest.mark.parametrize("solver", ["eigvalsh", "eigh"])
    def test_solver_failure_gives_exit_one(self, c3_file, capsys, monkeypatch, solver):
        # LinAlgError subclasses ValueError; it must not pass for bad input (exit 2)
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, solver, no_convergence)
        code = main(["report", "--graph", c3_file, "--alpha", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "did not converge" in captured.err
        assert "Traceback" not in captured.err

    def test_build_disagreeing_with_graph_gives_exit_one(self, capsys, monkeypatch):
        # swapping beta and conj(beta) keeps M Hermitian with the same traces
        # and spectrum; only the arc-sum expansion of z*Mz can tell
        build = mixedspec.matrices._adjacency_array

        def swapped(g, beta):
            return build(g, BetaParam(beta.re, -beta.im))

        monkeypatch.setattr(mixedspec.matrices, "_adjacency_array", swapped)
        code = main(["report", "--graph", str(GRAPH_N16), "--alpha", "0.3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "arc-sum expansion" in captured.err
        assert "Traceback" not in captured.err


class TestSweep:
    def test_mu1_column(self, c3_file, capsys):
        code = main(["sweep", "--graph", c3_file, "--alpha", "0:1:0.5"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        header = out[0].split(",")
        mu1_idx = header.index("mu1")
        mu1 = [float(row.split(",")[mu1_idx]) for row in out[1:]]
        assert mu1 == pytest.approx([1.0, 1.5, 2.0], abs=1e-9)

    def test_violated_bound_at_every_point_gives_exit_one(self, c3_file, capsys, monkeypatch):
        monkeypatch.setattr(mixedspec.bounds, "_rayleigh", _broken_rayleigh)
        code = main(["sweep", "--graph", c3_file, "--alpha", "0:1:0.5"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        column = out[0].split(",").index("rayleigh_mu1_lower_bound")
        assert [row.split(",")[column] for row in out[1:]] == ["1000000"] * 3

    def test_constant_column_count(self, c3_file, capsys):
        main(["sweep", "--graph", c3_file, "--alpha", "0:1:0.25"])
        rows = capsys.readouterr().out.splitlines()
        widths = {len(r.split(",")) for r in rows}
        assert len(widths) == 1

    def test_column_count_matches_bound_list(self, c3_file, capsys):
        main(["sweep", "--graph", c3_file, "--alpha", "0.5"])
        header = capsys.readouterr().out.splitlines()[0].split(",")
        capsys.readouterr()
        main(["report", "--graph", c3_file, "--alpha", "0.5"])
        doc = json.loads(capsys.readouterr().out)
        assert len(header) == 7 + 2 * len(doc["bounds"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_single_point_matches_report(self, c3_file, capsys, fmt):
        main(["sweep", "--graph", c3_file, "--alpha", "0.5", "--format", fmt])
        swept = capsys.readouterr().out
        main(["report", "--graph", c3_file, "--alpha", "0.5", "--format", fmt])
        reported = capsys.readouterr().out
        if fmt == "json":
            # a report prints the one item of the sweep's list as an object
            (only,) = json.loads(swept)
            swept = json.dumps(only, indent=2) + "\n"
        assert swept == reported

    def test_non_finite_grid_is_usage_error(self, c3_file, capsys):
        code = main(["sweep", "--graph", c3_file, "--alpha", "0:inf:0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "grid values must be finite" in captured.err

    def test_out_of_range_grid_is_usage_error(self, c3_file, capsys):
        code = main(["sweep", "--graph", c3_file, "--alpha", "0:1.5:0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "1.5" in captured.err

    def test_json_format(self, c3_file, capsys):
        code = main(["sweep", "--graph", c3_file, "--alpha", "0:1:0.5", "--format", "json"])
        docs = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [d["alpha"] for d in docs] == pytest.approx([0.0, 0.5, 1.0])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_in_a_later_block_prints_nothing(self, c3_file, capsys, monkeypatch, fmt):
        # two points a block, so 0:1:0.25 runs as three blocks; the second
        # block's second point (alpha = 0.75), the fourth point checked, gets
        # its arc-sum expansion shifted far beyond EXPANSION_TOL
        harness = mixedspec.harness
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", 2 * 3 * harness.RAYLEIGH_SAMPLES)
        assert harness._block_len(3) == 2
        real_expansion, real_stack, blocks = harness._expansion_quadratic_form, harness.a_alpha_stack, []

        def shifted(g, alphas, beta, z):
            out = real_expansion(g, alphas, beta, z)
            out[3] += 1e-3
            return out

        def counted(g, alphas, beta):
            blocks.append(alphas)
            return real_stack(g, alphas, beta)

        monkeypatch.setattr(harness, "_expansion_quadratic_form", shifted)
        monkeypatch.setattr(harness, "a_alpha_stack", counted)
        code = main(["sweep", "--graph", c3_file, "--alpha", "0:1:0.25", "--format", fmt])
        captured = capsys.readouterr()
        # two blocks were built, and the third never was
        assert blocks == [[0.0, 0.25], [0.5, 0.75]]
        assert code == 1
        # the first block verified, yet a failing sweep prints no partial output
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("verification failure: matrix build disagrees with the graph's arc-sum")


def reference_dict(report: BoundReport) -> dict:
    """The report's JSON document as plain containers, for ``json.dumps``:
    the reference that the CLI's direct writer must reproduce byte for byte."""
    stats = report.graph.stats
    bounds = []
    for row, bound, actual, slack, status, note in zip(
        report.rows, report.bounds, report.actuals, report.slacks, report.statuses, report.notes
    ):
        entry = {
            "name": row.name,
            "kind": row.kind.value,
            "target": row.target.value,
            "bound": bound,
            "actual": actual,
            "slack": slack,
            "status": status.value,
        }
        if row.j is not None:
            entry["j"] = row.j
        if note:
            entry["note"] = note
        bounds.append(entry)
    return {
        "graph": {
            "n": stats.n,
            "m": stats.m,
            "arc_count": stats.arc_count,
            "undirected_count": stats.undirected_count,
            "degrees": list(stats.degrees),
            "max_degree": stats.max_degree,
            "min_degree": stats.min_degree,
            "zagreb": stats.zagreb,
        },
        "alpha": report.alpha,
        "beta": [report.beta[0], report.beta[1]],
        "spectrum": list(report.spectrum.values),
        "rho": report.rho,
        "spread": report.spread,
        "trace_norm": report.trace_norm,
        "bounds": bounds,
    }


def reference_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# every float json spells its own way, and the extremes of repr
ODD_FLOATS = (None, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1)
ODD_NOTES = ('say "x"', "back\\slash", "two\nlines", "\u03b1 \u2264 1, caf\u00e9 \U0001d6fd", "")


def crafted_reports() -> list[BoundReport]:
    """A real report, and a copy with odd values put in every slot the
    writer formats: missing and non-finite numbers, -0.0, the smallest
    subnormal, a row with j = 0, and notes that json must escape."""
    report = verify_all(parse_graph(C3_TEXT), 0.5, omega_constant())

    def cycle(values):
        return tuple(values[i % len(values)] for i in range(len(report.rows)))

    rows = list(report.rows)
    rows[0] = rows[0]._replace(j=0)
    odd = dataclasses.replace(
        report,
        alpha=-0.0,
        beta=(5e-324, -0.0),
        spectrum=Spectrum((math.inf, 1e300, 5e-324, 0.0, -0.0, -math.inf)),
        rho=math.nan,
        spread=math.inf,
        trace_norm=-math.inf,
        rows=tuple(rows),
        bounds=cycle(ODD_FLOATS),
        actuals=cycle(ODD_FLOATS[1:]),
        slacks=cycle(ODD_FLOATS[2:]),
        statuses=cycle(list(Status)),
        notes=cycle(ODD_NOTES),
    )
    return [report, odd]


class TestJsonWriter:
    """``report_json`` against ``json.dumps`` of the reference document."""

    @given(
        mixed_graphs,
        st.floats(0.0, 1.0),
        st.floats(-math.pi / 2, math.pi / 2),
        st.integers(0, 2**32 - 1),
        st.text(),
    )
    def test_matches_json_dumps(self, g, alpha, beta_arg, seed, note):
        # the catalog's own notes are plain ASCII, so the first row carries a
        # drawn note that json has to escape
        report = verify_all(g, alpha, BetaParam.from_angle(beta_arg), rayleigh_seed=seed)
        report = dataclasses.replace(report, notes=(note, *report.notes[1:]))
        assert report_json(report) + "\n" == reference_text(reference_dict(report))

    @pytest.mark.parametrize("index", range(2))
    def test_crafted_values_match_json_dumps(self, index):
        report = crafted_reports()[index]
        assert report_json(report) + "\n" == reference_text(reference_dict(report))

    def test_crafted_values_reach_every_odd_case(self):
        text = report_json(crafted_reports()[1])
        for piece in ("null", "NaN", "Infinity", "-Infinity", "-0.0", "5e-324", '"j": 0',
                      r'\"x\"', r"\\slash", r"two\nlines", r"\u03b1", r"\ud835\udefd"):
            assert piece in text
        assert text.isascii()

    @pytest.mark.parametrize("format_args", [[], ["--beta-arg", "-0.4", "--seed", "5"]])
    def test_sweep_list_matches_json_dumps(self, capsys, format_args):
        g = parse_graph(GRAPH_N16.read_text(encoding="utf-8"))
        argv = ["sweep", "--graph", str(GRAPH_N16), "--alpha", "0:1:0.25", "--format", "json"]
        assert main(argv + format_args) == 0
        beta = BetaParam.from_angle(-0.4) if format_args else omega_constant()
        reports = sweep_alpha(g, parse_grid("0:1:0.25"), beta, seed=5 if format_args else 0)
        assert capsys.readouterr().out == reference_text([reference_dict(r) for r in reports])

    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_crafted_sweep_matches_json_dumps(self, c3_file, capsys, monkeypatch, command):
        # a note with a newline nests inside the sweep's list unchanged
        reports = crafted_reports() if command == "sweep" else crafted_reports()[1:]
        monkeypatch.setattr(mixedspec.cli, "sweep_alpha", lambda *args, **kwargs: reports)
        main([command, "--graph", c3_file, "--alpha", "0.5", "--format", "json"])
        docs = [reference_dict(r) for r in reports]
        assert capsys.readouterr().out == reference_text(docs if command == "sweep" else docs[0])


def reference_csv_row(report: BoundReport, beta_arg: float) -> str:
    """The report's CSV row as one f-string per cell, joined: the reference
    that ``csv_row``'s one-format writer must reproduce byte for byte."""
    s = report.spectrum
    head = (report.alpha, beta_arg, s.mu_max, s.mu_min, report.rho, report.spread, report.trace_norm)
    cells = chain(head, chain.from_iterable(zip(report.bounds, report.slacks)))
    return ",".join("" if x is None else f"{x:.17g}" for x in cells)


def crafted_csv_reports() -> list[BoundReport]:
    """``crafted_reports``, plus a copy with int cells and a missing head
    cell, so three different patterns of empty cells meet one writer."""
    report, odd = crafted_reports()
    ints = dataclasses.replace(
        odd, alpha=0, rho=7, trace_norm=None, bounds=(12, *odd.bounds[1:]), slacks=odd.bounds
    )
    return [report, odd, ints]


class TestCsvWriter:
    """``csv_row`` against the per-cell reference."""

    @given(
        mixed_graphs,
        st.floats(0.0, 1.0),
        st.floats(-math.pi / 2, math.pi / 2),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_cell_format(self, g, alpha, beta_arg, seed):
        report = verify_all(g, alpha, BetaParam.from_angle(beta_arg), rayleigh_seed=seed)
        assert csv_row(report, beta_arg) == reference_csv_row(report, beta_arg)

    def test_crafted_values_match_per_cell_format(self):
        # alternate the reports so each row's pattern follows a different one
        reports = crafted_csv_reports()
        for report in reports + reports[::-1]:
            assert csv_row(report, -0.0) == reference_csv_row(report, -0.0)

    def test_crafted_values_reach_every_odd_case(self):
        report, odd, ints = crafted_csv_reports()
        cells = csv_row(odd, 1e300).split(",") + csv_row(ints, 5e-324).split(",")
        for piece in ("", "nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
                      "1.0000000000000001e+300", "12", "7", "0"):
            assert piece in cells
        assert len(cells) == 2 * (7 + 2 * len(report.rows))


class TestCheck:
    def test_deterministic_byte_identical(self, capsys):
        code1 = main(["check", "--trials", "30", "--seed", "7"])
        first = capsys.readouterr().out
        code2 = main(["check", "--trials", "30", "--seed", "7"])
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second

    def test_summary_shape(self, capsys):
        main(["check", "--trials", "10", "--seed", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 10
        assert doc["status_counts"]["VIOLATED"] == 0
        assert doc["violations"] == []
        assert "worst_slack" in doc

    def test_zero_trials_usage_error(self, capsys):
        assert main(["check", "--trials", "0"]) == 2

    def test_bad_n_range_usage_error(self, capsys):
        assert main(["check", "--trials", "5", "--min-n", "9", "--max-n", "3"]) == 2

    def test_violations_force_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(mixedspec.bounds, "_rayleigh", _broken_rayleigh)
        code = main(["check", "--trials", "5", "--seed", "3"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status_counts"]["VIOLATED"] > 0
        assert doc["violations"]

    def test_summary_keys_match_readme_schema(self, capsys, monkeypatch):
        top, _ = _readme_schema_keys("- summary:")
        record, _ = _readme_schema_keys("- each `violations` entry:")
        monkeypatch.setattr(mixedspec.bounds, "_rayleigh", _broken_rayleigh)
        assert main(["check", "--trials", "2", "--seed", "3"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == [f.name for f in dataclasses.fields(SuiteSummary)]
        assert set(doc) == top
        for v in doc["violations"]:
            assert list(v) == [f.name for f in dataclasses.fields(ViolationRecord)]
            assert set(v) == record

    def test_violations_document_pinned(self, capsys, monkeypatch):
        # the golden check files hold no violation record; this one pins the
        # record's keys, their order and the values of 8 records
        monkeypatch.setattr(mixedspec.bounds, "_rayleigh", _broken_rayleigh)
        code = main(["check", "--trials", "8", "--seed", "11", "--min-n", "1", "--max-n", "4"])
        expected = (DATA / "check_8_seed11_n1_4_violations.json").read_text(encoding="utf-8")
        assert code == 1
        assert capsys.readouterr().out == expected

    def test_reference_pair_violations_exit_one(self, capsys, monkeypatch):
        # the README's rule: every subcommand exits 1 on any VIOLATED status
        def violated(stats, a):
            return (1e6, -1e6), "", None

        monkeypatch.setattr(mixedspec.bounds, "_unit", violated)
        code = main(["check", "--trials", "5", "--seed", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1
        assert doc["status_counts"]["VIOLATED"] > 0
        assert len(doc["violations"]) == doc["status_counts"]["VIOLATED"]
        assert {v["bound_name"] for v in doc["violations"]} == {
            "unit_offdiag_mu1_lower",
            "unit_offdiag_mun_upper",
        }


class TestRandom:
    def test_complete_undirected(self, capsys):
        code = main(["random", "--n", "4", "--edge-prob", "1", "--orient-prob", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "4"
        assert all(" -- " in line for line in out.splitlines()[1:])
        assert len(out.splitlines()) == 7

    def test_empty_graph(self, capsys):
        main(["random", "--n", "5", "--edge-prob", "0"])
        assert capsys.readouterr().out == "5\n"

    def test_seed_reproducibility(self, capsys):
        main(["random", "--n", "8", "--edge-prob", "0.4", "--seed", "42"])
        first = capsys.readouterr().out
        main(["random", "--n", "8", "--edge-prob", "0.4", "--seed", "42"])
        assert capsys.readouterr().out == first

    def test_output_feeds_report(self, tmp_path, capsys):
        main(["random", "--n", "6", "--edge-prob", "0.5", "--seed", "9"])
        text = capsys.readouterr().out
        path = tmp_path / "rand.mg"
        path.write_text(text)
        assert main(["report", "--graph", str(path), "--alpha", "0.5"]) == 0

    def test_vertex_count_above_maxsize_usage_error(self, capsys, monkeypatch):
        # rejected before the pair loop, which would never end at this n
        def no_draws(rng):
            raise AssertionError("pairs walked")

        monkeypatch.setattr(mixedspec.graphs, "_uniforms", no_draws)
        code = main(["random", "--n", str(sys.maxsize + 1)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: vertex count must be at most {sys.maxsize}, got {sys.maxsize + 1}\n"
        )

    def test_invalid_probability(self, capsys):
        assert main(["random", "--n", "4", "--edge-prob", "1.5"]) == 2
