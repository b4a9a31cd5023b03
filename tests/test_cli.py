"""Command-line interface: grids, formats, exit codes, determinism."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import mixedspec.bounds
import mixedspec.cli
import mixedspec.harness
import mixedspec.matrices
from mixedspec.bounds import Columns
from mixedspec.cli import main, parse_grid
from mixedspec.matrices import BetaParam


def _broken_rayleigh(stats, a, tr, beta):
    """A falsely high rayleigh_mu1_lower at every point of a block."""
    return Columns(mixedspec.bounds._RAYLEIGH, np.full((1, len(a)), 1e6))


C3_TEXT = "3\n1 -> 2\n2 -> 3\n3 -> 1\n"
P2_TEXT = "2\n1 -> 2\n"
README = Path(__file__).parent.parent / "README.md"
GRAPH_N16 = Path(__file__).parent / "data" / "graph_n16.mg"


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
        def out_of_memory(g):
            raise MemoryError()

        monkeypatch.setattr(mixedspec.matrices, "_degree_array", out_of_memory)
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
        monkeypatch.setattr(mixedspec.bounds, "_rayleigh_columns", _broken_rayleigh)
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

    @pytest.mark.parametrize("solver", ["eigvalsh", "eigvals"])
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
        monkeypatch.setattr(mixedspec.bounds, "_rayleigh_columns", _broken_rayleigh)
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
        # block's second point (alpha = 0.75) gets tr(M^2) = 0 beside a
        # positive trace, a spectral variance far below zero
        monkeypatch.setattr(mixedspec.harness, "BLOCK_ENTRIES", 2 * 3 * mixedspec.harness.RAYLEIGH_SAMPLES)
        assert mixedspec.harness._block_len(3) == 2
        real, blocks = mixedspec.bounds._moments, []

        def broken(tr, tr2, n):
            blocks.append(tr)
            if len(blocks) == 2:
                tr2 = tr2.copy()
                tr2[1] = 0.0
            return real(tr, tr2, n)

        monkeypatch.setattr(mixedspec.bounds, "_moments", broken)
        code = main(["sweep", "--graph", c3_file, "--alpha", "0:1:0.25", "--format", fmt])
        captured = capsys.readouterr()
        assert len(blocks) == 2
        assert code == 1
        # the first block verified, yet a failing sweep prints no partial output
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("verification failure: variance ")


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
        monkeypatch.setattr(mixedspec.bounds, "_rayleigh_columns", _broken_rayleigh)
        code = main(["check", "--trials", "5", "--seed", "3"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["status_counts"]["VIOLATED"] > 0
        assert doc["violations"]

    def test_reference_pair_violations_exit_one(self, capsys, monkeypatch):
        # the README's rule: every subcommand exits 1 on any VIOLATED status
        real = mixedspec.bounds._unit_columns

        def violated(stats, a):
            values = np.repeat([[1e6], [-1e6]], len(a), axis=1)
            return real(stats, a)._replace(values=values, applicable=True, note="")

        monkeypatch.setattr(mixedspec.bounds, "_unit_columns", violated)
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

    def test_invalid_probability(self, capsys):
        assert main(["random", "--n", "4", "--edge-prob", "1.5"]) == 2
