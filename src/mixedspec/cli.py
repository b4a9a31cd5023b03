"""Command-line front end: report on one graph, sweep a parameter grid,
run the randomized suite, or generate random graph files.

Exit codes form a stable scripting contract: 0 means success with no bound
violations, 1 means at least one violated bound (or a failed internal
consistency check), 2 means a usage or I/O error or an input too large for
memory. Numbers round-trip losslessly: CSV cells carry 17 significant digits,
JSON numbers their shortest repr. Report JSON is written from the report's
columns, byte for byte as ``json.dumps(doc, indent=2)`` would write it. The
``check`` summary is ``json.dumps(dataclasses.asdict(summary), indent=2)``:
SuiteSummary's fields are the document's keys, so nothing is renamed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections.abc import Iterator
from itertools import chain
from json.encoder import encode_basestring_ascii as _str

from .graphs import parse_graph, random_mixed_graph, serialize_graph
from .harness import (
    BoundReport,
    Status,
    SweepConfig,
    VerificationError,
    _block_len,
    randomized_suite,
    sweep_alpha,
)
from .matrices import BetaParam, omega_constant

GRID_EPS = 1e-12


def parse_grid(text: str) -> list[float]:
    """A bare float, or "start:stop:step" inclusive of stop (within rounding).

    A step larger than the range yields the single point at start; a point
    rounded past stop is clamped to it. NaN, infinities and a point count
    that overflows a float are rejected.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"grid spec must be start:stop:step, got {text!r}")
    values = [float(p) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"grid stop {stop} is below start {start}")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise ValueError(f"grid point count must be finite, got {text!r}")
    count = int(math.floor(steps + GRID_EPS)) + 1
    return [min(start + i * step, stop) for i in range(count)]


def _numbers(values) -> list[str]:
    """Each number as ``json`` spells it (null, repr, NaN, Infinity or
    -Infinity), from one call into json's C encoder."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _array(items: list[str], indent: str) -> str:
    """Formatted items as the indented ``json`` array at nesting ``indent``."""
    inner = "\n" + indent + "  "
    return f"[{inner}{(',' + inner).join(items)}\n{indent}]" if items else "[]"


_STATUS_TEXT = {status: _str(status.value) for status in Status}
_NOTE = ',\n      "note": '


@functools.lru_cache(maxsize=64)
def _bounds_format(rows: tuple) -> str:
    """The %-format of a report's ``"bounds"`` array: each row's static text
    (name, kind, target, and j when set), with a %s for its bound, actual,
    slack, status and optional note line."""
    entries = []
    for r in rows:
        static = (
            f'{{\n      "name": {_str(r.name)},\n      "kind": {_str(r.kind.value)},\n'
            f'      "target": {_str(r.target.value)},\n      "bound": '
        ).replace("%", "%%")
        j = "" if r.j is None else f',\n      "j": {_numbers([r.j])[0]}'
        entries.append(
            f'{static}%s,\n      "actual": %s,\n      "slack": %s,\n      "status": %s{j}%s\n    }}'
        )
    return _array(entries, "  ")


def report_json(report: BoundReport) -> str:
    """The report's JSON object (README, "Output schemas"), byte for byte as
    ``json.dumps(doc, indent=2)`` writes it, built straight from its columns.
    ``json`` falls back to its pure-Python encoder whenever it indents, so the
    numbers go through its C encoder as flat lists and the layout is added here."""
    s, k = report.graph.stats, len(report.rows)
    cells = _numbers((
        s.n, s.m, s.arc_count, s.undirected_count, s.max_degree, s.min_degree, s.zagreb,
        report.alpha, report.rho, report.spread, report.trace_norm,
        *report.bounds, *report.actuals, *report.slacks,
    ))
    n, m, arc_count, undirected_count, max_degree, min_degree, zagreb = cells[:7]
    alpha, rho, spread, trace_norm = cells[7:11]
    notes = [note and _NOTE + _str(note) for note in report.notes]
    statuses = map(_STATUS_TEXT.__getitem__, report.statuses)
    bounds = zip(cells[11:11 + k], cells[11 + k:11 + 2 * k], cells[11 + 2 * k:], statuses, notes)
    return (
        f'{{\n  "graph": {{\n    "n": {n},\n    "m": {m},\n    "arc_count": {arc_count},\n'
        f'    "undirected_count": {undirected_count},\n'
        f'    "degrees": {_array(_numbers(s.degrees), "    ")},\n'
        f'    "max_degree": {max_degree},\n    "min_degree": {min_degree},\n'
        f'    "zagreb": {zagreb}\n  }},\n  "alpha": {alpha},\n'
        f'  "beta": {_array(_numbers(report.beta), "  ")},\n'
        f'  "spectrum": {_array(_numbers(report.spectrum.values), "  ")},\n'
        f'  "rho": {rho},\n  "spread": {spread},\n  "trace_norm": {trace_norm},\n'
        f'  "bounds": {_bounds_format(report.rows) % tuple(chain.from_iterable(bounds))}\n}}'
    )


@functools.lru_cache(maxsize=64)
def csv_header(rows: tuple) -> str:
    """The CSV header of reports with these catalog rows, cached like ``_bounds_format``."""
    cols = ["alpha", "beta_arg", "mu1", "muN", "rho", "spread", "traceNorm"]
    for row in rows:
        label = row.name if row.j is None else f"{row.name}_j{row.j}"
        cols += f"{label}_bound", f"{label}_slack"
    return ",".join(cols)


@functools.lru_cache(maxsize=64)
def _csv_format(missing: tuple[bool, ...]) -> str:
    """The %-format of a CSV row: ``%.17g`` per number and ``%.0s``, which
    prints None as nothing, per missing one. In a sweep only the bound and
    slack of the rows that the order premise removes (note ``needs n >= k``)
    are missing, so one layout, fixed by n, serves every row."""
    return ",".join(["%.0s" if m else "%.17g" for m in missing])


def csv_blocks(reports: list[BoundReport], beta_arg: float, step: int) -> Iterator[str]:
    """The CSV of reports of one graph, one text per ``step`` reports: the
    header, then a row per report, all in the layout of the first report."""
    head, row = csv_header(reports[0].rows) + "\n", None
    for start in range(0, len(reports), step):
        cells = [
            (r.alpha, beta_arg, r.spectrum.mu_max, r.spectrum.mu_min, r.rho, r.spread, r.trace_norm,
             *chain.from_iterable(zip(r.bounds, r.slacks)))
            for r in reports[start : start + step]
        ]
        row = row or _csv_format(tuple(c is None for c in cells[0])) + "\n"
        yield head + (row * len(cells)) % tuple(chain.from_iterable(cells))
        head = ""


def csv_row(report: BoundReport, beta_arg: float) -> str:
    """The report's CSV row, in its own layout: ``csv_blocks``' one-report case."""
    return next(csv_blocks([report], beta_arg, 1)).split("\n")[1]


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_graph(fh.read())


def cmd_sweep(args) -> int:
    """``sweep``, and ``report`` as its one-point case at Rayleigh seed 0: a
    report takes a single alpha and prints its JSON as an object, not a list."""
    graph = _read_graph(args.graph)
    alphas = parse_grid(args.alpha)
    one_point = args.command == "report"
    if one_point and len(alphas) != 1:
        raise ValueError("report takes a single alpha; use sweep for grids")
    if args.beta_arg is None:
        beta, beta_arg = omega_constant(), math.pi / 3
    else:
        beta, beta_arg = BetaParam.from_angle(args.beta_arg), args.beta_arg
    reports = sweep_alpha(graph, alphas, beta, seed=args.seed)
    if args.format == "json":
        # ASCII-escaped JSON has no raw newline in a string: indenting nests it
        docs = [report_json(r) for r in reports]
        text = docs[0] if one_point else _array([d.replace("\n", "\n  ") for d in docs], "")
        sys.stdout.write(text + "\n")
    else:
        for text in csv_blocks(reports, beta_arg, _block_len(graph.n)):
            sys.stdout.write(text)
    return 1 if any(Status.VIOLATED in r.statuses for r in reports) else 0


def cmd_check(args) -> int:
    cfg = SweepConfig(
        seed=args.seed,
        trials=args.trials,
        n_range=(args.min_n, args.max_n),
    )
    summary = randomized_suite(cfg)
    sys.stdout.write(json.dumps(dataclasses.asdict(summary), indent=2) + "\n")
    return 1 if summary.violated_count else 0


def cmd_random(args) -> int:
    graph = random_mixed_graph(args.n, args.edge_prob, args.orient_prob, args.seed)
    sys.stdout.write(serialize_graph(graph))
    return 0


def non_negative_int(text: str) -> int:
    """The ``--seed`` type; argparse reports its ValueError as the flag's."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedspec",
        description="Spectra and bound verification for blend matrices of mixed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="verify one graph at one (alpha, beta)")
    rep.add_argument("--graph", required=True, help="graph file path")
    rep.add_argument("--alpha", default="0", help="blend weight in [0, 1]")
    rep.add_argument("--beta-arg", type=float, default=None, help="angle of beta (default pi/3)")
    rep.add_argument("--format", choices=("json", "csv"), default="json")
    rep.set_defaults(func=cmd_sweep, seed=0)

    sw = sub.add_parser("sweep", help="verify one graph over an alpha grid")
    sw.add_argument("--graph", required=True, help="graph file path")
    sw.add_argument("--alpha", default="0:1:0.25", help="alpha value or start:stop:step grid")
    sw.add_argument("--beta-arg", type=float, default=None, help="angle of beta (default pi/3)")
    sw.add_argument("--format", choices=("csv", "json"), default="csv")
    sw.add_argument("--seed", type=non_negative_int, default=0, help="numerical-range sampling seed")
    sw.set_defaults(func=cmd_sweep)

    chk = sub.add_parser("check", help="run the randomized verification suite")
    chk.add_argument("--trials", type=int, default=1000)
    chk.add_argument("--min-n", type=int, default=2)
    chk.add_argument("--max-n", type=int, default=12)
    chk.add_argument("--seed", type=non_negative_int, default=0)
    chk.set_defaults(func=cmd_check)

    rnd = sub.add_parser("random", help="emit a random graph file")
    rnd.add_argument("--n", type=int, required=True)
    rnd.add_argument("--edge-prob", type=float, default=0.3)
    rnd.add_argument("--orient-prob", type=float, default=0.5)
    rnd.add_argument("--seed", type=non_negative_int, default=0)
    rnd.set_defaults(func=cmd_random)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser takes about 1 ms, a sixth of a small report, and
    # parsing leaves it unchanged, so one serves every call in the process
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
