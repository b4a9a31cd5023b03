"""Benchmark for mixedspec, run from the root of a checkout.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: the next op starts when the previous
one has finished. Inputs come from the benchmark's own PCG64 stream seeded by
``--seed``; the program receives only graphs and parameters. Every op's
output is checked against an independent NumPy reference (see workloads.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the package's functions are wrapped by an in-memory span tracer
and the line carries per-layer metrics instead. Lines before it give the
environment, the tail percentile with its sample count, the unscaled op
times, the failed ratio and a sha256 digest of the leading ops' stdout, which
must repeat for a repeated seed. Full results, with every op's unscaled time
and every probe (and, traced, all spans), go to ``.bench_out/``.

Op and set-up times in the end-to-end metrics are scaled to a reference
machine speed measured by a probe between ops (see ``probe``); the per-layer
times are not scaled.
"""

import os

# BLAS and OpenMP pools must be pinned before NumPy is first imported.
PINNED_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "NUMBA_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import LAYERS, ROOT_SPAN, SpanTable, Tracer  # noqa: E402
from workloads import WORKLOADS, ORACLE_RTOL  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
OVERRUN_S = 90.0  # stop even short of the workload's min_ops this long after --seconds
TAIL_LEVELS = (99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)
TRACE_TOL_DEFAULT = 1e-9

# Machine-speed probe. On a machine whose cores are shared with other tenants
# the speed drifts (by +-25% over seconds to minutes on the 2-core VM of
# BASELINE.md), which no statistic over one run can remove.
# Op and set-up times are therefore scaled by REF_PROBE_S / (probe time
# around them): the probe is the same kind of work as the eigen kernels (a
# pure-Python loop over NumPy scalars) and never calls the program.
PROBE_INTERVAL_S = 0.2
PROBE_REPS = 100
REF_PROBE_S = 2.0e-3
_PROBE_MATRIX = np.arange(64.0).reshape(8, 8)

WARMUP = """
import mixedspec
from mixedspec import omega_constant, parse_graph, verify_all
verify_all(parse_graph("3\\n1 -> 2\\n2 -> 3\\n3 -- 1\\n"), 0.5, omega_constant())
"""
SETUP_CHILD = f"""
import time
t0 = time.perf_counter()
{WARMUP}
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program to measure)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe() -> float:
    """Seconds for a fixed pure-Python loop over NumPy scalars."""
    a, s = _PROBE_MATRIX, 0.0
    t0 = time.perf_counter()
    for _ in range(PROBE_REPS):
        for i in range(8):
            for j in range(8):
                s = s * 0.5 + a[i, j]
    return time.perf_counter() - t0


def measure_setup() -> tuple[list[float], list[float]]:
    """Import plus one warm-up verify_all, each in a fresh interpreter.

    Returns the unscaled times and the same times at reference speed, each
    scaled by the probes taken just before and just after its child. The
    first child also writes the bytecode cache and is not counted.
    """
    raw, scaled = [], []
    before = probe()
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=20,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        after = probe()
        if k:
            secs = float(proc.stdout.strip().splitlines()[-1])
            raw.append(secs)
            scaled.append(secs * REF_PROBE_S / ((before + after) / 2.0))
        before = after
    return raw, scaled


def load_program():
    """Import mixedspec from this checkout's src/ and run the warm-up in process."""
    if not (SRC / "mixedspec" / "__init__.py").is_file():
        raise BenchError(f"no mixedspec package under {SRC}")
    sys.path.insert(0, str(SRC))
    ms = importlib.import_module("mixedspec")
    if Path(ms.__file__).resolve().parent != (SRC / "mixedspec").resolve():
        raise BenchError(f"imported mixedspec from {ms.__file__}, not from {SRC}")
    importlib.import_module("mixedspec.cli")
    exec(WARMUP, {})
    return ms


def eigen_backend() -> str:
    try:
        kernels = importlib.import_module("mixedspec._kernels")
    except ImportError:
        return "no _kernels module"
    fn = getattr(kernels, "jacobi_eigvals", None)
    if fn is None:
        return "no jacobi kernel"
    return "numba jit" if hasattr(fn, "py_func") else "pure-Python fallback (numba absent)"


def environment() -> dict:
    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    blas = "unknown"
    try:
        blas_cfg = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        blas = f"{blas_cfg.get('name', '?')} {blas_cfg.get('version', '')}".strip()
    except (TypeError, AttributeError):
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imported": numba,
        "eigen_backend": eigen_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": int(PINNED_THREADS),
        "src_lines": src_lines,
    }


def tail(durations: list[float], target: float) -> tuple[float, float, int]:
    """The op latency at ``target`` percent (nearest rank), or at the highest
    lower level of TAIL_LEVELS if fewer than ten samples lie beyond the target.

    Returns (percentile, value, samples beyond).
    """
    ordered = sorted(durations)
    n = len(ordered)
    for level in [lv for lv in TAIL_LEVELS if lv <= target]:
        rank = math.ceil(level / 100.0 * n)
        if n - rank >= 10:
            return level, ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50.0, ordered[rank - 1], n - rank


class Run:
    """One benchmark run: the closed loop, the gate, and the digest."""

    def __init__(self, workload, seconds: float, tracer: Tracer | None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.durations: list[float] = []
        self.probes: list[tuple[int, float]] = []  # (ops done before it, seconds)
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.digest_count = 0
        self.ref_err_ratio = 0.0
        self.oracle_gap_ratio = 0.0
        self.trace_drift_ratio = 0.0
        self.eig_sizes: dict[str, list[int]] = {}
        self.trace_tol = getattr(workload.ms.harness, "TRACE_TOL", TRACE_TOL_DEFAULT)

    def loop(self) -> None:
        start = time.perf_counter()
        deadline, cutoff = start + self.seconds, start + self.seconds + OVERRUN_S
        w = self.workload
        i = 0
        last_probe = -math.inf
        # end on a whole pass over the input pool so every input weighs the same
        while i < w.min_ops or i % w.pass_ops or time.perf_counter() < deadline:
            now = time.perf_counter()
            if now > cutoff:
                break
            if now - last_probe >= PROBE_INTERVAL_S:
                self.probes.append((i, probe()))
                last_probe = time.perf_counter()
            self.op(i)
            i += 1
        self.probes.append((i, probe()))

    def scaled_durations(self) -> np.ndarray:
        """Op times at reference speed: each op is scaled by the mean of the
        probes taken just before and just after it."""
        at = np.array([k for k, _ in self.probes])
        secs = np.array([t for _, t in self.probes])
        ops = np.arange(len(self.durations))
        before = np.searchsorted(at, ops, side="right") - 1
        local = (secs[before] + secs[before + 1]) / 2.0
        return np.asarray(self.durations) * (REF_PROBE_S / local)

    def op(self, i: int) -> None:
        w, tr = self.workload, self.tracer
        case = w.case(i)
        root = tr.open(ROOT_SPAN) if tr else -1
        t0 = time.perf_counter()
        try:
            result, exc = w.run(case), None
        except Exception as e:  # a failed op is data; the loop goes on
            result, exc = None, e
        t1 = time.perf_counter()
        if tr:
            tr.close(root, exc)
        self.durations.append(t1 - t0)
        if exc is not None:
            self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            text = f"op {i} raised {type(exc).__name__}\n"
        else:
            outcome = w.check(case, result)
            text = outcome.text
            self.ref_err_ratio = max(self.ref_err_ratio, outcome.ref_err_ratio)
            if outcome.error:
                self.errors.append(f"op {i}: {outcome.error}")
        if self.digest_count < w.digest_ops:
            self.digest.update(text.encode("utf-8"))
            self.digest_count += 1
        if tr:
            self.observe(tr.captured)
            tr.captured.clear()

    def observe(self, captured) -> None:
        """Tolerance headroom from the matrices and spectra the op produced."""
        spectra: dict[int, dict[str, object]] = {}
        for name, args, result in captured:
            if name == "matrices.a_alpha_matrix":  # called as (graph, alpha, beta)
                g, alpha = args[0], getattr(args[1], "value", args[1])
                self.trace_drift_ratio = max(
                    self.trace_drift_ratio, trace_drift(g, float(alpha), result.data) / self.trace_tol
                )
            else:
                self.eig_sizes.setdefault(name, []).append(args[0].n)
                spectra.setdefault(id(args[0]), {"m": args[0]})[name] = result
        for entry in spectra.values():
            if "eig.eigenvalues" in entry and "eig.oracle_eigenvalues" in entry:
                limit = ORACLE_RTOL * float(np.linalg.norm(entry["m"].data))
                gap = float(np.max(np.abs(
                    np.subtract(entry["eig.eigenvalues"].values, entry["eig.oracle_eigenvalues"].values)
                )))
                self.oracle_gap_ratio = max(self.oracle_gap_ratio, gap / limit if limit else 0.0)

    @property
    def failed(self) -> int:
        return len(self.errors)


def trace_drift(g, alpha: float, data: np.ndarray) -> float:
    """max(|tr M - 2am|, |tr M^2 - (a^2 Z + (1-a)^2 2m)|) from the graph alone."""
    deg = np.zeros(g.n)
    for i, j in (*g.undirected, *g.arcs):
        deg[i] += 1
        deg[j] += 1
    m = len(g.undirected) + len(g.arcs)
    tr = float(np.trace(data).real)
    tr2 = float(np.sum(np.abs(data) ** 2))
    exp2 = alpha * alpha * float(np.sum(deg * deg)) + (1 - alpha) ** 2 * 2.0 * m
    return max(abs(tr - 2.0 * alpha * m), abs(tr2 - exp2))


def throughput(durations) -> float:
    return len(durations) / float(np.sum(durations))


def end_to_end(run: Run, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    setup_raw, setup_scaled = setup
    scaled = run.scaled_durations()
    level, value, beyond = tail(scaled, run.workload.tail_level)
    metrics = {
        "ops_per_s": (throughput(scaled), "1/s"),
        "op_p50_ms": (float(np.median(scaled)) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    _, raw_tail, _ = tail(run.durations, level)
    info = {
        "op_tail_percentile": level,
        "op_tail_samples": len(run.durations),
        "op_tail_beyond": beyond,
        "failed_ratio": run.failed / len(run.durations),
        "setup_times_s": setup_raw,
        "raw_setup_s": statistics.median(setup_raw),
        "probe_median_ms": statistics.median(t for _, t in run.probes) * 1e3,
        "probes": len(run.probes),
        "raw_ops_per_s": throughput(run.durations),
        "raw_op_p50_ms": statistics.median(run.durations) * 1e3,
        "raw_op_tail_ms": raw_tail * 1e3,
    }
    return metrics, info


def per_layer(run: Run, tracer: Tracer) -> tuple[dict, dict]:
    t = SpanTable(tracer)
    roots = t.mask({ROOT_SPAN})
    ops = int(roots.sum())
    op_time = float(t.dur[roots].sum())

    def calls(names) -> float:
        return float(t.mask(names).sum()) / ops

    def ms(names) -> float:
        return float(t.dur[t.outermost(t.mask(names))].sum()) * 1e3 / ops

    def self_ms(mask) -> float:
        return float(t.self_time[mask].sum()) * 1e3 / ops

    def mflops(name: str, coeff: float) -> float:
        sizes = run.eig_sizes.get(name, [])
        secs = ms({name}) * ops / 1e3
        return coeff * sum(k**3 for k in sizes) / secs / 1e6 if secs else 0.0

    build = {"matrices.a_alpha_matrix", "matrices.degree_matrix", "matrices.hermitian_adjacency",
             "matrices.HermitianMatrix.__post_init__"}
    quadform = {"matrices.quadratic_form", "matrices._expansion_quadratic_form"}
    serialize = {"cli.report_to_dict", "cli.dump_json", "cli.csv_header", "cli.csv_row"}
    bounds_names = {n for n in t.names if n.startswith("bounds.")}
    m = {
        "graphs.parse_ms": (ms({"graphs.parse_graph"}), "ms"),
        "graphs.stats_calls": (calls({"graphs.graph_stats"}), "count"),
        "graphs.stats_ms": (ms({"graphs.graph_stats"}), "ms"),
        "matrices.build_calls": (calls(build), "count"),
        "matrices.build_ms": (ms(build), "ms"),
        "matrices.quadform_calls": (calls(quadform), "count"),
        "matrices.quadform_ms": (ms(quadform), "ms"),
        "eig.primary_ms": (ms({"eig.eigenvalues"}), "ms"),
        "eig.oracle_ms": (ms({"eig.oracle_eigenvalues"}), "ms"),
        "eig.primary_mflops": (mflops("eig.eigenvalues", 16.0 / 3.0), "MFLOP/s"),
        "eig.oracle_mflops": (mflops("eig.oracle_eigenvalues", 32.0 / 3.0), "MFLOP/s"),
        "eig.oracle_gap_ratio": (run.oracle_gap_ratio, "ratio"),
        "eig.ref_err_ratio": (run.ref_err_ratio, "ratio"),
        "harness.verify_self_ms": (self_ms(t.mask({"harness.verify_all"})), "ms"),
        "harness.rayleigh_ms": (ms({"harness.rayleigh_range_check"}), "ms"),
        "harness.trace_drift_ratio": (run.trace_drift_ratio, "ratio"),
        "bounds.calls": (calls(bounds_names), "count"),
        "bounds.eval_ms": (ms(bounds_names), "ms"),
        "cli.serialize_ms": (ms(serialize), "ms"),
        "cli.self_ms": (self_ms(t.layer_mask("cli")), "ms"),
    }
    for layer in LAYERS:
        lm = t.layer_mask(layer)
        m[f"{layer}.errors"] = (float(t.error[lm].sum()), "count")
        m[f"{layer}.share"] = (float(t.self_time[lm].sum()) / op_time, "ratio")
    m["trace.ops_per_s"] = (throughput(run.scaled_durations()), "1/s")
    info = {"spans": len(t.dur), "unattributed_errors": int(t.error[roots].sum())}
    return m, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mixedspec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        setup = ([], []) if args.trace else measure_setup()
        ms = load_program()
    except (BenchError, subprocess.SubprocessError, OSError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    env = environment()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    try:
        rng = np.random.Generator(np.random.PCG64(args.seed))
        workload = WORKLOADS[args.workload](ms, rng, workdir)
        run = Run(workload, args.seconds, tracer)
        if tracer:
            tracer.install()
        try:
            run.loop()
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        metrics, info = per_layer(run, tracer)
        tracer.save(OUT / f"spans-{tag}.npz")
    else:
        metrics, info = end_to_end(run, setup)
    digest = run.digest.hexdigest()
    digest_complete = run.digest_count == workload.digest_ops

    print(f"mixedspec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} loop=closed clients=1")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not tracer:
        print(f"  op_tail_ms is p{info['op_tail_percentile']:g} of {info['op_tail_samples']} ops "
              f"({info['op_tail_beyond']} beyond it)")
        print(f"  times above are at reference speed (probe {REF_PROBE_S * 1e3:g} ms); "
              f"the probe took {info['probe_median_ms']:.4g} ms here. Unscaled: "
              f"ops_per_s = {info['raw_ops_per_s']:.6g} 1/s, op_p50_ms = {info['raw_op_p50_ms']:.6g} ms, "
              f"op_tail_ms = {info['raw_op_tail_ms']:.6g} ms, setup_s = {info['raw_setup_s']:.6g} s")
    print(f"  failed_ratio = {run.failed}/{len(run.durations)} = {run.failed / len(run.durations):.6g}")
    for err in run.errors[:10]:
        print(f"  failure: {err}")
    print(f"digest: sha256={digest} over the first {run.digest_count} ops"
          + ("" if digest_complete else " (INCOMPLETE)"))

    result = {
        "correct": run.failed == 0 and digest_complete,
        "attempted": len(run.durations),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, info=info, digest=digest, failures=run.errors[:100],
                  op_s=run.durations, probes=run.probes)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
