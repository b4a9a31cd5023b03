"""Self-tests of the benchmark: the correctness gate fails a perturbed op, an
exception raised in a wrapped layer is charged to that layer, and the stdout
digest repeats for a repeated seed.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import SpanTable, Tracer
from workloads import ReportLarge, Suite, SweepFine

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def ms():
    return run.load_program()


def make(workload_cls, ms, seed, tmp_path, tracer=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    return run.Run(workload_cls(ms, rng, tmp_path), seconds=1.0, tracer=tracer)


def test_perturbed_suite_spectrum_fails(ms, tmp_path, monkeypatch):
    real = ms.harness.run_trial

    def perturbed(cfg, trial):
        report = real(cfg, trial)
        values = list(report.spectrum.values)
        values[0] += 1e-3  # stays sorted; far above 1e-8 * ||M||_F
        return dataclasses.replace(report, spectrum=ms.Spectrum(tuple(values)))

    r = make(Suite, ms, 5, tmp_path)
    r.op(0)
    assert r.failed == 0
    monkeypatch.setattr(ms.harness, "run_trial", perturbed)
    r.op(1)
    r.op(2)
    assert r.failed == 2
    assert all("misses reference" in e for e in r.errors)


def test_perturbed_cli_outputs_fail(ms, tmp_path):
    report = make(ReportLarge, ms, 5, tmp_path)
    case = min(report.workload.pool, key=lambda c: len(c.refs[0].values))
    code, text = report.workload.run(case)
    assert code == 0 and report.workload.check(case, (code, text)).error is None
    assert "exit code 1" in report.workload.check(case, (1, text)).error
    doc = json.loads(text)
    doc["spectrum"][len(doc["spectrum"]) // 2] += 1e-3
    bad = report.workload.check_spectra(case, json.dumps(doc))
    assert bad.error and "misses reference" in bad.error

    sweep = make(SweepFine, ms, 5, tmp_path)
    case = sweep.workload.pool[0]
    code, text = sweep.workload.run(case)
    assert code == 0 and sweep.workload.check(case, (code, text)).error is None
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) + 1e-3)  # mu1 at alpha = 0.2
    lines[5] = ",".join(cells)
    bad = sweep.workload.check_spectra(case, "\n".join(lines) + "\n")
    assert bad.error and "miss reference" in bad.error


def test_injected_exception_is_charged_to_its_layer(ms, tmp_path, monkeypatch):
    def broken_oracle(m):
        raise RuntimeError("injected")

    # counted as an eig function, so the tracer wraps it like the real one
    broken_oracle.__module__ = ms.eig.__name__
    monkeypatch.setattr(ms.eig, "oracle_eigenvalues", broken_oracle)
    monkeypatch.setattr(ms.harness, "oracle_eigenvalues", broken_oracle)
    tracer = Tracer()
    r = make(Suite, ms, 5, tmp_path, tracer)
    tracer.install()
    try:
        r.op(0)
    finally:
        tracer.uninstall()
    assert ms.harness.oracle_eigenvalues is broken_oracle
    assert r.failed == 1 and "injected" in r.errors[0]
    t = SpanTable(tracer)
    errors = {layer: int(t.error[t.layer_mask(layer)].sum()) for layer in (*run.LAYERS, "bench")}
    assert errors == {"graphs": 0, "matrices": 0, "eig": 1, "bounds": 0, "harness": 0, "cli": 0,
                      "bench": 0}


def test_digest_repeats_for_a_seed(ms, tmp_path):
    def digest(seed):
        r = make(Suite, ms, seed, tmp_path)
        for i in range(Suite.digest_ops):
            r.op(i)
        assert r.failed == 0
        return r.digest.hexdigest()

    first = digest(9)
    assert digest(9) == first
    assert digest(10) != first


def test_tail_keeps_ten_samples_beyond():
    durations = [float(k) for k in range(1, 26)]
    assert run.tail(durations, 60.0) == (60.0, 15.0, 10)
    level, _, beyond = run.tail(durations[:20], 60.0)
    assert (level, beyond) == (50.0, 10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_op_times_scale_by_the_probes_around_them(ms, tmp_path):
    r = make(Suite, ms, 5, tmp_path)
    r.durations = [1.0, 1.0, 1.0]
    r.probes = [(0, 0.5 * run.REF_PROBE_S), (2, 2.0 * run.REF_PROBE_S), (3, 2.0 * run.REF_PROBE_S)]
    scale = 1.0 / np.array([1.25, 1.25, 2.0])
    assert np.allclose(r.scaled_durations(), scale)
