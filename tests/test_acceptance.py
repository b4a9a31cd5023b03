"""Acceptance gate: one test per criterion, at the stated tolerances.

`pytest -v tests/test_acceptance.py` yields one pass/fail line per criterion.
Each test also prints a CRITERION line with the measured numbers. Timed
criteria run after the session-wide eigensolver warm-up (conftest), so
first-call set-up cost never counts against a budget.
"""

import contextlib
import io
import math
import time

import numpy as np

import mixedspec.harness
from conftest import catalog_row, hermitian_from_array
from mixedspec.cli import main
from mixedspec.eig import SpectrumStack, VerificationError, eigenvalues, oracle_eigenvalues
from mixedspec.graphs import graph_stats, random_mixed_graph
from mixedspec.harness import Status, SweepConfig, randomized_suite, verify_all
from mixedspec.matrices import BetaParam, a_alpha_stack, expected_traces, omega_constant

OMEGA = omega_constant()
TRACE_GRAPH_SEED = 20230823


def _criterion(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _trace_population():
    """1000 random graphs with n <= 40, fixed seed, shared by criteria 2 and 7."""
    rng = np.random.Generator(np.random.PCG64(TRACE_GRAPH_SEED))
    graphs = []
    for _ in range(1000):
        n = int(rng.integers(2, 41))
        edge_prob = float(rng.uniform(0.05, 0.95))
        orient_prob = float(rng.uniform())
        graphs.append(random_mixed_graph(n, edge_prob, orient_prob, int(rng.integers(2**63))))
    return graphs


def test_criterion_1_closed_form_spectra(p2, c3):
    failures = []
    cases = [
        ("arc-pair adjacency", a_alpha_stack(p2, [0.0], OMEGA), (1.0, -1.0)),
        ("oriented-triangle adjacency", a_alpha_stack(c3, [0.0], OMEGA), (1.0, 1.0, -2.0)),
        ("oriented-triangle blend 0.5", a_alpha_stack(c3, [0.5], OMEGA), (1.5, 1.5, 0.0)),
    ]
    for label, matrix, expected in cases:
        got = eigenvalues(matrix).spectrum(0).values
        err = max(abs(g - e) for g, e in zip(got, expected))
        if err > 1e-9:
            failures.append(f"{label}: {got} vs {expected} (err {err:.2e})")
    _criterion(1, not failures, f"three closed-form spectra within 1e-9 {failures or ''}")


def test_criterion_2_trace_identities():
    graphs = _trace_population()
    alphas = [0.0, 0.25, 0.5, 0.75, 1.0]
    betas = [BetaParam.from_angle(t) for t in np.linspace(-np.pi / 2, np.pi / 2, 5)]
    worst = 0.0
    start = time.perf_counter()
    for g in graphs:
        stats = graph_stats(g)
        closed_forms = [expected_traces(stats, a) for a in alphas]
        for b in betas:
            stack = a_alpha_stack(g, alphas, b)
            built = zip(stack.traces(), stack.traces_of_square())
            for (tr, tr2), (tr_expect, tr2_expect) in zip(built, closed_forms):
                worst = max(worst, abs(tr - tr_expect), abs(tr2 - tr2_expect))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _criterion(
        2,
        ok,
        f"1000 graphs x 5x5 grid: worst trace deviation {worst:.2e} (limit 1e-9), "
        f"{elapsed:.1f}s (limit 30s)",
    )


def test_criterion_3_bound_suite():
    required = [
        "rayleigh_mu1_lower",
        "offdiag_mu1_lower",
        "offdiag_mun_upper",
        "rho_sandwich",
        "zagreb_mu1_lower",
        "zagreb_mun_upper",
        "wolkowicz_mu1_upper",
        "wolkowicz_mu1_lower",
        "wolkowicz_mun_upper",
        "wolkowicz_mun_lower",
        "trace_norm_upper",
        "wolkowicz_mu_j_lower",
        "wolkowicz_mu_j_upper",
        "spread_upper",
        "spread_lower_moment",
        "spread_lower_zagreb",
        "zagreb_index_lower",
    ]
    start = time.perf_counter()
    summary = randomized_suite(SweepConfig(trials=10000, seed=7, n_range=(2, 12)))
    elapsed = time.perf_counter() - start
    worst = dict(summary.worst_slack)
    failures = []
    if summary.violated_count:
        failures.append(f"{summary.violated_count} violations: {summary.violations[:3]}")
    for name in required:
        if name not in worst:
            failures.append(f"{name} never scored")
        elif worst[name] < -1e-9:
            failures.append(f"{name} worst slack {worst[name]:.2e}")
    if elapsed >= 60.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    _criterion(
        3,
        not failures,
        f"10000 trials, zero violations across {len(required)} bound families, "
        f"{elapsed:.1f}s (limit 60s) {failures or ''}",
    )


def test_criterion_4_literal_bound_expected_fail(p2):
    report = verify_all(p2, 0.5, OMEGA)
    lit = catalog_row(report, "unit_offdiag_mu1_lower")
    ok = (
        lit.bound == 1.5
        and abs(lit.actual - 1.0) <= 1e-9
        and lit.status is Status.EXPECTED_FAIL
        and not report.violated
    )
    _criterion(
        4,
        ok,
        f"unit-modulus form on arc pair at alpha=0.5: bound {lit.bound} > "
        f"mu_1 {lit.actual}, status {lit.status.value}, no fatal violation",
    )


def test_criterion_5_tightness_regressions(p2, c3, k13):
    failures = []

    r = verify_all(c3, 0.0, OMEGA)
    if abs(r.rho_ratio - 0.5) > 1e-9:
        failures.append(f"mu_1/rho on triangle = {r.rho_ratio}")
    jn = catalog_row(r, "wolkowicz_mu_j_lower", j=3)
    if abs(jn.bound - (-2.0)) > 1e-9 or abs(jn.actual - (-2.0)) > 1e-9:
        failures.append(f"j=n lower: bound {jn.bound} actual {jn.actual}")
    sm = catalog_row(r, "spread_lower_moment")
    if abs(sm.bound - 3.0) > 1e-9 or abs(r.spread - 3.0) > 1e-9:
        failures.append(f"odd-case spread lower: bound {sm.bound} spread {r.spread}")

    r2 = verify_all(c3, 0.5, OMEGA)
    z1 = catalog_row(r2, "zagreb_mu1_lower")
    if abs(z1.bound - 1.5) > 1e-9 or abs(z1.actual - 1.5) > 1e-9:
        failures.append(f"refined mu_1 lower: bound {z1.bound} actual {z1.actual}")

    rk = verify_all(k13, 0.5, OMEGA)
    zi = catalog_row(rk, "zagreb_index_lower")
    if abs(zi.bound - 12.0) > 1e-9 or zi.actual != 12.0:
        failures.append(f"zagreb equality: bound {zi.bound} actual {zi.actual}")

    rp = verify_all(p2, 0.0, OMEGA)
    su = catalog_row(rp, "spread_upper")
    if abs(su.bound - 2.0) > 1e-9 or abs(rp.spread - 2.0) > 1e-9:
        failures.append(f"spread upper: bound {su.bound} spread {rp.spread}")

    _criterion(5, not failures, f"six equality cases within 1e-9 {failures or ''}")


def test_criterion_6_dual_solver_agreement():
    rng = np.random.Generator(np.random.PCG64(424242))
    worst_ratio = 0.0
    start = time.perf_counter()
    for i in range(1000):
        n = 1 + i % 50
        scale = float(rng.uniform(0.5, 5.0))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = hermitian_from_array(scale * a)
        primary = np.array(eigenvalues(m).spectrum(0).values)
        oracle = np.array(oracle_eigenvalues(m).spectrum(0).values)
        norm = math.sqrt(m.traces_of_square()[0])
        if norm > 0.0:
            worst_ratio = max(worst_ratio, float(np.max(np.abs(primary - oracle))) / norm)
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1e-8 and elapsed < 60.0
    _criterion(
        6,
        ok,
        f"1000 matrices n<=50: worst elementwise gap {worst_ratio:.2e} x ||M||_F "
        f"(limit 1e-8), {elapsed:.1f}s (limit 60s)",
    )


ESCAPED = "a sampled quadratic form escaped [mu_n, mu_1]"


def _contained(g, alpha, seed):
    """Whether verify_all's numerical-range check passes; any other
    verification failure propagates."""
    try:
        verify_all(g, alpha, OMEGA, rayleigh_seed=seed)
    except VerificationError as exc:
        if str(exc) != ESCAPED:
            raise
        return False
    return True


def test_criterion_7_numerical_range_containment(p2, c3, monkeypatch):
    failures = []

    # graphs named in criterion 1, at both endpoints used there
    for g, a in [(p2, 0.0), (c3, 0.0), (c3, 0.5)]:
        if not _contained(g, a, seed=1):
            failures.append(f"containment failed on n={g.n} alpha={a}")

    # the criterion-2 population; criterion-3 trials run the same check
    for idx, g in enumerate(_trace_population()):
        if not _contained(g, 0.5, seed=idx):
            failures.append(f"containment failed on population graph {idx}")
            break

    # negative control: both eigen routes report the truncated spectrum
    # (0.5, 0.5, -2) for the oriented triangle at alpha 0, whose true
    # spectrum is (1, 1, -2), so the route cross-check passes and only the
    # range check can catch it
    fake = SpectrumStack(np.array([[0.5, 0.5, -2.0]]), (None,))
    monkeypatch.setattr(mixedspec.harness, "eigenvalues", lambda stack: fake)
    monkeypatch.setattr(mixedspec.harness, "oracle_eigenvalues", lambda stack: fake)
    detected = sum(0 if _contained(c3, 0.0, seed=s) else 1 for s in range(100))
    if detected < 99:
        failures.append(f"negative control caught only {detected}/100 seeds")

    _criterion(
        7,
        not failures,
        f"containment on 1003 graphs, negative control detected {detected}/100 "
        f"(need >= 99) {failures or ''}",
    )


def test_criterion_8_check_determinism():
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["check", "--trials", "200", "--seed", "7"])
        return code, buf.getvalue()

    code1, out1 = run()
    code2, out2 = run()
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    _criterion(
        8,
        ok,
        f"two fixed-seed runs: exit codes {code1}/{code2}, "
        f"outputs byte-identical: {out1 == out2}",
    )
