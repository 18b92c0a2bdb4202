"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the tolerance it enforced.  Run with ``pytest -v
tests/test_acceptance.py`` (add ``-s`` to see the lines immediately).
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from radonrange import (
    TangentialData,
    conjugated_shift,
    difference_residual,
    disk,
    exactla,
    hankel_certificate,
    moment,
    moment_oracle,
    perturb,
    reconstruct,
    shift_matrix,
    synthesize_moments,
    tangential_disk_data,
)
from radonrange.cli import main
from tests.conftest import random_ellipse, random_exact_data, random_fraction, smooth_densities


def _report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_disk_chord_identity_and_runtime(tmp_path):
    start = time.monotonic()
    code = main(["demo-disk", "--out", str(tmp_path)])
    elapsed = time.monotonic() - start
    summary = json.loads((tmp_path / "summary.json").read_text())
    ok = (
        code == 0
        and summary["grid"] == 512
        and summary["lines"] == 101
        and summary["max_deviation_inside"] <= 1e-8
        and summary["max_deviation_outside"] == 0.0
        and elapsed < 10.0
    )
    _report(
        ok,
        f"disk chord integrals: |R f0 - 1| <= 1e-8 inside, 0 outside, "
        f"512 x 101 lines in {elapsed:.2f}s (< 10s)",
    )


def test_moment_oracle_equivalence_exact():
    rng = random.Random(424242)
    n = 8
    thetas = [2 * math.pi * i / n for i in range(n)]
    checked = 0
    ok = True
    for _ in range(50):
        data = random_exact_data(rng, n=n, m_max=4)
        for k in range(25):
            values = moment(data, k).values
            for i, theta in enumerate(thetas):
                ok = ok and values[i] == moment_oracle(data, k, theta)
                checked += 1
    _report(
        ok,
        f"moment == moment_oracle exactly on 50 random data sets, m <= 4, "
        f"k <= 24 ({checked} comparisons, rational arithmetic)",
    )


def test_difference_identities_exhaustive():
    start = time.monotonic()
    count = 0
    ok = True
    for m in range(1, 9):
        for r in range(31):  # covers r <= 20 with headroom past 1000 assertions
            for j in range(m):
                ok = ok and difference_residual(m, r, j) == 0
                count += 1
    elapsed = time.monotonic() - start
    ok = ok and count >= 1000 and elapsed < 5.0
    _report(
        ok,
        f"alternating binomial sums vanish for m <= 8, r <= 30, j <= m-1 "
        f"({count} exact identities in {elapsed:.2f}s, < 5s)",
    )


def test_companion_matrix_facts():
    rng = random.Random(99)
    ok = True
    for m in range(1, 7):
        for _ in range(20):
            rho2 = random_fraction(rng, positive=True)
            s = shift_matrix(m, rho2)
            ok = ok and exactla.det(s) == rho2**m
            want = tuple(math.comb(m, k) * (-rho2) ** k for k in range(m + 1))
            ok = ok and exactla.char_poly(s) == want
            shifted = s.copy()
            for i in range(m):
                shifted[i, i] = shifted[i, i] - rho2
            ok = ok and exactla.is_zero(exactla.mat_pow(shifted, m))
    _report(
        ok,
        "companion matrix: det = rho^(2m), char poly = (lambda - rho^2)^m, "
        "(S - rho^2 I)^m = 0, exact, m <= 6, 20 random rational rho^2 each",
    )


def test_conjugated_shift_structure():
    rng = random.Random(7)
    ok = True
    for m in range(1, 7):
        for _ in range(5):
            rho = random_fraction(rng, positive=True)
            out = conjugated_shift(m, rho)  # asserts diagonal/superdiagonal inside
            for i in range(m):
                for j in range(m):
                    if j < i or j > i + 2:
                        ok = ok and out[i, j] == 0
                    elif j == i + 2:
                        ok = ok and out[i, j] == (i + 1) * (i + 2)
    # the m = 5 case at a symbolic sample value rho reproduces the displayed
    # two superdiagonals (2 rho, 4 rho, 6 rho, 8 rho) and (2, 6, 12)
    rho = Fraction(13, 7)
    out = conjugated_shift(5, rho)
    ok = ok and [out[i, i + 1] for i in range(4)] == [2 * rho, 4 * rho, 6 * rho, 8 * rho]
    ok = ok and [out[i, i + 2] for i in range(3)] == [2, 6, 12]
    ok = ok and all(out[i, i] == rho * rho for i in range(5))
    _report(
        ok,
        "conjugated shift = rho^2 I + N with superdiagonals 2 rho k and "
        "k(k+1), exact, m <= 6; m = 5 sample matches the closed matrix",
    )


def test_hankel_certificate_disk_and_corpus():
    cert = hankel_certificate(tangential_disk_data(), n=512)
    ok = cert.verdict and all(d == -16 for d in cert.determinants) and cert.exact
    rng = random.Random(31337)
    for _ in range(20):
        data = random_exact_data(rng, n=8, m_max=4)
        corpus_cert = hankel_certificate(data)
        ok = ok and corpus_cert.verdict and corpus_cert.exact
    _report(
        ok,
        "disk q1-data: det Hankel = -16 at all 512 directions (exact); "
        "N^(m-1) Q = (2 rho)^(m-1) (m-1)! q_(m-1) e1 exact on 20 random data sets",
    )


def test_ellipse_round_trip_all_m():
    rng = random.Random(2718)
    worst = 0.0
    slowest = 0.0
    ok = True
    for _ in range(10):
        body = random_ellipse(rng)
        m_ref = np.asarray(body.matrix, dtype=float)
        for m in (1, 2, 3):
            data = TangentialData(body, smooth_densities(rng, m))
            start = time.monotonic()
            seq = synthesize_moments(data, 3 * m + 2)
            report = reconstruct(seq, m)
            elapsed = time.monotonic() - start
            slowest = max(slowest, elapsed)
            ok = ok and report.verdict == "ellipse" and elapsed < 30.0
            if report.ellipse_matrix is not None:
                rel = float(
                    np.max(np.abs(np.asarray(report.ellipse_matrix) - m_ref))
                    / np.max(np.abs(m_ref))
                )
                worst = max(worst, rel)
            else:
                ok = False
    ok = ok and worst <= 1e-7
    _report(
        ok,
        f"round trip: 10 random ellipses x m in {{1,2,3}} certified, max "
        f"relative matrix error {worst:.2e} (<= 1e-7), slowest {slowest:.2f}s (< 30s)",
    )


def test_negative_control_separation():
    ok = True
    details = []
    for eps in (0.01, 0.05, 0.1):
        body = perturb(disk(1), eps, 4)
        data = TangentialData(body, (1,))
        seq = synthesize_moments(data, 8)
        report = reconstruct(seq, 1)
        verdict = report.quadratic_verdict
        forbidden_ok = verdict.forbidden_energy >= 0.5 * eps * eps * verdict.total_energy
        residual_ok = report.relative_residual <= 1e-9
        ok = ok and (not verdict.verdict) and forbidden_ok and residual_ok
        details.append(f"eps={eps}: forbidden/total={verdict.forbidden_energy / verdict.total_energy:.2e}")
    _report(
        ok,
        "negative control: membership fails with forbidden energy >= 0.5 eps^2 "
        f"of total while residuals stay <= 1e-9 ({'; '.join(details)})",
    )


def test_windowed_matches_global():
    rng = random.Random(5150)
    window = (-math.pi / 8, math.pi / 8)
    worst = 0.0
    ok = True
    for _ in range(5):
        body = random_ellipse(rng)
        data = TangentialData(body, (1,))
        seq = synthesize_moments(data, 6)
        full = reconstruct(seq, 1)
        part = reconstruct(seq, 1, window=window)
        ok = ok and part.membership_note == "not-locally-testable"
        full_values = np.asarray(full.rho2_values, dtype=float)
        for idx, value in zip(part.indices, np.asarray(part.rho2_values, dtype=float)):
            worst = max(worst, abs(value - full_values[idx]))
    ok = ok and worst <= 1e-10
    _report(
        ok,
        f"windowed rho^2 on (-pi/8, pi/8) matches the global solve pointwise, "
        f"max deviation {worst:.1e} (<= 1e-10), membership marked not locally testable",
    )
