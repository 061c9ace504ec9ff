"""Acceptance gate: the ten headline claims of the package, end to end.

Each test is one claim at its stated tolerance, so the -v report reads
as a pass/fail line per claim.  Randomized suites use a fixed seed;
nothing here depends on hypothesis.
"""

import cmath
import json
import math
import random
import time

import numpy as np
import pytest

from kerrsteady.cli import main
from kerrsteady.exact_linear import correlation_linear, wavefunction_linear
from kerrsteady.exact_twophoton import (
    correlation_twophoton,
    wavefunction_twophoton,
    wavefunction_via_three_term,
)
from kerrsteady.keldysh_ops import (
    build_generalized_hamiltonian_clq,
    build_generalized_hamiltonian_pm,
    convert_basis,
    steady_residual,
)
from kerrsteady.lindblad_oracle import adaptive_cutoff
from kerrsteady.meanfield import photon_number_branches
from kerrsteady.model import ModelParams, derive_linear, derive_twophoton
from kerrsteady.specfun import hyp0f2_ratio

from conftest import gauss_sum, total_photon_mask

SEED = 20260817

LINEAR_POINT = ModelParams(delta_c=5.0, chi=-0.25, omega=4.0, gamma=1.0)
TWOPHOTON_POINT = ModelParams(
    delta_c=-1.0, chi=1.0, omega=0.1, gamma=0.1, lambda_2ph=0.2, kappa=0.1
)


def draw_linear(rng: random.Random) -> ModelParams:
    chi = 0.0
    while abs(chi) < 5e-3:
        chi = rng.uniform(-2.0, 2.0)
    return ModelParams(
        delta_c=rng.uniform(-10.0, 10.0),
        chi=chi,
        omega=rng.uniform(0.0, 10.0),
        gamma=rng.uniform(0.05, 4.0),
    )


def draw_twophoton(rng: random.Random) -> ModelParams:
    return ModelParams(
        delta_c=rng.uniform(-6.0, 2.0),
        chi=rng.uniform(0.25, 2.0),
        omega=rng.uniform(0.0, 1.0),
        gamma=rng.uniform(0.02, 0.5),
        lambda_2ph=rng.uniform(0.01, 0.5) * cmath.exp(2j * math.pi * rng.random()),
        kappa=rng.uniform(0.0, 0.5),
    )


def test_criterion_01_meanfield_bistable_window():
    started = time.perf_counter()
    window = []
    for i in range(161):
        omega = 0.05 * i
        p = LINEAR_POINT.replace(omega=omega)
        branches = photon_number_branches(p)

        a = 16.0 * p.chi**2
        b = 16.0 * p.chi * p.delta_c
        c = 4.0 * p.delta_c**2 + p.gamma**2
        d = -4.0 * omega**2
        roots = sorted(
            r.real
            for r in np.roots([a, b, c, d])
            if abs(r.imag) <= 1e-8 * max(1.0, abs(r)) and r.real >= -1e-12
        )
        assert len(branches) == len(roots)
        for branch, root in zip(branches, roots):
            assert branch.n == pytest.approx(root, rel=1e-9, abs=1e-12)

        if len(branches) == 3:
            window.append(omega)
            assert sum(1 for b_ in branches if not b_.stable) == 1
    assert window
    assert time.perf_counter() - started < 1.0


def test_criterion_02_exact_curve_single_valued_and_oracle_checked():
    started = time.perf_counter()

    def curve(step):
        grid = np.arange(0.0, 8.0 + step / 2.0, step)
        return np.array(
            [
                correlation_linear(LINEAR_POINT.replace(omega=float(om)), 1, 1).value.real
                for om in grid
            ]
        )

    for omega in (2.0, 5.5):
        p = LINEAR_POINT.replace(omega=omega)
        assert correlation_linear(p, 1, 1).value == correlation_linear(p, 1, 1).value

    # The quantum crossover is steep, so one refinement does not halve
    # the largest adjacent difference; strict shrink at every level is
    # what rules out a jump.
    diffs = [np.max(np.abs(np.diff(curve(step)))) for step in (0.5, 0.25, 0.125)]
    assert diffs[1] < diffs[0]
    assert diffs[2] < diffs[1]

    for omega in np.linspace(0.0, 8.0, 8):
        p = LINEAR_POINT.replace(omega=float(omega))
        _, want = adaptive_cutoff(p, observable=(1, 1), tol=1e-8)
        got = correlation_linear(p, 1, 1).value
        if abs(want) > 1e-12:
            assert abs(got - want) <= 1e-6 * abs(want)
        else:
            assert abs(got - want) <= 1e-6
    assert time.perf_counter() - started < 60.0


def scan_peaks(capsys, omega):
    """(delta_c/chi, n) at each is_peak row of resonance-scan over the README grid.

    The scan holds TWOPHOTON_POINT's rates but the drive and runs in-process.
    """
    p = TWOPHOTON_POINT
    code = main(["resonance-scan", "--chi", repr(p.chi), "--gamma", repr(p.gamma),
                 "--omega", repr(omega), "--lambda2", repr(p.lambda_2ph.real),
                 "--kappa", repr(p.kappa),
                 "--delta-from", "-4.5", "--delta-to", "0.5", "--delta-step", "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert len(rows) == 501
    return [(float(d), float(n)) for d, n, _, is_peak in rows if is_peak == "1"]


def test_criterion_03_pair_pump_resonances(capsys):
    started = time.perf_counter()
    peaks = scan_peaks(capsys, 0.0)
    expected = (-1.0, -3.0)
    for target in expected:
        assert any(abs(d - target) <= 0.2 for d, _ in peaks)
    tallest = max(h for _, h in peaks)
    for d, h in peaks:
        if all(abs(d - target) > 0.2 for target in expected):
            assert h <= 0.25 * tallest
    assert time.perf_counter() - started < 120.0


def test_criterion_04_driven_resonances(capsys):
    started = time.perf_counter()
    peaks = scan_peaks(capsys, TWOPHOTON_POINT.omega)
    for target in (0.0, -1.0, -2.0, -3.0):
        assert any(abs(d - target) <= 0.2 for d, _ in peaks)
    assert time.perf_counter() - started < 120.0


def test_criterion_05_twophoton_moments_match_oracle():
    for detuning in np.linspace(-4.4, 0.0, 12):
        p = TWOPHOTON_POINT.replace(delta_c=float(detuning))
        _, want = adaptive_cutoff(p, observable=(1, 1), tol=1e-8)
        got = correlation_twophoton(p, 1, 1).value
        assert abs(got - want) <= 1e-6 * abs(want)


@pytest.mark.parametrize(
    "params,maker",
    [(LINEAR_POINT, wavefunction_linear), (TWOPHOTON_POINT, wavefunction_twophoton)],
    ids=["linear", "twophoton"],
)
def test_criterion_06_generator_annihilates_steady_state(params, maker):
    psi = maker(params, truncation=60)
    ham = build_generalized_hamiltonian_clq(params, (60, 4))
    report = steady_residual(ham, psi, 50)
    norm = math.sqrt(float(np.sum(np.abs(psi.amplitudes) ** 2)))
    assert report.residual_norm / norm <= 1e-8


def test_criterion_07_closed_form_equals_recursion_on_50_sets():
    rng = random.Random(SEED)
    for _ in range(50):
        p = draw_twophoton(rng)
        closed = wavefunction_twophoton(p)
        recur = wavefunction_via_three_term(p, truncation=closed.truncation)
        for a, b in zip(closed.amplitudes, recur.amplitudes):
            if abs(a) > 1e-12:
                assert abs(a - b) <= 1e-9 * abs(a)


@pytest.mark.parametrize(
    "params", [LINEAR_POINT, TWOPHOTON_POINT], ids=["linear", "twophoton"]
)
def test_criterion_08_basis_equivalence(params):
    cutoffs = (12, 4)
    clq = build_generalized_hamiltonian_clq(params, cutoffs)
    rotated = convert_basis(build_generalized_hamiltonian_pm(params, cutoffs), "cl_q")
    mask = total_photon_mask(cutoffs, min(cutoffs))
    diff = np.abs(rotated.entries - clq.entries)[np.ix_(mask, mask)]
    assert diff.max() <= 1e-10


def _moment(params: ModelParams, l: int, k: int) -> complex:
    if params.is_two_photon or params.kappa > 0.0:
        return correlation_twophoton(params, l, k).value
    return correlation_linear(params, l, k).value


def _draw_either(rng: random.Random, index: int) -> ModelParams:
    return draw_linear(rng) if index % 2 == 0 else draw_twophoton(rng)


def test_criterion_09_property_hermiticity():
    rng = random.Random(SEED + 1)
    for i in range(50):
        p = _draw_either(rng, i)
        l, k = rng.randrange(4), rng.randrange(4)
        lk = _moment(p, l, k)
        kl = _moment(p, k, l)
        assert abs(lk - kl.conjugate()) <= 1e-12 * max(abs(lk), 1e-250)


def test_criterion_09_property_moment_positivity():
    rng = random.Random(SEED + 2)
    for i in range(50):
        p = _draw_either(rng, i)
        k = rng.randrange(5)
        v = _moment(p, k, k)
        assert v.real >= 0.0
        assert abs(v.imag) <= 1e-10 * max(abs(v), 1e-300)


def test_criterion_09_property_cauchy_schwarz():
    rng = random.Random(SEED + 3)
    for i in range(50):
        p = _draw_either(rng, i)
        l, k = rng.randrange(4), rng.randrange(4)
        cross = _moment(p, l, k)
        assert abs(cross) ** 2 <= (
            _moment(p, l, l).real * _moment(p, k, k).real * (1.0 + 1e-9) + 1e-28
        )


def test_criterion_09_property_pump_branch_invariance():
    rng = random.Random(SEED + 4)
    for _ in range(50):
        d = derive_twophoton(draw_twophoton(rng))
        m = rng.randint(1, 25)
        direct = (-d.lambda_disp) ** m * gauss_sum(m, d.y, d.z)
        flipped = d.lambda_disp**m * gauss_sum(m, d.z - d.y, d.z)
        assert abs(flipped - direct) <= 1e-9 * abs(direct) + 1e-20


def test_criterion_09_property_scale_covariance():
    rng = random.Random(SEED + 5)
    for i in range(50):
        s = 10.0 ** rng.uniform(-1.0, 1.0)
        if i % 2 == 0:
            p = draw_linear(rng)
            base, scaled = derive_linear(p), derive_linear(
                ModelParams(s * p.delta_c, s * p.chi, s * p.omega, s * p.gamma)
            )
            pairs = [(base.epsilon, scaled.epsilon), (base.x, scaled.x)]
        else:
            p = draw_twophoton(rng)
            base = derive_twophoton(p)
            scaled = derive_twophoton(
                ModelParams(
                    s * p.delta_c, s * p.chi, s * p.omega, s * p.gamma,
                    s * p.lambda_2ph, s * p.kappa,
                )
            )
            pairs = [
                (base.lambda_disp, scaled.lambda_disp),
                (base.y, scaled.y),
                (base.z, scaled.z),
            ]
        for want, got in pairs:
            assert abs(got - want) <= 1e-12 * max(abs(want), 1e-30)


def test_criterion_09_property_alternating_collapse():
    rng = random.Random(SEED + 6)
    for _ in range(50):
        m = rng.randint(0, 30)
        y = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        if abs(y.imag) < 1e-3 and y.real <= 0.0 and abs(y.real - round(y.real)) < 1e-3:
            y += 0.25
        got = gauss_sum(m, y, y)
        assert abs(got - (-1.0) ** m) <= 1e-12


def test_criterion_10_special_function_accuracy():
    def brute(b1, b2, z):
        term, total = complex(1.0), complex(1.0)
        for t in range(50):
            term *= z / ((b1 + t) * (b2 + t) * (t + 1.0))
            total += term
        return total

    rng = random.Random(SEED + 7)
    for _ in range(50):
        b1, b2 = rng.uniform(0.3, 8.0), rng.uniform(0.3, 8.0)
        z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0))
        ratio = brute(b1 + 1, b2, z) / brute(b1, b2, z)
        got = hyp0f2_ratio(b1 + 1, b2, b1, b2, z)
        assert abs(got - ratio) <= 1e-12 * max(abs(ratio), 1e-30)
