"""Mean-field branch enumeration, stability, and the drive sweep.

Root values are pinned against 60-digit polynomial solves frozen in
tests/data, and independently against numpy's companion-matrix roots.
The closed-form stability is checked against numpy's eigenvalues of the
printed Jacobian and by integrating the classical equation of motion
with a throwaway RK4 stepper.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrsteady.cli import main
from kerrsteady.errors import InvalidParams, UnsupportedModel
from kerrsteady.meanfield import (
    _cardano_real_roots,
    drive_point_branches,
    photon_number_branches,
)
from kerrsteady.model import ModelParams

ROOT_RTOL = 1e-10


def drive_family(omega):
    return ModelParams(delta_c=5.0, chi=-0.25, omega=omega, gamma=1.0)


def cubic_residual(n, p):
    return n * (4.0 * (p.delta_c + 2.0 * p.chi * n) ** 2 + p.gamma**2) - 4.0 * p.omega**2


def companion_roots(p):
    """Independent root oracle: numpy eigenvalues of the companion matrix."""
    coeffs = [
        16.0 * p.chi**2,
        16.0 * p.chi * p.delta_c,
        4.0 * p.delta_c**2 + p.gamma**2,
        -4.0 * p.omega**2,
    ]
    roots = np.roots(coeffs)
    return sorted(
        float(r.real) for r in roots if abs(r.imag) < 1e-8 * max(1.0, abs(r)) and r.real >= -1e-12
    )


def test_zero_drive_is_vacuum():
    branches = photon_number_branches(drive_family(0.0))
    assert len(branches) == 1
    b = branches[0]
    assert b.n == 0.0 and b.a0 == 0j


def test_chi_zero_lorentzian_limit():
    p = ModelParams(delta_c=0.0, chi=0.0, omega=1.0, gamma=2.0)
    branches = photon_number_branches(p)
    assert len(branches) == 1
    assert branches[0].n == pytest.approx(1.0, rel=1e-14)


def test_frozen_branch_values(refs):
    for key, expected in refs["cubic_roots"].items():
        branches = photon_number_branches(drive_family(float(key)))
        assert len(branches) == len(expected)
        for b, ref_n in zip(branches, expected):
            assert b.n == pytest.approx(ref_n, rel=ROOT_RTOL)


def test_branches_sorted_and_self_consistent(refs):
    for omega in (2.0, 4.0, 6.0, 8.0):
        p = drive_family(omega)
        branches = photon_number_branches(p)
        ns = [b.n for b in branches]
        assert ns == sorted(ns)
        for b in branches:
            assert abs(b.a0) ** 2 == pytest.approx(b.n, rel=1e-10)
            assert abs(cubic_residual(b.n, p)) <= 1e-9 * max(1.0, 4.0 * omega**2)


def test_two_photon_params_rejected():
    p = ModelParams(delta_c=1.0, chi=1.0, omega=1.0, gamma=1.0, lambda_2ph=0.5)
    with pytest.raises(UnsupportedModel):
        photon_number_branches(p)
    with pytest.raises(UnsupportedModel):
        photon_number_branches(
            ModelParams(delta_c=1.0, chi=1.0, omega=1.0, gamma=1.0, kappa=0.2)
        )


def jacobian_eigvals(branch, p):
    """Independent stability oracle: numpy eigenvalues of the fluctuation Jacobian.

    Returns the eigenvalues and the stability verdict under the library's
    margin rule.
    """
    diag = p.delta_c + 4.0 * p.chi * branch.n
    a0 = branch.a0
    jac = np.array(
        [
            [-1j * diag - p.gamma / 2.0, -2j * p.chi * a0**2],
            [2j * p.chi * np.conj(a0) ** 2, 1j * diag - p.gamma / 2.0],
        ],
        dtype=complex,
    )
    ev = np.linalg.eigvals(jac)
    margin = 1e-9 * max(p.gamma, abs(p.delta_c), abs(p.chi) * max(branch.n, 1.0))
    return ev, bool(max(ev.real) < -margin)


@pytest.mark.parametrize(
    "p",
    [
        drive_family(1e200),  # the cubic's constant term overflows
        drive_family(1e100),  # Cardano's intermediates overflow, in n and in u = 4 chi n
        # roots u of order 1 divided by 4 chi, chi subnormal
        ModelParams(delta_c=-1.0, chi=1e-309, omega=1e154, gamma=0.1),
    ],
    ids=["omega-1e200", "omega-1e100", "subnormal-chi"],
)
def test_double_range_overflow_refused(p):
    with pytest.raises(InvalidParams, match="^the mean-field cubic leaves the double range"):
        photon_number_branches(p)


@pytest.mark.parametrize(
    "p",
    [
        # Cardano divides by the leading coefficient 16 chi^2 = 1.6e-219
        ModelParams(delta_c=1.0, chi=1e-110, omega=1.0, gamma=1.0),
        ModelParams(delta_c=1.0, chi=-1e-110, omega=1.0, gamma=1.0),
        # in u = 4 chi n, Cardano's root is off by about 1e-16 absolute,
        # which Newton steps must remove down to u ~ 1e-111
        ModelParams(delta_c=-2.0, chi=1e-110, omega=1.0, gamma=0.25),
        ModelParams(delta_c=-2.0, chi=-1e-110, omega=1.0, gamma=0.25),
        # a representable root n = 4e200 whose square and cube are not
        ModelParams(delta_c=0.0, chi=0.0, omega=1.0, gamma=1e-100),
    ],
    ids=["tiny-chi", "tiny-negative-chi", "tiny-chi-far-detuned", "tiny-negative-chi-far-detuned",
         "huge-root"],
)
def test_badly_scaled_cubic_keeps_its_root(p):
    (branch,) = photon_number_branches(p)
    # chi n is negligible against delta_c: the Lorentzian of the linear cavity
    lorentzian = 4.0 * p.omega**2 / (4.0 * p.delta_c**2 + p.gamma**2)
    assert branch.n == pytest.approx(lorentzian, rel=1e-12)
    assert branch.stable and not branch.degenerate


def upper_fold(p):
    """The drive at which p's lower and middle branches merge, and their n there.

    Divided by 16 chi^2 and shifted by t = n + b1/3, b1 = delta_c / chi, the
    cubic is t^3 + P t + Q with Q = Q0 - omega^2 / (4 chi^2).  At Q = -2 s^3,
    s = sqrt(-P/3), its discriminant -4 P^3 - 27 Q^2 vanishes and it
    factors as (t + s)^2 (t - 2 s).
    """
    b1 = p.delta_c / p.chi
    c1 = (4.0 * p.delta_c**2 + p.gamma**2) / (16.0 * p.chi**2)
    s = math.sqrt(b1 * b1 / 9.0 - c1 / 3.0)
    q0 = 2.0 * b1**3 / 27.0 - b1 * c1 / 3.0
    return math.sqrt((q0 + 2.0 * s**3) * 4.0 * p.chi**2), -b1 / 3.0 - s


def test_cardano_double_root():
    # (n - 2)^2 (n + 1): the depressed form has P = -3, Q = 2, a discriminant of exactly 0
    assert _cardano_real_roots(1.0, -3.0, 0.0, 4.0) == [-1.0, 2.0]


def test_branches_at_a_fold_are_degenerate():
    omega, n_fold = upper_fold(drive_family(0.0))
    # a few ulps inside the window: the lower and middle branches 1e-8 apart
    inside = omega * (1.0 - 4e-16)
    lower, middle, upper = photon_number_branches(drive_family(inside))
    assert lower.degenerate and middle.degenerate and not upper.degenerate
    assert lower.n == pytest.approx(n_fold, rel=1e-7)
    assert middle.n == pytest.approx(n_fold, rel=1e-7)


def test_lower_fold_drive_keeps_cardano_double_root(refs):
    # The cubic's discriminant rounds to exactly 0 at this drive, so Cardano
    # returns the lower fold's double root; Newton steps leave it (f' ~ 0
    # there) for n = 9.71, off the cubic, and the unpolished root is kept.
    fold = min(refs["fold_points"], key=lambda point: point["omega"])
    p = drive_family(1.5791511621975771)
    lower, merged = photon_number_branches(p)
    assert merged.n == pytest.approx(fold["n"], rel=1e-7)
    assert abs(cubic_residual(merged.n, p)) <= 1e-12 * 4.0 * p.omega**2
    assert lower.stable and not merged.stable
    assert lower.n == pytest.approx(min(companion_roots(p)), rel=ROOT_RTOL)


@pytest.mark.parametrize("fold", [0, 1], ids=["lower-fold", "upper-fold"])
def test_three_branches_near_a_fold_have_the_middle_one_unstable(refs, fold):
    # The Jacobian determinant is d(omega^2)/dn: negative at the middle of
    # three roots, positive at the outer two.  Inside a fold's degenerate
    # band the eigenvalues' signs are roundoff; 4 ulps above the lower fold
    # (omega = 1.5791511621975785) both merging branches have real parts
    # near -3e-7.
    omega = sorted(point["omega"] for point in refs["fold_points"])[fold]
    drives = [omega]
    for direction in (-math.inf, math.inf):
        w = omega
        for _ in range(40):
            w = math.nextafter(w, direction)
            drives.append(w)
    in_band = 0
    for w in drives:
        branches = photon_number_branches(drive_family(w))
        if len(branches) == 3:
            in_band += any(b.degenerate for b in branches)
            assert [b.stable for b in branches] == [True, False, True], w
    assert in_band


sampled_params = st.builds(
    ModelParams,
    delta_c=st.floats(min_value=-10.0, max_value=10.0),
    chi=st.floats(min_value=-2.0, max_value=2.0).filter(lambda c: abs(c) > 1e-3),
    omega=st.floats(min_value=0.0, max_value=10.0),
    gamma=st.floats(min_value=0.05, max_value=4.0),
)


class TestAgainstCompanionOracle:
    @given(p=sampled_params)
    def test_roots_match(self, p):
        got = [b.n for b in photon_number_branches(p)]
        want = companion_roots(p)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-9, abs=1e-12)

    @given(p=sampled_params)
    def test_residual_and_count_parity(self, p):
        branches = photon_number_branches(p)
        degenerate = any(b.degenerate for b in branches)
        if not degenerate:
            assert len(branches) in (1, 3)
        for b in branches:
            assert abs(cubic_residual(b.n, p)) <= 1e-9 * max(1.0, 4.0 * p.omega**2)

    @given(
        delta_c=st.floats(min_value=0.3, max_value=10.0),
        chi=st.floats(min_value=0.05, max_value=2.0),
        omega=st.floats(min_value=0.0, max_value=10.0),
        gamma=st.floats(min_value=0.05, max_value=4.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_matched_signs_never_bistable(self, delta_c, chi, omega, gamma, sign):
        p = ModelParams(
            delta_c=sign * delta_c, chi=sign * chi, omega=omega, gamma=gamma
        )
        assert len(photon_number_branches(p)) == 1


class TestStability:
    @given(p=sampled_params)
    def test_closed_form_matches_jacobian_eigvals(self, p):
        for b in photon_number_branches(p):
            ev, stable = jacobian_eigvals(b, p)
            scale = max(p.gamma, abs(p.delta_c + 4.0 * p.chi * b.n), abs(p.chi) * max(b.n, 1.0))
            (g0, g1), (w0, w1) = b.eigenvalues, ev
            # the eigenvalues pair up in one order or the other
            gap = min(max(abs(g0 - w0), abs(g1 - w1)), max(abs(g0 - w1), abs(g1 - w0)))
            assert gap <= 1e-10 * scale
            assert b.stable is stable

    def test_vacuum_eigenvalues(self):
        p = ModelParams(delta_c=3.0, chi=-0.5, omega=0.0, gamma=0.8)
        (b,) = photon_number_branches(p)
        assert b.stable
        got = sorted(ev.imag for ev in b.eigenvalues)
        assert got == pytest.approx([-3.0, 3.0], rel=1e-12)
        for ev in b.eigenvalues:
            assert ev.real == pytest.approx(-0.4, rel=1e-12)

    def test_middle_branch_unstable_in_bistable_region(self):
        p = drive_family(4.0)
        assert [b.stable for b in photon_number_branches(p)] == [True, False, True]

    def test_single_branch_agrees_with_time_stepper(self):
        p = drive_family(0.8)
        (branch,) = photon_number_branches(p)
        assert branch.stable

        def rhs(a):
            return -(1j * (p.delta_c + 2.0 * p.chi * abs(a) ** 2) + p.gamma / 2.0) * a + p.omega

        a = branch.a0 * 1.05 + 0.01j
        dt = 0.01
        for _ in range(8000):
            k1 = rhs(a)
            k2 = rhs(a + 0.5 * dt * k1)
            k3 = rhs(a + 0.5 * dt * k2)
            k4 = rhs(a + dt * k3)
            a = a + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        assert abs(a - branch.a0) < 1e-8


def branch_counts(capsys, start, stop, step):
    """(omega, branch count) per grid point of meanfield-sweep on drive_family, in grid order."""
    code = main(["meanfield-sweep", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1",
                 "--omega-from", str(start), "--omega-to", str(stop), "--omega-step", str(step)])
    out = capsys.readouterr().out
    assert code == 0
    # one row per branch, a point's rows adjacent: Counter keeps grid order
    return list(Counter(float(line.split(",")[0]) for line in out.splitlines()[2:]).items())


class TestSweep:
    """The drive sweep as it ships: meanfield-sweep, run in-process."""

    def test_single_point_grid(self, capsys):
        assert branch_counts(capsys, 0, 0, 1) == [(0.0, 1)]
        (branch,) = drive_point_branches(drive_family(0.0), 0.0)
        assert branch.n == 0.0

    def test_branch_count_profile(self, capsys):
        counts = [c for _, c in branch_counts(capsys, 0, 8, 0.05)]
        assert len(counts) == 161
        assert [c for c, _ in itertools.groupby(counts)] == [1, 3, 1]

    def test_window_endpoints_match_frozen_folds(self, capsys, refs):
        three = [om for om, c in branch_counts(capsys, 0, 8, 0.05) if c == 3]
        assert three
        folds = [f["omega"] for f in refs["fold_points"]]
        assert abs(min(three) - min(folds)) <= 0.05 + 1e-12
        assert abs(max(three) - max(folds)) <= 0.05 + 1e-12

    def test_statelessness_under_concatenation(self, capsys):
        # a point's rows depend on its drive alone, not on the grid around it
        def table(start, stop):
            assert main(["meanfield-sweep", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1",
                         "--omega-from", start, "--omega-to", stop, "--omega-step", "0.5"]) == 0
            return capsys.readouterr().out.splitlines()[2:]

        joint = table("0.5", "7")
        split = table("0.5", "3.5") + table("4", "7")
        assert len({line.split(",")[0] for line in joint}) == 14
        assert joint == split

    @pytest.mark.parametrize("bound", ["nan", "inf"])
    def test_invalid_grid_rejected(self, capsys, bound):
        code = main(["meanfield-sweep", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1",
                     "--omega-from", "0", "--omega-to", bound, "--omega-step", "0.5"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: omega grid bounds must be finite\n"

    def test_non_numeric_grid_entry_rejected(self, capsys):
        # argparse refuses the bound before any point is solved
        with pytest.raises(SystemExit) as exc:
            main(["meanfield-sweep", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1",
                  "--omega-from", "0", "--omega-to", "abc", "--omega-step", "0.5"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "--omega-to: invalid float value: 'abc'" in err

    def test_invalid_drive_rejected(self):
        with pytest.raises(InvalidParams):
            drive_point_branches(drive_family(0.0), -1.0)
        with pytest.raises(InvalidParams):
            drive_point_branches(drive_family(0.0), float("nan"))

    @pytest.mark.parametrize("omega", [True, "2.0"])
    def test_non_numeric_drive_rejected(self, omega):
        # a bool or str drive must not run as 1.0 or 2.0
        with pytest.raises(InvalidParams):
            drive_point_branches(drive_family(0.0), omega)
