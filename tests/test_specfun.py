"""Special-function layer: log-gamma, Pochhammer, hypergeometric sums.

The heavy lifting is the comparison against frozen high-precision values
(tests/data) plus brute-force partial sums recomputed here with plain
complex arithmetic, independent of the library code paths.
"""

import cmath
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrsteady.errors import DenominatorPole, InvalidParams, KerrSteadyError, PoleError
from kerrsteady.specfun import (
    hyp0f2,
    hyp0f2_ratio,
    hyp2f1_terminating,
    log_gamma,
    pochhammer,
)

from conftest import DATA_DIR, as_complex

TWO_PI = 2.0 * math.pi

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def brute_hyp0f2(b1, b2, z, terms=50):
    """Direct partial sum, no recurrences shared with the library."""
    total = 0j
    for m in range(terms):
        num = z**m
        den = math.factorial(m)
        for j in range(m):
            num /= (b1 + j) * (b2 + j)
        total += num / den
    return total


def brute_hyp2f1(m, y, z):
    """Term-by-term product form of the terminating Gauss sum.

    Runs in plain doubles, so its own error grows with the absolute term
    mass; the mass is returned so callers can budget for that.
    """
    total = 0j
    mass = 0.0
    for n in range(m + 1):
        term = 2.0**n / math.factorial(n)
        for j in range(n):
            term *= (-m + j) * (y + j) / (z + j)
        total += term
        mass += abs(term)
    return total, mass


class TestLogGamma:
    def test_frozen_grid(self, log_gamma_grid):
        worst = 0.0
        for z_re, z_im, lg_re, lg_im in log_gamma_grid:
            got = log_gamma(complex(z_re, z_im))
            ref = complex(lg_re, lg_im)
            worst = max(worst, abs(got - ref) / abs(ref))
        assert worst <= 1e-13

    def test_real_positive_matches_lgamma(self):
        for x in (0.5, 1.5, 3.25, 10.0, 47.0, 120.5):
            assert log_gamma(x).imag == pytest.approx(0.0, abs=1e-14)
            assert log_gamma(x).real == pytest.approx(math.lgamma(x), rel=1e-14)

    @given(
        re=st.floats(min_value=-40.0, max_value=60.0),
        im=st.floats(min_value=0.05, max_value=60.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_recurrence(self, re, im, sign):
        z = complex(re, sign * im)
        if not 0.5 <= abs(z) <= 100.0:
            return
        residual = log_gamma(z + 1) - log_gamma(z) - cmath.log(z)
        # the identity holds modulo full turns of the imaginary part
        turns = residual.imag / TWO_PI
        assert abs(residual.real) < 1e-12
        assert abs(turns - round(turns)) < 1e-12 / TWO_PI * 10

    @given(
        re=st.floats(min_value=-20.0, max_value=40.0),
        im=st.floats(min_value=0.05, max_value=40.0),
    )
    def test_conjugation_symmetry(self, re, im):
        if abs(re - round(re)) < 1e-6 and round(re) <= 0:
            return
        z = complex(re, im)
        assert log_gamma(z.conjugate()) == log_gamma(z).conjugate()

    def test_pole_rejection(self):
        for bad in (0.0, -1.0, -7.0, complex(-3.0, 1e-13)):
            with pytest.raises(PoleError):
                log_gamma(bad)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParams):
            log_gamma(complex(math.inf, 0.0))


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(1.7 - 0.3j, 0) == 1.0 + 0j

    def test_rising_factorial_of_one(self):
        assert pochhammer(1.0, 5) == 120.0 + 0j

    def test_gamma_ratio_crosscheck(self, refs):
        blob = refs["pochhammer_example"]
        x = as_complex(blob["x"])
        got = pochhammer(x, blob["m"])
        assert got == pytest.approx(as_complex(blob["value"]), rel=1e-12)
        # same quantity through the log-gamma route, away from poles
        via_gamma = cmath.exp(log_gamma(x + blob["m"]) - log_gamma(x))
        assert got == pytest.approx(via_gamma, rel=1e-12)

    def test_finite_at_negative_integer(self):
        # the direct product has no pole; it just hits an exact zero
        assert pochhammer(-3.0, 5) == 0.0 + 0j
        assert pochhammer(-3.0, 3) == pytest.approx(-6.0, rel=1e-15)

    @given(
        x=st.tuples(finite_floats, finite_floats).map(lambda t: complex(*t)),
        m=st.integers(min_value=0, max_value=99),
    )
    def test_recurrence(self, x, m):
        left = pochhammer(x, m + 1)
        right = pochhammer(x, m) * (x + m)
        assert left == pytest.approx(right, rel=1e-12, abs=1e-280)

    @pytest.mark.parametrize("order", [-1, True, False])
    def test_rejects_bad_order(self, order):
        # bool is an int subclass; True must not run as order 1
        with pytest.raises(InvalidParams):
            pochhammer(1.0, order)


class TestHyp0F2:
    def test_zero_argument(self):
        out = hyp0f2(2.0, 3.0, 0.0)
        assert out.value == 1.0 + 0j
        assert out.terms_used == 1
        assert out.converged

    def test_simple_frozen_point(self, refs):
        ref = as_complex(refs["hyp0f2_reference"]["simple_231"])
        assert hyp0f2(2.0, 3.0, 1.0).value == pytest.approx(ref, rel=1e-14)

    def test_drive_family_frozen_point(self, refs):
        blob = refs["hyp0f2_reference"]
        x = as_complex(blob["x"])
        got = hyp0f2(x.conjugate(), x, blob["z"])
        assert got.converged
        assert got.value == pytest.approx(as_complex(blob["base"]), rel=1e-12)
        shifted = hyp0f2(x.conjugate() + 1, x + 1, blob["z"])
        assert shifted.value == pytest.approx(as_complex(blob["shifted_11"]), rel=1e-12)

    def test_argument_swap_symmetry(self):
        a, b, z = 1.3 - 0.2j, 0.7 + 2.0j, 4.0 + 1.0j
        assert hyp0f2(a, b, z).value == hyp0f2(b, a, z).value

    @given(
        b1=st.floats(min_value=0.3, max_value=8.0),
        b2=st.floats(min_value=0.3, max_value=8.0),
        zr=st.floats(min_value=-4.0, max_value=4.0),
        zi=st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_matches_brute_force(self, b1, b2, zr, zi):
        z = complex(zr, zi)
        got = hyp0f2(b1, b2, z).value
        ref = brute_hyp0f2(b1, b2, z)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_tail_ratio_below_one_past_termination(self):
        b1, b2, z = 1.5 + 0.5j, 2.5, 30.0 + 10.0j
        out = hyp0f2(b1, b2, z)
        assert out.converged
        t = out.terms_used
        ratio = abs(z) / abs((b1 + t) * (b2 + t) * (t + 1))
        assert ratio < 1.0

    def test_near_pole_parameter_rejected(self):
        with pytest.raises(DenominatorPole):
            hyp0f2(-2.0 + 1e-13j, 3.0, 1.0)

    def test_ratio_agrees_with_direct_quotient(self):
        x = -20.0 + 2.0j
        direct = hyp0f2(x.conjugate() + 1, x + 1, 512.0).value / hyp0f2(
            x.conjugate(), x, 512.0
        ).value
        joint = hyp0f2_ratio(x.conjugate() + 1, x + 1, x.conjugate(), x, 512.0)
        assert joint == pytest.approx(direct, rel=1e-12)


class TestHyp2F1Terminating:
    def test_order_zero(self):
        assert hyp2f1_terminating(0, 0.3 + 1j, 2.0 - 1j) == 1.0 + 0j

    def test_order_one(self):
        y, z = 0.8 - 0.1j, -1.5 + 0.4j
        got = hyp2f1_terminating(1, y, z)
        assert got == pytest.approx(1.0 - 2.0 * y / z, rel=1e-15)

    def test_frozen_order_twelve(self, refs):
        y = as_complex(refs["twophoton_derived"]["y"])
        z = as_complex(refs["twophoton_derived"]["z"])
        got = hyp2f1_terminating(12, y, z)
        assert got == pytest.approx(as_complex(refs["hyp2f1_m12"]), rel=1e-10)

    @given(
        m=st.integers(min_value=0, max_value=30),
        yr=st.floats(min_value=-2.0, max_value=2.0),
        yi=st.floats(min_value=-2.0, max_value=-0.01),
    )
    def test_binomial_collapse_when_y_equals_z(self, m, yr, yi):
        y = complex(yr, yi)
        got = hyp2f1_terminating(m, y, y)
        assert got == pytest.approx((-1.0) ** m, rel=1e-12, abs=1e-12)

    @given(
        m=st.integers(min_value=0, max_value=22),
        yr=st.floats(min_value=-3.0, max_value=3.0),
        yi=st.floats(min_value=-2.0, max_value=2.0),
        zr=st.floats(min_value=-3.0, max_value=3.0),
        zi=st.floats(min_value=0.02, max_value=2.0),
    )
    def test_matches_brute_force(self, m, yr, yi, zr, zi):
        y, z = complex(yr, yi), complex(zr, zi)
        got = hyp2f1_terminating(m, y, z)
        ref, mass = brute_hyp2f1(m, y, z)
        # the double-precision brute force is the less accurate side once
        # the alternating terms grow, so its mass sets the error budget
        assert abs(got - ref) <= 1e-13 * mass + 1e-10 * abs(got) + 1e-13

    @pytest.mark.parametrize("m", [3, 4, 7])
    def test_collapse_beside_pole_takes_pfaff_partner(self, m):
        # y = z within the pole guard of -2 skips both connection forms;
        # the argument-2 Pfaff partner 2F1(-m, 0; z; 2) = 1 gives (-1)^m
        z = complex(-2.0, 1e-13)
        assert hyp2f1_terminating(m, z, z) == pytest.approx((-1.0) ** m, abs=1e-12)

    def test_pole_in_z_rejected(self):
        with pytest.raises(DenominatorPole):
            hyp2f1_terminating(5, 1.0 + 1j, -2.0)

    def test_gauss_sums_within_bound_of_references(self):
        """Every value within its error bound of a 60-digit reference.

        gauss_sum_refs.json holds, for each (y, z) case and order m, the
        real and imaginary parts of 2F1(-m, y; z; 2) to 60 digits and
        mass_min, the least term mass of the four forms the kernel may
        sum; or the class name of the refusal.  The standalone mpmath
        script tests/data/make_gauss_sum_refs.py writes it by summing the
        exact terms at 60 digits plus the digits their cancellation
        costs, and checks them against the connection and Pfaff forms.
        The bound is 2 (m+1) 2^-52 mass_min.  The cases: m = 0..70 at the
        (y, z) of the resonance-scan family (chi = 1, gamma = 0.1,
        lambda = 0.2, kappa = 0.1, omega 0.1 and 0, delta/chi = -4.5,
        -4.0, ..., 0.5 plus four seeded uniform draws from that range);
        y = z; real y and z, some with -0.0 imaginary parts; z 1e-9 from
        the pole at -3; z = -2, which refuses with DenominatorPole from
        m = 3; twelve seeded random (y, z); the strong-pump point
        (delta=-2, chi=0.05, omega=1, gamma=1, lambda=1, kappa=0.02) for
        m = 0..328; and y = z at m = 640..650.
        """
        with open(DATA_DIR / "gauss_sum_refs.json") as fh:
            cases = json.load(fh)["cases"]
        mismatches = []
        for case in cases:
            y = complex(*map(float.fromhex, case["y"]))
            z = complex(*map(float.fromhex, case["z"]))
            for m, want in zip(range(case["m_from"], case["m_to"] + 1), case["values"]):
                try:
                    got = hyp2f1_terminating(m, y, z)
                except KerrSteadyError as exc:
                    got = type(exc).__name__
                if isinstance(want, str) or isinstance(got, str):
                    if got != want:
                        mismatches.append((case["label"], m, got, want))
                    continue
                ref = complex(float(want[0]), float(want[1]))
                bound = 2.0 * (m + 1) * 2.0**-52 * float(want[2])
                if not abs(got - ref) <= bound:
                    mismatches.append((case["label"], m, got, ref, bound))
        assert not mismatches, mismatches[:5]

    @pytest.mark.parametrize("order", [-1, True, False])
    def test_rejects_bad_order(self, order):
        with pytest.raises(InvalidParams):
            hyp2f1_terminating(order, 1.0, 1.0)
