"""Special-function layer: Pochhammer, hypergeometric sums.

The heavy lifting is the comparison against frozen high-precision values
(tests/data) plus brute-force partial sums recomputed here with plain
complex arithmetic, independent of the library code paths.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrsteady.errors import DenominatorPole, InvalidParams, KerrSteadyError, NonConvergence
from kerrsteady import specfun
from kerrsteady.specfun import (_CONSECUTIVE_SMALL, _TAIL_TOL, _conjugate_hyp0f2, _gauss_sum_walk,
                                _tail_run, hyp0f2_ratio, pochhammer)

from conftest import DATA_DIR, as_complex, gauss_sum

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

    @pytest.mark.parametrize("order", [-1, True, False, 2.0, "2"])
    def test_rejects_bad_order(self, order):
        # bool is an int subclass; True must not run as order 1
        with pytest.raises(InvalidParams):
            pochhammer(1.0, order)


class TestHyp0F2:
    """The coherent-drive norm 0F2(; conj(x), x; w), a sum of real positive terms."""

    def test_zero_argument(self):
        assert _conjugate_hyp0f2(2.0 - 0.5j, 0.0) == 1.0

    def test_drive_family_frozen_point(self, refs):
        blob = refs["hyp0f2_reference"]
        x = as_complex(blob["x"])
        got = _conjugate_hyp0f2(x, blob["z"])
        assert got == pytest.approx(as_complex(blob["base"]).real, rel=1e-12)
        shifted = _conjugate_hyp0f2(x + 1, blob["z"])
        assert shifted == pytest.approx(as_complex(blob["shifted_11"]).real, rel=1e-12)

    @given(
        xr=st.floats(min_value=0.3, max_value=8.0),
        xi=st.floats(min_value=-4.0, max_value=4.0),
        w=st.floats(min_value=0.0, max_value=8.0),
    )
    def test_matches_brute_force(self, xr, xi, w):
        x = complex(xr, xi)
        ref = brute_hyp0f2(x.conjugate(), x, w)
        assert _conjugate_hyp0f2(x, w) == pytest.approx(ref.real, rel=1e-12)
        assert abs(ref.imag) <= 1e-12 * ref.real

    def test_near_pole_parameter_rejected(self):
        with pytest.raises(DenominatorPole):
            _conjugate_hyp0f2(-2.0 + 1e-13j, 1.0)

    def test_overflow_refused(self):
        with pytest.raises(NonConvergence, match="double range"):
            _conjugate_hyp0f2(1.0, 1e300)

    def test_ratio_past_the_double_range(self):
        # both series pass 1e600, so the ratio needs the joint rescaling
        x, z = 3.0 + 2.0j, 1e8

        def log_sum(shift):
            # log of sum_m z^m / (m! |(x + shift)_m|^2), every term positive
            logs = [0.0]
            for m in range(1, 3000):
                logs.append(logs[-1] + math.log(z / (m * abs(x + shift + m - 1) ** 2)))
            top = max(logs)
            return top + math.log(math.fsum(math.exp(t - top) for t in logs))

        want = math.exp(log_sum(1) - log_sum(0))
        got = hyp0f2_ratio(x.conjugate() + 1, x + 1, x.conjugate(), x, z)
        assert abs(got.imag) <= 1e-12 * got.real
        assert got.real == pytest.approx(want, rel=1e-10)

    def test_ratio_agrees_with_direct_quotient(self):
        x = -20.0 + 2.0j
        direct = _conjugate_hyp0f2(x + 1, 512.0) / _conjugate_hyp0f2(x, 512.0)
        joint = hyp0f2_ratio(x.conjugate() + 1, x + 1, x.conjugate(), x, 512.0)
        assert joint == pytest.approx(direct, rel=1e-12)


class TestTailRun:
    """The one predicate every series and the amplitude ladder stop by."""

    def test_counts_a_term_at_the_threshold_and_resets_above_it(self):
        assert _tail_run(2, 1.0, 4.0, 0.25) == 3
        assert _tail_run(2, math.nextafter(1.0, 2.0), 4.0, 0.25) == 0
        assert _tail_run(0, 0.0, 1.0, 0.0) == 1

    @pytest.mark.parametrize("series", [
        lambda: _conjugate_hyp0f2(2.0 - 0.5j, 0.0),
        lambda: hyp0f2_ratio(1.5, 2.5, 0.5j, 3.0, 0.0),
    ], ids=["norm", "ratio"])
    def test_series_stop_at_the_fifth_small_term(self, monkeypatch, series):
        # at z = 0 every term after the first is zero, so each one is small
        runs = []

        def recording(run, term, total, tol):
            assert tol == _TAIL_TOL
            runs.append(_tail_run(run, term, total, tol))
            return runs[-1]

        monkeypatch.setattr(specfun, "_tail_run", recording)
        assert series() == 1.0
        assert runs == [1, 2, 3, 4, 5] and _CONSECUTIVE_SMALL == 5


class TestGaussSums:
    def test_order_zero(self):
        assert gauss_sum(0, 0.3 + 1j, 2.0 - 1j) == 1.0 + 0j

    def test_order_one(self):
        y, z = 0.8 - 0.1j, -1.5 + 0.4j
        got = gauss_sum(1, y, z)
        assert got == pytest.approx(1.0 - 2.0 * y / z, rel=1e-15)

    def test_frozen_order_twelve(self, refs):
        y = as_complex(refs["twophoton_derived"]["y"])
        z = as_complex(refs["twophoton_derived"]["z"])
        got = gauss_sum(12, y, z)
        assert got == pytest.approx(as_complex(refs["hyp2f1_m12"]), rel=1e-10)

    @given(
        m=st.integers(min_value=0, max_value=30),
        yr=st.floats(min_value=-2.0, max_value=2.0),
        yi=st.floats(min_value=-2.0, max_value=-0.01),
    )
    def test_binomial_collapse_when_y_equals_z(self, m, yr, yi):
        y = complex(yr, yi)
        got = gauss_sum(m, y, y)
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
        got = gauss_sum(m, y, z)
        ref, mass = brute_hyp2f1(m, y, z)
        # the double-precision brute force is the less accurate side once
        # the alternating terms grow, so its mass sets the error budget
        assert abs(got - ref) <= 1e-13 * mass + 1e-10 * abs(got) + 1e-13

    @pytest.mark.parametrize("m", [3, 4, 7])
    def test_collapse_beside_pole_takes_pfaff_partner(self, m):
        # y = z within the pole guard of -2 skips both connection forms;
        # the argument-2 Pfaff partner 2F1(-m, 0; z; 2) = 1 gives (-1)^m
        z = complex(-2.0, 1e-13)
        assert gauss_sum(m, z, z) == pytest.approx((-1.0) ** m, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 7, 15, 31])
    def test_odd_orders_carry_unrounded_asymmetry(self, m):
        # y = z/2 + a with a = 1e-9: forming y rounds a to 8e-8 relative,
        # and odd orders are O(a), so only the asym argument recovers
        # them.  The reference sums the exact rationals.
        z, a = -2.3, 1e-9
        z_exact = Fraction(z)
        y_exact = z_exact / 2 + Fraction(a)
        ref, term = Fraction(0), Fraction(1)
        for n in range(m + 1):
            ref += term
            term *= 2 * (n - m) * (y_exact + n) / ((z_exact + n) * (n + 1))
        ref = float(ref)
        y = z / 2 + a
        assert abs(gauss_sum(m, y, z, a) - ref) <= 1e-14 * abs(ref)
        assert abs(gauss_sum(m, y, z) - ref) > 1e-9 * abs(ref)

    def test_pole_in_z_rejected(self):
        with pytest.raises(DenominatorPole):
            gauss_sum(5, 1.0 + 1j, -2.0)

    def test_pole_refusal_ends_the_walk(self):
        # (z)_3 = z (z+1) (z+2) vanishes at z = -2: orders 0 to 2 are
        # yielded, order 3 is refused, and nothing follows
        sums = _gauss_sum_walk(1.0, -2.0, top=5)
        assert [next(sums)[1] for _ in range(3)] == [1.0, 2.0, 7.0]
        with pytest.raises(DenominatorPole, match=r"\(z\)_3 vanished or underflowed"):
            next(sums)
        with pytest.raises(StopIteration):
            next(sums)

    @pytest.mark.parametrize("top, asym, orders", [
        (43, None, range(0)), (44, None, range(24, 45)), (101, 0.0, range(24, 102, 2))])
    def test_block_orders(self, monkeypatch, top, asym, orders):
        # the numpy blocks sum orders from 24 on in walks to 44 or further, and
        # at d = 2 asym = 0 only the even ones: the odd ones are exact zeros
        seen = []
        kernel = specfun._connection_blocks

        def recorded(y, w, orders):
            seen.append(orders)
            return kernel(y, w, orders)

        monkeypatch.setattr(specfun, "_connection_blocks", recorded)
        pairs = list(_gauss_sum_walk(0.3 + 0.2j, 1.5 - 0.5j, asym, top=top))
        assert seen == [orders] and len(pairs) == top + 1

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
            # one walk per case; a refusal ends it, so later orders refuse too
            sums = (value for _, value in _gauss_sum_walk(y, z, top=case["m_to"]))
            got = None
            for m in range(case["m_to"] + 1):
                if not isinstance(got, str):
                    try:
                        got = next(sums)
                    except KerrSteadyError as exc:
                        got = type(exc).__name__
                if m < case["m_from"]:
                    continue
                want = case["values"][m - case["m_from"]]
                if isinstance(want, str) or isinstance(got, str):
                    if got != want:
                        mismatches.append((case["label"], m, got, want))
                    continue
                ref = complex(float(want[0]), float(want[1]))
                bound = 2.0 * (m + 1) * 2.0**-52 * float(want[2])
                if not abs(got - ref) <= bound:
                    mismatches.append((case["label"], m, got, ref, bound))
        assert not mismatches, mismatches[:5]


@pytest.mark.parametrize(
    "call",
    [
        lambda: pochhammer(complex(math.inf, 0.0), 3),
        lambda: hyp0f2_ratio(1.0, 2.0, 1.5, math.inf, 1.0),
        lambda: next(_gauss_sum_walk(0.5, 2.0, complex(0.0, math.inf), top=0)),
    ],
    ids=["pochhammer", "hyp0f2_ratio", "gauss_sums_asym"],
)
def test_rejects_nonfinite_arguments(call):
    with pytest.raises(InvalidParams):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: pochhammer("1", 3),
        lambda: pochhammer(True, 3),
        lambda: hyp0f2_ratio("1", 1, 1, 1, 0.5),
        lambda: hyp0f2_ratio(2.0, 1.0, 1.0, 1.0, False),
        lambda: next(_gauss_sum_walk("0.5", 1.5, top=0)),
        lambda: next(_gauss_sum_walk(0.5, True, top=0)),
        lambda: next(_gauss_sum_walk(0.5, 1.5, asym=True, top=0)),
    ],
    ids=["pochhammer-str", "pochhammer-bool", "hyp0f2_ratio-str", "hyp0f2_ratio-bool",
         "gauss_sums-str", "gauss_sums-bool", "gauss_sums-asym-bool"],
)
def test_rejects_bool_and_str_numbers(call):
    # model's number rule: a bool or str never runs as a number
    with pytest.raises(InvalidParams):
        call()


def test_numpy_numbers_pass_as_python_numbers():
    assert pochhammer(0.5, np.int64(2)) == pochhammer(0.5, 2)
    assert gauss_sum(4, np.float64(0.5), np.complex128(1.5 + 0.25j)) \
        == gauss_sum(4, 0.5, 1.5 + 0.25j)
    assert hyp0f2_ratio(np.float64(2.5), 2.0, 1.5, np.int64(1), 0.75) \
        == hyp0f2_ratio(2.5, 2.0, 1.5, 1, 0.75)
