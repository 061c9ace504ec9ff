"""Closed-form steady state with a two-photon pump and two-photon loss.

The polynomial closed form and the three-term recursion are independent
routes to the same amplitude sequence; most tests here pit them against
each other, against the square-root branch ambiguity of the displacement
scale, and against the Lindblad oracle.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kerrsteady import exact_twophoton
from kerrsteady.cli import main
from kerrsteady.errors import CrossCheckFailure, InvalidParams, UnsupportedModel
from kerrsteady.exact_linear import correlation_linear, wavefunction_linear
from kerrsteady.exact_twophoton import (
    correlation_twophoton,
    resonance_predictions,
    scan_point,
    strict_local_maxima,
    wavefunction_twophoton,
    wavefunction_via_three_term,
)
from kerrsteady.lindblad_oracle import (
    adaptive_cutoff,
    build_liouvillian,
    correlation_from_rho,
    steady_state,
)
from kerrsteady.model import ModelParams, derive_twophoton

from conftest import gauss_sum

twophoton_sampled = st.builds(
    ModelParams,
    delta_c=st.floats(min_value=-6.0, max_value=2.0),
    chi=st.floats(min_value=0.25, max_value=2.0),
    omega=st.floats(min_value=0.0, max_value=1.0),
    gamma=st.floats(min_value=0.02, max_value=0.5),
    lambda_2ph=st.complex_numbers(
        min_magnitude=0.01, max_magnitude=0.5, allow_nan=False, allow_infinity=False
    ),
    kappa=st.floats(min_value=0.0, max_value=0.5),
)

# Small nonzero drives, where the odd Gauss sums are O(omega): y - z/2 is
# rounded away when y is formed, so these need the unrounded asymmetry.
small_drive_points = [
    ModelParams(delta_c=0.0, chi=chi, omega=1e-8, gamma=gamma, lambda_2ph=lam)
    for chi, gamma, lam in ((0.5, 0.5, 0.5), (2.0, 0.5, 0.5), (0.25, 0.375, 0.1875))
]


def small_drive_examples(**other):
    def decorate(test):
        for p in small_drive_points:
            test = example(p=p, **other)(test)
        return test

    return decorate


class TestWavefunctionRoutes:
    def test_frozen_photon_numbers(self, refs, twophoton_params):
        blob = refs["twophoton_reference_omega01"]
        assert correlation_twophoton(twophoton_params, 1, 1).value.real == pytest.approx(
            blob["n"], rel=1e-12
        )
        undriven = twophoton_params.replace(omega=0.0)
        blob0 = refs["twophoton_reference_omega0"]
        assert correlation_twophoton(undriven, 1, 1).value.real == pytest.approx(
            blob0["n"], rel=1e-12
        )

    def test_frozen_g2(self, refs, twophoton_params):
        n, g2 = scan_point(twophoton_params, twophoton_params.delta_c)
        assert g2 == pytest.approx(refs["twophoton_reference_omega01"]["g2"], rel=1e-12)
        n0, g20 = scan_point(
            twophoton_params.replace(omega=0.0), twophoton_params.delta_c
        )
        assert g20 == pytest.approx(refs["twophoton_reference_omega0"]["g2"], rel=1e-12)

    def test_scan_point_g2_is_nan_where_n_squared_underflows(self):
        # n is about 1e-180 here, so n**2 underflows to zero: g2 has no value
        p = ModelParams(delta_c=0.0, chi=1.0, omega=0.0, gamma=1.0, lambda_2ph=1e-90)
        n, g2 = scan_point(p, 0.0)
        assert 0.0 < n < 1e-170 and n**2 == 0.0
        assert math.isnan(g2)

    @pytest.mark.parametrize("delta_c", [True, "-1.0"])
    def test_scan_point_refuses_non_numeric_detuning(self, twophoton_params, delta_c):
        with pytest.raises(InvalidParams):
            scan_point(twophoton_params, delta_c)

    def test_undriven_recursion_kills_odd_levels(self, twophoton_params):
        wf = wavefunction_via_three_term(twophoton_params.replace(omega=0.0))
        for m in range(1, wf.truncation + 1, 2):
            assert wf.amplitudes[m] == 0j

    def test_undriven_closed_form_odd_levels_negligible(self, twophoton_params):
        wf = wavefunction_twophoton(twophoton_params.replace(omega=0.0))
        peak = np.max(np.abs(wf.amplitudes))
        for m in range(1, wf.truncation + 1, 2):
            assert abs(wf.amplitudes[m]) <= 1e-13 * peak

    def test_routes_agree_elementwise(self, twophoton_params):
        closed = wavefunction_twophoton(twophoton_params)
        recur = wavefunction_via_three_term(
            twophoton_params, truncation=closed.truncation
        )
        floor = 1e-12 * np.max(np.abs(closed.amplitudes))
        for m in range(closed.truncation + 1):
            if abs(closed.amplitudes[m]) > floor:
                assert recur.amplitudes[m] == pytest.approx(
                    closed.amplitudes[m], rel=1e-9
                )

    @given(p=twophoton_sampled)
    @small_drive_examples()
    def test_routes_agree_for_sampled_params(self, p):
        closed = wavefunction_twophoton(p)
        recur = wavefunction_via_three_term(p, truncation=closed.truncation)
        floor = 1e-12 * np.max(np.abs(closed.amplitudes))
        for m in range(closed.truncation + 1):
            if abs(closed.amplitudes[m]) > floor:
                assert recur.amplitudes[m] == pytest.approx(
                    closed.amplitudes[m], rel=1e-9
                )

    def test_cross_check_covers_whole_support(self, monkeypatch):
        # strong pump, truncation 101: one amplitude far past the low-lying
        # ones, off by 1e-6, must stop the release
        strong = ModelParams(delta_c=-2.0, chi=0.05, omega=1.0, gamma=1.0,
                             lambda_2ph=1.0, kappa=0.02)
        exact = exact_twophoton._gauss_sums

        def perturbed(y, z, asym=None):
            for m, value in enumerate(exact(y, z, asym)):
                yield value * (1.0 + 1e-6) if m == 40 else value

        monkeypatch.setattr(exact_twophoton, "_gauss_sums", perturbed)
        with pytest.raises(CrossCheckFailure, match="amplitude 40 "):
            wavefunction_twophoton(strong)

    @given(p=twophoton_sampled)
    def test_branch_flip_leaves_amplitudes_alone(self, p):
        # The displacement scale is a square root; picking the other
        # branch negates lambda_disp and sends y to z - y.  Physical
        # amplitudes cannot depend on that choice.
        d = derive_twophoton(p)
        for m in (1, 2, 5, 12):
            direct = (-d.lambda_disp) ** m * gauss_sum(m, d.y, d.z)
            flipped = d.lambda_disp**m * gauss_sum(m, d.z - d.y, d.z)
            assert flipped == pytest.approx(direct, rel=1e-9, abs=1e-20)

    def test_delegates_to_linear_without_pump_or_loss(self, bistable_params):
        via_two = wavefunction_twophoton(bistable_params)
        via_linear = wavefunction_linear(bistable_params)
        np.testing.assert_array_equal(via_two.amplitudes, via_linear.amplitudes)
        out = correlation_twophoton(bistable_params, 1, 1)
        assert out.value == correlation_linear(bistable_params, 1, 1).value

    def test_three_term_degenerates_to_linear(self, bistable_params):
        recur = wavefunction_via_three_term(bistable_params)
        direct = wavefunction_linear(bistable_params, truncation=recur.truncation)
        # one recursion serves both models, so the amplitudes agree bit for bit
        np.testing.assert_array_equal(recur.amplitudes, direct.amplitudes)

    def test_loss_without_pump_refused(self):
        p = ModelParams(delta_c=1.0, chi=1.0, omega=0.5, gamma=0.1, kappa=0.2)
        with pytest.raises(UnsupportedModel):
            wavefunction_twophoton(p)
        with pytest.raises(UnsupportedModel):
            wavefunction_via_three_term(p)
        with pytest.raises(UnsupportedModel):
            correlation_twophoton(p, 1, 1)

    def test_far_detuned_response_is_flat(self, twophoton_params):
        n = correlation_twophoton(twophoton_params.replace(delta_c=5.0), 1, 1).value.real
        assert n < 0.05

    def test_weak_pump_limit_matches_linear(self, bistable_params):
        p = bistable_params.replace(lambda_2ph=1e-4 * bistable_params.chi)
        two = correlation_twophoton(p, 1, 1).value
        lin = correlation_linear(bistable_params, 1, 1).value
        assert abs(two - lin) <= 1e-3 * abs(lin)


class TestCorrelations:
    def test_result_fields_and_crosscheck(self, twophoton_params):
        out = correlation_twophoton(twophoton_params, 1, 1)
        assert out.l == 1 and out.k == 1
        assert out.truncation > 0
        assert out.crosscheck_gap <= 1e-9 * abs(out.value) + 1e-14

    def test_matches_oracle(self, twophoton_params):
        _, want = adaptive_cutoff(twophoton_params, observable=(1, 1), tol=1e-8)
        got = correlation_twophoton(twophoton_params, 1, 1).value
        assert abs(got - want) <= 1e-6 * abs(want)

    def test_moment_order_cap(self, twophoton_params):
        with pytest.raises(InvalidParams):
            correlation_twophoton(twophoton_params, 0, 17)

    @pytest.mark.parametrize("lam, truncation, n", [(4.0, 202, 57.8814), (8.0, 310, 97.2693)],
                             ids=["lambda4", "lambda8"])
    def test_printed_form_releases_deep_strong_pump(self, lam, truncation, n):
        # F_m = beta_m sqrt(m!) leaves the double range inside these
        # truncations (at Fock index 154 and 134); the printed-form route
        # carries it in log form, so it still checks these states.
        strong = ModelParams(delta_c=-2.0, chi=0.05, omega=1.0, gamma=1.0,
                             lambda_2ph=lam, kappa=0.02)
        out = correlation_twophoton(strong, 1, 1)
        assert out.truncation == truncation
        assert out.value.real == pytest.approx(n, rel=1e-5)
        assert out.crosscheck_gap <= 1e-12 * n

    @given(p=twophoton_sampled, l=st.integers(0, 3), k=st.integers(0, 3))
    def test_hermiticity(self, p, l, k):
        lk = correlation_twophoton(p, l, k).value
        kl = correlation_twophoton(p, k, l).value
        assert lk == pytest.approx(kl.conjugate(), rel=1e-12, abs=1e-250)

    @given(p=twophoton_sampled, k=st.integers(0, 4))
    @small_drive_examples(k=1)
    def test_moment_positivity(self, p, k):
        v = correlation_twophoton(p, k, k).value
        assert v.real >= 0.0
        assert abs(v.imag) <= 1e-10 * max(abs(v), 1e-300)

    @given(p=twophoton_sampled)
    def test_cauchy_schwarz(self, p):
        amp = correlation_twophoton(p, 0, 1).value
        n = correlation_twophoton(p, 1, 1).value.real
        assert abs(amp) ** 2 <= n * (1.0 + 1e-10) + 1e-30


class TestParityFromOracle:
    def test_undriven_state_is_parity_diagonal(self, twophoton_params):
        rho = steady_state(build_liouvillian(twophoton_params.replace(omega=0.0), cutoff=24))
        scale = float(np.max(np.abs(rho.entries)))
        for m in range(rho.cutoff + 1):
            for n in range(rho.cutoff + 1):
                if (m + n) % 2 == 1:
                    assert abs(rho.entries[m, n]) <= 1e-9 * scale
        field = correlation_from_rho(rho, 0, 1)
        assert abs(field) <= 1e-9


class TestResonanceBookkeeping:
    def test_prediction_table_undriven(self, twophoton_params):
        table = resonance_predictions(6, twophoton_params.replace(omega=0.0))
        allowed = {p.detuning_over_chi for p in table if p.allowed}
        assert allowed == {-1.0, -3.0, -5.0}
        assert [p.order for p in table] == [1, 2, 3, 4, 5, 6]

    def test_prediction_table_driven(self, twophoton_params):
        table = resonance_predictions(5, twophoton_params)
        assert all(p.allowed for p in table)
        assert [p.detuning_over_chi for p in table] == [0.0, -1.0, -2.0, -3.0, -4.0]

    def test_single_entry_table(self, twophoton_params):
        table = resonance_predictions(1, twophoton_params.replace(omega=0.0))
        assert table == [
            type(table[0])(order=1, detuning_over_chi=0.0, allowed=False)
        ]
        with pytest.raises(InvalidParams):
            resonance_predictions(0, twophoton_params)

    @pytest.mark.parametrize("n_max", [2.5, True, "3"])
    def test_non_integer_order_count_refused(self, twophoton_params, n_max):
        with pytest.raises(InvalidParams, match="n_max must be an integer"):
            resonance_predictions(n_max, twophoton_params)

    def test_numpy_integer_order_count_accepted(self, twophoton_params):
        table = resonance_predictions(np.int64(3), twophoton_params)
        assert table == resonance_predictions(3, twophoton_params)

    def test_strict_local_maxima_rules(self):
        assert strict_local_maxima([0.0, 1.0, 0.0]) == (1,)
        assert strict_local_maxima([0.0, 1.0, 1.0, 0.0]) == ()
        assert strict_local_maxima([3.0, 2.0, 1.0]) == ()
        assert strict_local_maxima([0.0, 1.0, 0.5, 2.0, 0.0]) == (1, 3)

    def test_scan_grid_keeps_its_values(self, capsys, twophoton_params):
        # each resonance-scan row is scan_point at from + i * step, to the last bit
        p = twophoton_params
        assert p.chi == 1.0  # the printed delta_c / chi is then the detuning itself
        code = main(["resonance-scan", "--chi", "1", "--gamma", repr(p.gamma),
                     "--omega", repr(p.omega), "--lambda2", repr(p.lambda_2ph.real),
                     "--kappa", repr(p.kappa),
                     "--delta-from", "-1.3", "--delta-to", "-0.7", "--delta-step", "0.1"])
        assert code == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert [float(d) for d, *_ in rows] == [-1.3 + i * 0.1 for i in range(7)]
        for d, n, g2, _ in rows:
            assert (float(n), float(g2)) == scan_point(p, float(d))

    @pytest.mark.parametrize("stop,why", [
        ("abc", "argument --delta-to: invalid float value: 'abc'"),
        ("nan", "error: detuning grid bounds must be finite"),
        ("inf", "error: detuning grid bounds must be finite"),
    ], ids=["str", "nan", "inf"])
    def test_scan_rejects_malformed_grid(self, capsys, stop, why):
        # a bound that is not a finite float stops the scan before any point is solved
        argv = ["resonance-scan", "--chi", "1", "--gamma", "0.1", "--omega", "0.1",
                "--lambda2", "0.2", "--kappa", "0.1",
                "--delta-from", "-1", "--delta-to", stop, "--delta-step", "0.1"]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a bound that is not a float
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert why in err
