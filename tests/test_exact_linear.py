"""Closed-form steady state of the coherently driven Kerr model.

Covers the recursion/closed-form identity, the frozen 60-digit moment
references, the Lindblad-oracle comparison, and the statistical
inequalities any physical state must satisfy.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrsteady import cli, exact_linear
from kerrsteady.errors import (
    CrossCheckFailure,
    CutoffTooSmall,
    DenominatorPole,
    InvalidParams,
    NonConvergence,
    UnsupportedModel,
)
from kerrsteady.exact_linear import (
    amplitude_moment,
    correlation_linear,
    exact_drive_point,
    wavefunction_linear,
)
from kerrsteady.exact_twophoton import wavefunction_twophoton, wavefunction_via_three_term
from kerrsteady.lindblad_oracle import adaptive_cutoff
from kerrsteady.model import ModelParams, derive_linear
from kerrsteady.specfun import pochhammer

from conftest import as_complex

linear_params = st.builds(
    ModelParams,
    delta_c=st.floats(min_value=-10.0, max_value=10.0),
    chi=st.floats(min_value=-2.0, max_value=2.0).filter(lambda c: abs(c) > 5e-3),
    omega=st.floats(min_value=0.0, max_value=10.0),
    gamma=st.floats(min_value=0.05, max_value=4.0),
)


class TestWavefunction:
    def test_zero_drive_is_vacuum(self):
        wf = wavefunction_linear(ModelParams(delta_c=1.0, chi=0.5, omega=0.0, gamma=1.0))
        assert wf.converged
        assert wf.amplitudes[0] == 1.0 + 0j
        assert all(a == 0j for a in wf.amplitudes[1:])

    def test_normalization_and_tail(self, bistable_params):
        wf = wavefunction_linear(bistable_params)
        assert wf.converged
        total = sum(abs(a) ** 2 for a in wf.amplitudes)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert wf.tail_mass <= 1e-14
        assert wf.amplitudes[0] != 0j

    def test_recursion_telescopes_to_closed_form(self, bistable_params):
        wf = wavefunction_linear(bistable_params)
        d = derive_linear(bistable_params)
        ratio = wf.amplitudes[0]  # common normalization, m = 0 closed form is 1
        for m in range(1, min(51, len(wf.amplitudes))):
            closed = (
                (math.sqrt(2.0) * d.epsilon) ** m
                / math.sqrt(math.factorial(m))
                / pochhammer(d.x, m)
            )
            assert wf.amplitudes[m] == pytest.approx(ratio * closed, rel=1e-10)

    def test_fixed_truncation_pads_with_zeros(self, bistable_params):
        wf = wavefunction_linear(bistable_params, truncation=80)
        assert wf.truncation == 80
        assert len(wf.amplitudes) == 81
        total = sum(abs(a) ** 2 for a in wf.amplitudes)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_fixed_truncation_below_support_is_cutoff_too_small(self):
        # The deep state at omega=16 peaks near m = 138, so 120 levels miss
        # most of its weight: a cutoff fault, not a disagreement of routes.
        deep = ModelParams(delta_c=5.0, chi=-0.05, omega=16.0, gamma=1.0)
        with pytest.raises(CutoffTooSmall, match="truncation 120"):
            wavefunction_linear(deep, truncation=120)
        assert wavefunction_linear(deep, truncation=300).converged

    @pytest.mark.parametrize("solver, point", [
        (wavefunction_linear, "bistable_params"),
        (wavefunction_twophoton, "twophoton_params"),
        (wavefunction_via_three_term, "twophoton_params"),
    ], ids=["linear", "twophoton", "three-term"])
    def test_truncation_cap_raises(self, request, monkeypatch, solver, point):
        # every route climbs the one band recursion, which reads its cap at call time
        monkeypatch.setattr(exact_linear, "_MAX_TRUNCATION", 8)
        with pytest.raises(NonConvergence, match="Fock index 8"):
            solver(request.getfixturevalue(point))

    @pytest.mark.parametrize("solver, lam", [
        (wavefunction_linear, 0.0),
        (wavefunction_twophoton, 0.0),
        (wavefunction_twophoton, 0.2),
        (wavefunction_via_three_term, 0.0),
        (wavefunction_via_three_term, 0.2),
    ], ids=["linear", "twophoton-delegating", "twophoton", "three-term-coherent", "three-term"])
    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_recursion_pole_refused(self, solver, lam, m):
        # delta = -chi (m - 1) leaves the band coefficient c0 + c1 (m - 1) at -1e-13 i
        p = ModelParams(delta_c=1.0 - m, chi=1.0, omega=0.3, gamma=1e-13, lambda_2ph=lam)
        with pytest.raises(DenominatorPole, match=f"vanishes at index {m}$"):
            solver(p)

    @pytest.mark.parametrize("solver, point", [
        (wavefunction_linear, "bistable_params"),
        (wavefunction_twophoton, "bistable_params"),
        (wavefunction_twophoton, "twophoton_params"),
        (wavefunction_via_three_term, "twophoton_params"),
    ], ids=["linear", "twophoton-delegating", "twophoton", "three-term"])
    @pytest.mark.parametrize("truncation", [60.5, 60.0, True, -1, "60"])
    def test_non_integer_truncation_refused(self, request, solver, point, truncation):
        with pytest.raises(InvalidParams, match="truncation must be an integer"):
            solver(request.getfixturevalue(point), truncation=truncation)

    @pytest.mark.parametrize("solver, point", [
        (wavefunction_linear, "bistable_params"),
        (wavefunction_twophoton, "twophoton_params"),
        (wavefunction_via_three_term, "twophoton_params"),
    ], ids=["linear", "twophoton", "three-term"])
    def test_numpy_integer_truncation_accepted(self, request, solver, point):
        params = request.getfixturevalue(point)
        wf = solver(params, truncation=np.int64(60))
        assert type(wf.truncation) is int
        np.testing.assert_array_equal(
            wf.amplitudes, solver(params, truncation=60).amplitudes
        )

    def test_two_photon_params_rejected(self, twophoton_params):
        with pytest.raises(UnsupportedModel):
            wavefunction_linear(twophoton_params)

    def test_chi_zero_rejected(self):
        with pytest.raises(InvalidParams):
            wavefunction_linear(ModelParams(delta_c=1.0, chi=0.0, omega=1.0, gamma=1.0))

    @given(p=linear_params)
    def test_normalized_for_sampled_params(self, p):
        wf = wavefunction_linear(p)
        total = sum(abs(a) ** 2 for a in wf.amplitudes)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert wf.amplitudes[0] != 0j


class TestTailRule:
    """The ladder's stop, decided by specfun._tail_run, on a synthetic step.

    After beta_0 = 1 the squared amplitudes are 1, 4, 4, 2.25, 12.25 and
    then 10^4, all exact in binary.  At tail_tol 0.5 a level is small when
    its weight is at most the sum of the levels below it: levels 1 and 5
    sit exactly there, level 2 rises above it.
    """

    BETAS = [1.0, 2.0, 2.0, 1.5, 3.5, 100.0]

    def climb(self, truncation):
        return exact_linear._ladder(
            lambda m, betas: complex(self.BETAS[m - 1]), 0.5, len(self.BETAS), truncation)

    def test_fires_at_the_third_small_level_after_a_rise(self, monkeypatch):
        runs, tail_run = [], exact_linear._tail_run

        def recording(*args):
            runs.append(tail_run(*args))
            return runs[-1]

        monkeypatch.setattr(exact_linear, "_tail_run", recording)
        betas, converged = self.climb(None)
        assert converged and len(betas) == 6
        assert runs == [1, 0, 1, 2, 3]

    @pytest.mark.parametrize("truncation, converged", [(4, False), (5, True), (6, False)])
    def test_fixed_truncation_reports_the_run_at_its_end(self, truncation, converged):
        betas, flag = self.climb(truncation)
        assert len(betas) == truncation + 1
        assert flag is converged


class TestNormCheckRefusals:
    """Each way the amplitude sum and the 0F2 norm can fail to agree, refused by class."""

    @pytest.mark.parametrize("omega", [0.0, 0.1])
    def test_pole_parameter(self, omega):
        # x = -10 - 1e-13 i: the ladder stops before its pole at index 11, so the norm refuses
        p = ModelParams(delta_c=-5.0, chi=0.5, omega=omega, gamma=1e-13)
        with pytest.raises(DenominatorPole, match="0F2 norm parameter"):
            wavefunction_linear(p)

    def test_overflowing_drive(self):
        deep = ModelParams(delta_c=5.0, chi=-0.05, omega=1e4, gamma=1.0)
        with pytest.raises(NonConvergence, match="double range"):
            wavefunction_linear(deep)

    def test_truncation_far_below_support(self):
        deep = ModelParams(delta_c=5.0, chi=-0.05, omega=16.0, gamma=1.0)
        with pytest.raises(CutoffTooSmall, match="truncation 60"):
            wavefunction_linear(deep, truncation=60)

    def test_perturbed_ladder(self, bistable_params, monkeypatch):
        recursion = exact_linear._recursion_amplitudes

        def perturbed(*args):
            betas, converged = recursion(*args)
            betas[1] *= 1.01
            return betas, converged

        monkeypatch.setattr(exact_linear, "_recursion_amplitudes", perturbed)
        with pytest.raises(CrossCheckFailure, match="normalization mismatch"):
            wavefunction_linear(bistable_params)


class TestCorrelation:
    def test_normalization_moment(self, bistable_params):
        out = correlation_linear(bistable_params, 0, 0)
        assert out.value == 1.0 + 0j

    def test_zero_drive_moments_vanish(self):
        p = ModelParams(delta_c=1.0, chi=0.5, omega=0.0, gamma=1.0)
        for l, k in ((0, 1), (1, 1), (2, 2)):
            assert correlation_linear(p, l, k).value == 0j

    def test_frozen_reference_moments(self, refs, bistable_params):
        blob = refs["linear_reference"]
        assert correlation_linear(bistable_params, 1, 1).value.real == pytest.approx(blob["n"], rel=1e-12)
        out = correlation_linear(bistable_params, 2, 2)
        assert out.value.real == pytest.approx(blob["g2_numerator"], rel=1e-12)
        amp = correlation_linear(bistable_params, 0, 1)
        assert amp.value == pytest.approx(as_complex(blob["amp"]), rel=1e-12)
        m20 = correlation_linear(bistable_params, 2, 0)
        assert m20.value == pytest.approx(as_complex(blob["mom_20"]), rel=1e-12)

    def test_crosscheck_gap_reported_small(self, bistable_params):
        out = correlation_linear(bistable_params, 1, 1)
        assert out.l == 1 and out.k == 1
        assert out.truncation > 0
        assert out.crosscheck_gap <= 1e-9 * abs(out.value) + 1e-14

    def test_moment_order_cap(self, bistable_params):
        with pytest.raises(InvalidParams):
            correlation_linear(bistable_params, 17, 0)

    @pytest.mark.parametrize("order", [1.5, True, "2"])
    def test_non_integer_moment_order_refused(self, bistable_params, order):
        with pytest.raises(InvalidParams, match="integers"):
            correlation_linear(bistable_params, order, 1)

    def test_numpy_integer_moment_orders_accepted(self, bistable_params):
        got = correlation_linear(bistable_params, np.int64(2), np.int32(1))
        assert got.value == correlation_linear(bistable_params, 2, 1).value

    def test_matches_oracle_across_observables(self, bistable_params):
        for l, k in ((1, 1), (2, 2), (1, 0), (2, 0)):
            _, want = adaptive_cutoff(bistable_params, observable=(l, k), tol=1e-8)
            got = correlation_linear(bistable_params, l, k).value
            assert abs(got - want) <= 1e-6 * abs(want)

    @given(p=linear_params, l=st.integers(0, 3), k=st.integers(0, 3))
    def test_hermiticity(self, p, l, k):
        lk = correlation_linear(p, l, k).value
        kl = correlation_linear(p, k, l).value
        assert lk == pytest.approx(kl.conjugate(), rel=1e-12, abs=1e-250)

    @given(p=linear_params, k=st.integers(0, 4))
    def test_moment_positivity(self, p, k):
        v = correlation_linear(p, k, k).value
        assert v.real >= 0.0
        assert abs(v.imag) <= 1e-10 * max(abs(v), 1e-300)

    @given(p=linear_params)
    def test_cauchy_schwarz(self, p):
        amp = correlation_linear(p, 0, 1).value
        n = correlation_linear(p, 1, 1).value.real
        assert abs(amp) ** 2 <= n * (1.0 + 1e-10) + 1e-30


def test_classical_limit_matches_mean_field():
    from kerrsteady.meanfield import photon_number_branches

    p = ModelParams(delta_c=5.0, chi=-0.001, omega=1.0, gamma=1.0)
    branches = photon_number_branches(p)
    assert len(branches) == 1
    exact_n = exact_drive_point(p, p.omega).n
    assert exact_n == pytest.approx(branches[0].n, rel=0.01)


class TestSweep:
    def test_single_zero_point(self):
        p = ModelParams(delta_c=5.0, chi=-0.25, omega=0.0, gamma=1.0)
        row = exact_drive_point(p, 0.0)
        assert row.omega == 0.0 and row.n == 0.0
        assert math.isnan(row.g2)

    def test_rows_match_point_calls(self, bistable_params):
        for om in (0.5, 2.0, 4.0):
            row = exact_drive_point(bistable_params, om)
            assert row.omega == om
            at_om = bistable_params.replace(omega=om)
            assert row.n == correlation_linear(at_om, 1, 1).value.real
            assert row.amplitude == correlation_linear(at_om, 0, 1).value

    def test_one_wavefunction_build_per_point(self, bistable_params, monkeypatch):
        builds = []

        def counting(params, truncation=None):
            builds.append(params)
            return wavefunction_linear(params, truncation)

        monkeypatch.setattr(exact_linear, "wavefunction_linear", counting)
        row = exact_drive_point(bistable_params, 4.0)
        assert builds == [bistable_params.replace(omega=4.0)]
        assert row.n == correlation_linear(bistable_params, 1, 1).value.real
        # an exact-sweep row with an extra moment takes it from the same build
        builds.clear()
        cells = cli._exact_sweep_row(bistable_params.replace(omega=0.0), 2, 1, 4.0)
        assert builds == [bistable_params.replace(omega=4.0)]
        extra = correlation_linear(bistable_params, 2, 1).value
        assert cells == [4.0, row.n, row.amplitude.real, row.amplitude.imag, row.g2,
                         extra.real, extra.imag]

    def test_g2_definition(self, bistable_params):
        row = exact_drive_point(bistable_params, 4.0)
        pair = correlation_linear(bistable_params, 2, 2).value.real
        n = correlation_linear(bistable_params, 1, 1).value.real
        assert row.g2 == pytest.approx(pair / n**2, rel=1e-12)

    def test_invalid_grid_rejected(self, bistable_params):
        with pytest.raises(InvalidParams):
            exact_drive_point(bistable_params, -0.5)

    @pytest.mark.parametrize("omega", [True, "2.0", math.nan])
    def test_non_numeric_drive_rejected(self, bistable_params, omega):
        # a bool or str drive must not run as 1.0 or 2.0
        with pytest.raises(InvalidParams):
            exact_drive_point(bistable_params, omega)


def test_amplitude_moment_requires_wavefunction_support(bistable_params):
    wf = wavefunction_linear(bistable_params)
    n = amplitude_moment(wf, 1, 1).real
    assert n == pytest.approx(correlation_linear(bistable_params, 1, 1).value.real, rel=1e-9)
