"""Parameter container, derived complex parameters, config ingestion."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrsteady.errors import InvalidParams, UnsupportedModel
from kerrsteady.exact_linear import correlation_linear, exact_drive_point, wavefunction_linear
from kerrsteady.exact_twophoton import (
    correlation_twophoton,
    wavefunction_twophoton,
    wavefunction_via_three_term,
)
from kerrsteady.meanfield import (
    MeanFieldBranch,
    classify_stability,
    drive_point_branches,
    photon_number_branches,
)
from kerrsteady.model import (
    ModelParams,
    derive_linear,
    derive_twophoton,
    params_from_dict,
)

from conftest import as_complex


def test_rejects_nonpositive_gamma():
    with pytest.raises(InvalidParams):
        ModelParams(delta_c=1.0, chi=1.0, omega=0.0, gamma=0.0)
    with pytest.raises(InvalidParams):
        ModelParams(delta_c=1.0, chi=1.0, omega=0.0, gamma=-0.5)


def test_rejects_negative_kappa():
    with pytest.raises(InvalidParams):
        ModelParams(delta_c=1.0, chi=1.0, omega=0.0, gamma=1.0, kappa=-0.1)


@pytest.mark.parametrize(
    "kw",
    [
        {"delta_c": True, "omega": True},
        {"delta_c": True},
        {"omega": False},
        {"gamma": True},
        {"kappa": False},
        {"chi": "-0.25"},
        {"gamma": "1"},
        {"lambda_2ph": True},
        {"lambda_2ph": "0.2"},
        {"delta_c": 10**400},
        {"lambda_2ph": 10**400},
        {"lambda_2ph": complex(0.0, math.nan)},
    ],
)
def test_rejects_bool_and_str_rates(kw):
    # bool is an int subclass and a str converts; neither may run as a number
    base = {"delta_c": 5.0, "chi": -0.25, "omega": 4.0, "gamma": 1.0}
    with pytest.raises(InvalidParams):
        ModelParams(**{**base, **kw})


def test_numpy_scalars_pass_as_rates():
    p = ModelParams(
        delta_c=np.float32(5.0), chi=np.float64(-0.25), omega=np.int64(4), gamma=1,
        lambda_2ph=np.complex64(0.5 - 0.25j), kappa=np.float64(0.0),
    )
    assert (p.delta_c, p.chi, p.omega, p.gamma) == (5.0, -0.25, 4.0, 1.0)
    assert type(p.omega) is float and type(p.lambda_2ph) is complex
    assert p.lambda_2ph == 0.5 - 0.25j


@pytest.mark.parametrize(
    "solve",
    [
        wavefunction_linear,
        lambda p: correlation_linear(p, 1, 1),
        photon_number_branches,
        lambda p: classify_stability(MeanFieldBranch(n=0.0, a0=0j), p),
    ],
    ids=["wavefunction_linear", "correlation_linear", "photon_number_branches",
         "classify_stability"],
)
@pytest.mark.parametrize("two_photon", [{"lambda_2ph": 0.2}, {"kappa": 0.1}], ids=["pump", "loss"])
def test_coherent_drive_solvers_share_one_refusal(solve, two_photon):
    p = ModelParams(delta_c=5.0, chi=-0.25, omega=1.0, gamma=1.0, **two_photon)
    with pytest.raises(UnsupportedModel, match="^two-photon pump or loss present; "):
        solve(p)


@pytest.mark.parametrize(
    "solve",
    [
        derive_twophoton,
        wavefunction_twophoton,
        wavefunction_via_three_term,
        lambda p: correlation_twophoton(p, 1, 1),
    ],
    ids=["derive_twophoton", "wavefunction_twophoton", "wavefunction_via_three_term",
         "correlation_twophoton"],
)
def test_twophoton_solvers_share_one_pumpless_loss_refusal(solve):
    p = ModelParams(delta_c=1.0, chi=1.0, omega=0.5, gamma=0.1, kappa=0.2)
    with pytest.raises(UnsupportedModel, match="^two-photon loss without a two-photon pump "
                       "is outside the closed-form family$"):
        solve(p)


@pytest.mark.parametrize("drive_point", [exact_drive_point, drive_point_branches])
def test_drive_points_share_one_sign_rule(drive_point):
    p = ModelParams(delta_c=5.0, chi=-0.25, omega=0.0, gamma=1.0)
    with pytest.raises(InvalidParams, match=r"^drive values must be >= 0, got -0\.5$"):
        drive_point(p, -0.5)


def test_replace_returns_new_frozen_instance():
    p = ModelParams(delta_c=1.0, chi=0.5, omega=2.0, gamma=1.0)
    q = p.replace(omega=3.0)
    assert q.omega == 3.0 and p.omega == 2.0
    with pytest.raises(Exception):
        p.omega = 9.0


def test_is_two_photon_flag():
    base = ModelParams(delta_c=0.0, chi=1.0, omega=1.0, gamma=1.0)
    assert not base.is_two_photon
    assert base.replace(lambda_2ph=0.1).is_two_photon
    assert base.replace(kappa=0.1).is_two_photon


class TestDeriveLinear:
    def test_drive_family_point(self, bistable_params):
        d = derive_linear(bistable_params)
        assert d.epsilon == 16.0j
        assert d.x == -20.0 + 2.0j

    def test_unit_point(self):
        d = derive_linear(ModelParams(delta_c=1.0, chi=1.0, omega=1.0, gamma=2.0))
        assert d.epsilon == pytest.approx(-1.0j, rel=1e-15)
        assert d.x == pytest.approx(1.0 - 1.0j, rel=1e-15)

    def test_zero_drive_kills_epsilon(self):
        d = derive_linear(ModelParams(delta_c=1.0, chi=1.0, omega=0.0, gamma=1.0))
        assert d.epsilon == 0.0j

    def test_chi_zero_rejected(self):
        # the message states the model rule, not the function that applies it
        with pytest.raises(InvalidParams, match="^the coherent-drive closed form needs chi != 0$"):
            derive_linear(ModelParams(delta_c=1.0, chi=0.0, omega=1.0, gamma=1.0))

    @given(
        delta_c=st.floats(min_value=-10.0, max_value=10.0),
        chi=st.floats(min_value=0.05, max_value=2.0),
        sign=st.sampled_from([-1.0, 1.0]),
        gamma=st.floats(min_value=0.05, max_value=5.0),
    )
    def test_imag_x_sign_opposes_chi(self, delta_c, chi, sign, gamma):
        p = ModelParams(delta_c=delta_c, chi=sign * chi, omega=1.0, gamma=gamma)
        x = derive_linear(p).x
        # gamma > 0 forces Im x = -gamma / (2 chi) to oppose the sign of chi
        assert x.imag == pytest.approx(-gamma / (2 * sign * chi), rel=1e-14)
        assert (x.imag < 0) == (sign > 0)


class TestDeriveTwophoton:
    def test_undriven_example_point(self):
        p = ModelParams(delta_c=-1.0, chi=1.0, omega=0.0, gamma=0.1, lambda_2ph=0.5)
        d = derive_twophoton(p)
        assert d.lambda_disp == pytest.approx(1j * math.sqrt(0.5), rel=1e-15)
        assert d.z == pytest.approx(-1.0 - 0.05j, rel=1e-15)

    def test_zero_drive_makes_y_half_z(self):
        p = ModelParams(
            delta_c=-2.0, chi=1.0, omega=0.0, gamma=0.3, lambda_2ph=0.7 - 0.2j, kappa=0.4
        )
        d = derive_twophoton(p)
        assert d.y == d.z / 2
        assert d.asym == 0

    @pytest.mark.parametrize("omega", [1e-300, 1e-8, 0.3])
    def test_asym_is_y_minus_half_z_unrounded(self, omega):
        p = ModelParams(
            delta_c=-2.0, chi=1.0, omega=omega, gamma=0.3, lambda_2ph=0.7 - 0.2j, kappa=0.4
        )
        d = derive_twophoton(p)
        want = -1j * math.sqrt(2.0) * omega / (d.lambda_disp * (2.0 - 0.4j))
        assert d.asym == pytest.approx(want, rel=1e-15)
        if omega > 0.1:
            assert d.asym == pytest.approx(d.y - d.z / 2, rel=1e-14)

    def test_frozen_scan_point(self, refs, twophoton_params):
        d = derive_twophoton(twophoton_params)
        blob = refs["twophoton_derived"]
        assert d.lambda_disp == pytest.approx(as_complex(blob["lambda_disp"]), rel=1e-14)
        assert d.y == pytest.approx(as_complex(blob["y"]), rel=1e-14)
        assert d.z == pytest.approx(as_complex(blob["z"]), rel=1e-14)

    def test_principal_branch(self):
        # real positive radicand lands on the positive square root
        p = ModelParams(delta_c=0.0, chi=1.0, omega=0.0, gamma=1.0, lambda_2ph=2.0)
        d = derive_twophoton(p)
        assert d.lambda_disp.imag > 0 and abs(d.lambda_disp.real) < 1e-15

    def test_lambda_zero_rejected(self):
        p = ModelParams(delta_c=0.0, chi=1.0, omega=0.0, gamma=1.0, kappa=0.1)
        with pytest.raises(UnsupportedModel):
            derive_twophoton(p)

    def test_no_two_photon_term_is_invalid(self):
        p = ModelParams(delta_c=0.0, chi=1.0, omega=0.0, gamma=1.0)
        with pytest.raises(InvalidParams, match="needs lambda_2ph != 0"):
            derive_twophoton(p)

    def test_degenerate_denominator_rejected(self):
        p = ModelParams(delta_c=0.0, chi=0.0, omega=0.0, gamma=1.0, lambda_2ph=1.0)
        with pytest.raises(InvalidParams):
            derive_twophoton(p)


class TestScaleCovariance:
    """Derived parameters depend only on frequency ratios.

    Doubling is exact in binary floating point; a factor of ten rounds
    each product once, so those comparisons allow a few ulp.
    """

    @given(
        delta_c=st.floats(min_value=-8.0, max_value=8.0),
        chi=st.floats(min_value=0.1, max_value=2.0),
        omega=st.floats(min_value=0.0, max_value=5.0),
        gamma=st.floats(min_value=0.05, max_value=3.0),
        lam_re=st.floats(min_value=-1.0, max_value=1.0),
        lam_im=st.floats(min_value=-1.0, max_value=1.0),
        kappa=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_linear_and_twophoton(self, delta_c, chi, omega, gamma, lam_re, lam_im, kappa):
        lam = complex(lam_re, lam_im)
        p = ModelParams(
            delta_c=delta_c, chi=chi, omega=omega, gamma=gamma,
            lambda_2ph=lam, kappa=kappa,
        )
        for s, rel in ((2.0, 0.0), (10.0, 5e-15)):
            q = ModelParams(
                delta_c=s * delta_c, chi=s * chi, omega=s * omega, gamma=s * gamma,
                lambda_2ph=s * lam, kappa=s * kappa,
            )
            dl_p, dl_q = derive_linear(p), derive_linear(q)
            if rel == 0.0:
                assert dl_p.epsilon == dl_q.epsilon and dl_p.x == dl_q.x
            else:
                assert dl_q.epsilon == pytest.approx(dl_p.epsilon, rel=rel, abs=1e-300)
                assert dl_q.x == pytest.approx(dl_p.x, rel=rel)
            if lam != 0:
                dt_p, dt_q = derive_twophoton(p), derive_twophoton(q)
                assert dt_q.lambda_disp == pytest.approx(dt_p.lambda_disp, rel=max(rel, 5e-15))
                assert dt_q.z == pytest.approx(dt_p.z, rel=max(rel, 5e-15))
                if omega > 0:
                    assert dt_q.y == pytest.approx(dt_p.y, rel=max(rel, 1e-13))
                elif rel == 0.0:
                    assert dt_q.y == dt_p.y


class TestParamsFromDict:
    def test_absolute_keys(self):
        p = params_from_dict(
            {"delta_c": 5.0, "chi": -0.25, "omega": 4.0, "gamma": 1.0,
             "lambda_re": 0.1, "lambda_im": -0.2, "kappa": 0.3}
        )
        assert p.delta_c == 5.0 and p.lambda_2ph == 0.1 - 0.2j and p.kappa == 0.3

    def test_absolute_defaults(self):
        p = params_from_dict({"delta_c": 1.0, "chi": 1.0, "gamma": 2.0})
        assert p.omega == 0.0 and p.lambda_2ph == 0j and p.kappa == 0.0

    def test_ratio_mode_gamma_unit(self):
        p = params_from_dict(
            {"unit": "gamma", "delta_c_over_gamma": 5.0, "chi_over_gamma": -0.25,
             "omega_over_gamma": 4.0}
        )
        assert p.gamma == 1.0 and p.delta_c == 5.0 and p.chi == -0.25

    def test_ratio_mode_chi_unit_with_anchor(self):
        p = params_from_dict(
            {"unit": "chi", "chi": 2.0, "delta_c_over_chi": -1.0,
             "gamma_over_chi": 0.1, "lambda_re_over_chi": 0.2, "kappa_over_chi": 0.1}
        )
        assert p.chi == 2.0 and p.delta_c == -2.0 and p.gamma == pytest.approx(0.2)
        assert p.lambda_2ph == pytest.approx(0.4) and p.kappa == pytest.approx(0.2)

    @pytest.mark.parametrize("anchor", [-0.25, 0.0])
    def test_ratio_mode_anchor_must_be_positive(self, anchor):
        with pytest.raises(InvalidParams, match="positive"):
            params_from_dict({"unit": "chi", "chi": anchor, "delta_c_over_chi": -20.0,
                              "gamma_over_chi": 4.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParams):
            params_from_dict({"delta_c": 1.0, "chi": 1.0, "gamma": 1.0, "detuning": 2.0})

    def test_mixed_modes_rejected(self):
        with pytest.raises(InvalidParams):
            params_from_dict(
                {"unit": "gamma", "delta_c_over_gamma": 5.0, "chi": -0.25, "gamma": 1.0}
            )

    def test_missing_required_rejected(self):
        with pytest.raises(InvalidParams):
            params_from_dict({"delta_c": 1.0, "gamma": 1.0})

    @pytest.mark.parametrize(
        "raw",
        [
            {"delta_c": True, "chi": 1.0, "gamma": 1.0},
            {"delta_c": 1.0, "chi": 1.0, "gamma": 1.0, "omega": False},
            {"unit": "gamma", "gamma": True, "delta_c_over_gamma": 5.0,
             "chi_over_gamma": -0.25},
            {"unit": "chi", "delta_c_over_chi": -1.0, "gamma_over_chi": True},
        ],
    )
    def test_bools_rejected(self, raw):
        # bool is an int subclass; true must not run as 1.0
        with pytest.raises(InvalidParams):
            params_from_dict(raw)

    def test_roundtrip_through_to_dict(self, twophoton_params):
        again = params_from_dict(twophoton_params.to_dict())
        assert again == twophoton_params
