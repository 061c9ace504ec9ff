"""Brute-force Liouvillian steady-state solver used as ground truth.

The oracle itself gets the most scrutiny of anything in the repo, since
every exact-solution claim leans on it: exact generator entries for the
one-photon amplitude damping case, trace preservation of the
superoperator, agreement between the vectorized action and a direct
matrix-product evaluation, and the standard density-matrix invariants on
every solved steady state.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrsteady import lindblad_oracle
from kerrsteady.errors import CutoffTooSmall, InvalidParams, NonConvergence
from kerrsteady.lindblad_oracle import (
    DensityMatrix,
    adaptive_cutoff,
    build_liouvillian,
    correlation_from_rho,
    fock_annihilation,
    hamiltonian_fock,
    steady_state,
    steady_state_at,
)
from kerrsteady.model import ModelParams


def vec(rho):
    return rho.reshape(-1, order="F")


def damping_only(cutoff=1):
    return ModelParams(delta_c=0.0, chi=0.0, omega=0.0, gamma=1.0)


oracle_params = st.builds(
    ModelParams,
    delta_c=st.floats(min_value=-5.0, max_value=5.0),
    chi=st.floats(min_value=-1.0, max_value=1.0),
    omega=st.floats(min_value=0.0, max_value=2.0),
    gamma=st.floats(min_value=0.1, max_value=2.0),
    lambda_2ph=st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False),
    kappa=st.floats(min_value=0.0, max_value=0.5),
)


def test_amplitude_damping_generator_is_exact():
    L = build_liouvillian(damping_only(), cutoff=1).matrix.toarray()
    # column-stacked order (rho_00, rho_10, rho_01, rho_11)
    want = np.array(
        [
            [0.0, 0.0, 0.0, 1.0],
            [0.0, -0.5, 0.0, 0.0],
            [0.0, 0.0, -0.5, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ],
        dtype=complex,
    )
    assert np.array_equal(L, want)
    vacuum = np.zeros((2, 2), dtype=complex)
    vacuum[0, 0] = 1.0
    assert np.all(L @ vec(vacuum) == 0.0)


@given(p=oracle_params)
def test_trace_covector_annihilates_generator(p):
    cutoff = 8
    L = build_liouvillian(p, cutoff).matrix.toarray()
    dim = cutoff + 1
    t = np.zeros(dim * dim)
    t[:: dim + 1] = 1.0
    bound = 1e-9 * max(np.abs(L).max(), 1.0)
    assert np.abs(t @ L).max() <= bound


@given(p=oracle_params, seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_vectorized_action_matches_direct_evaluation(p, seed):
    cutoff = 6
    dim = cutoff + 1
    rng = np.random.default_rng(seed)
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    L = build_liouvillian(p, cutoff).matrix
    via_super = (L @ vec(rho)).reshape(dim, dim, order="F")

    a = fock_annihilation(cutoff)
    h = hamiltonian_fock(p, cutoff)

    def dissipator(op, r):
        return op @ r @ op.conj().T - 0.5 * (op.conj().T @ op @ r + r @ op.conj().T @ op)

    direct = -1j * (h @ rho - rho @ h)
    direct += p.gamma * dissipator(a, rho)
    direct += p.kappa * dissipator(a @ a, rho)

    scale = max(np.abs(direct).max(), 1.0)
    assert np.abs(via_super - direct).max() <= 1e-12 * scale


@pytest.mark.parametrize("cutoff", [2.5, 3.0, True, "3"])
def test_non_integer_cutoff_refused(cutoff):
    with pytest.raises(InvalidParams, match="cutoff must be an integer"):
        fock_annihilation(cutoff)
    with pytest.raises(InvalidParams, match="cutoff must be an integer"):
        steady_state_at(damping_only(), cutoff)


def test_numpy_integer_cutoff_accepted():
    assert np.array_equal(fock_annihilation(np.int64(3)), fock_annihilation(3))
    rho = steady_state_at(damping_only(), np.int32(4))
    assert rho.entries.shape == (5, 5)


class TestSteadyState:
    def test_pure_damping_gives_vacuum(self):
        rho = steady_state_at(damping_only(), cutoff=6)
        want = np.zeros((7, 7))
        want[0, 0] = 1.0
        assert np.abs(rho.entries - want).max() < 1e-12

    def test_drive_free_dark_state(self):
        p = ModelParams(delta_c=3.0, chi=0.7, omega=0.0, gamma=0.5)
        rho = steady_state_at(p, cutoff=8)
        assert rho.entries[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho.entries).sum() == pytest.approx(1.0, abs=1e-10)

    def test_fixed_point_and_invariants(self, bistable_params):
        cutoff = 40
        L = build_liouvillian(bistable_params, cutoff)
        rho = steady_state(L)
        residual = np.abs(L.matrix @ vec(rho.entries)).max()
        assert residual <= 1e-9 * np.abs(L.matrix.toarray()).max()
        herm_gap = np.abs(rho.entries - rho.entries.conj().T).max()
        assert herm_gap <= 1e-10
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)
        eigs = np.linalg.eigvalsh(rho.entries)
        assert eigs.min() >= -1e-8
        assert np.trace(rho.entries @ rho.entries).real <= 1.0 + 1e-10

    def test_two_photon_steady_state_invariants(self, twophoton_params):
        rho = steady_state_at(twophoton_params, cutoff=24)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho.entries).min() >= -1e-8


class TestCorrelations:
    def test_normalization_moment(self, twophoton_params):
        rho = steady_state_at(twophoton_params, cutoff=16)
        assert correlation_from_rho(rho, 0, 0) == pytest.approx(1.0, abs=1e-12)

    def test_number_state_occupation(self):
        dim = 9
        entries = np.zeros((dim, dim), dtype=complex)
        entries[3, 3] = 1.0
        rho = DensityMatrix(entries=entries, cutoff=dim - 1)
        assert correlation_from_rho(rho, 1, 1) == pytest.approx(3.0, rel=1e-14)

    @pytest.mark.parametrize("l, k", [(True, 1), (1.5, 1), ("1", 1), (1, -1), (17, 0)],
                             ids=["bool", "float", "str", "negative", "above-16"])
    def test_refuses_bad_moment_orders(self, l, k):
        # the closed form's rule: integers in [0, 16], never coerced
        rho = DensityMatrix(entries=np.eye(41, dtype=complex) / 41, cutoff=40)
        with pytest.raises(InvalidParams):
            correlation_from_rho(rho, l, k)

    def test_truncation_safety_guard(self):
        entries = np.zeros((5, 5), dtype=complex)
        entries[0, 0] = 1.0
        rho = DensityMatrix(entries=entries, cutoff=4)
        with pytest.raises(CutoffTooSmall):
            correlation_from_rho(rho, 2, 1)


class TestAdaptiveCutoff:
    def test_zero_drive_converges_immediately(self):
        p = ModelParams(delta_c=5.0, chi=-0.25, omega=0.0, gamma=1.0)
        cutoff, value = adaptive_cutoff(p, observable=(1, 1), tol=1e-8)
        assert cutoff == 16
        assert abs(value) < 1e-12

    def test_first_cutoff_fits_the_moment(self):
        p = ModelParams(delta_c=5.0, chi=-0.25, omega=0.0, gamma=1.0)
        cutoff, value = adaptive_cutoff(p, observable=(5, 4), tol=1e-8)
        assert cutoff == 18
        assert abs(value) < 1e-12

    def test_weak_drive_converges_small(self):
        p = ModelParams(delta_c=5.0, chi=-0.25, omega=0.1, gamma=1.0)
        cutoff, value = adaptive_cutoff(p, observable=(1, 1), tol=1e-8)
        assert cutoff <= 32
        assert value.real > 0.0

    def test_cap_raises(self, monkeypatch, bistable_params):
        monkeypatch.setattr(lindblad_oracle, "_ADAPTIVE_CAP", 32)
        with pytest.raises(NonConvergence, match="cutoff cap 32"):
            adaptive_cutoff(bistable_params, observable=(1, 1), tol=1e-30)

    @pytest.mark.parametrize("observable", [(1,), 5, (1, 1, 1), None],
                             ids=["one", "int", "three", "none"])
    def test_refuses_observable_that_is_not_a_pair(self, bistable_params, observable):
        with pytest.raises(InvalidParams, match="observable must be a pair"):
            adaptive_cutoff(bistable_params, observable=observable)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_refuses_meaningless_tol(self, monkeypatch, bistable_params, tol):
        # inf certifies the first cutoff unseen; the others can never certify
        def no_solve(*args):
            raise AssertionError("solved before the tolerance was checked")

        monkeypatch.setattr(lindblad_oracle, "steady_state_at", no_solve)
        with pytest.raises(InvalidParams, match="tol must be positive and finite"):
            adaptive_cutoff(bistable_params, observable=(1, 1), tol=tol)
