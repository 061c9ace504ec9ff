"""Brute-force Liouvillian steady-state solver used as ground truth.

The oracle itself gets the most scrutiny of anything in the repo, since
every exact-solution claim leans on it: exact generator entries for the
one-photon amplitude damping case, trace preservation of the
superoperator, agreement between the vectorized action and a direct
matrix-product evaluation, and the standard density-matrix invariants on
every solved steady state.  The stencil assembly of the generator, the
band build of the Hamiltonian and the bordered system built from the CSC
arrays are checked bit for bit against the operator-product
transcriptions they replaced, kept here as references.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrsteady import lindblad_oracle
from kerrsteady.errors import CutoffTooSmall, InvalidParams, InvariantViolation, NonConvergence
from kerrsteady.exact_linear import correlation_linear
from kerrsteady.lindblad_oracle import (
    DensityMatrix,
    adaptive_cutoff,
    build_liouvillian,
    correlation_from_rho,
    fock_annihilation,
    hamiltonian_fock,
    steady_state,
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


def matmul_hamiltonian(params, cutoff):
    """Reference for hamiltonian_fock: dense products of the ladders."""
    a = fock_annihilation(cutoff)
    ad = a.conj().T
    h = (
        params.delta_c * (ad @ a)
        + params.chi * (ad @ ad @ a @ a)
        + 1j * params.omega * (ad - a)
    )
    if params.lambda_2ph != 0:
        h = h + 0.5 * (params.lambda_2ph * (ad @ ad) + np.conj(params.lambda_2ph) * (a @ a))
    return h


def kron_liouvillian(params, cutoff):
    """Reference for build_liouvillian: sparse kron products and their sums."""
    import scipy.sparse as sp

    d = cutoff + 1
    a = sp.csc_matrix(fock_annihilation(cutoff))
    h = sp.csc_matrix(matmul_hamiltonian(params, cutoff))
    eye = sp.identity(d, dtype=complex, format="csc")
    lmat = -1j * (sp.kron(eye, h, format="csc") - sp.kron(h.T, eye, format="csc"))
    jumps = [(params.gamma, a)]
    if params.kappa > 0.0:
        jumps.append((params.kappa, (a @ a).tocsc()))
    for rate, c in jumps:
        cd = c.conj().T.tocsc()
        cdc = (cd @ c).tocsc()
        lmat = lmat + rate * (
            sp.kron(cd.T, c, format="csc")
            - 0.5 * sp.kron(eye, cdc, format="csc")
            - 0.5 * sp.kron(cdc.T, eye, format="csc")
        )
    return lmat.tocsc()


def stacked_bordered(lmat, cutoff):
    """Reference for the bordered system: the trace row stacked on L's rows 1.."""
    import scipy.sparse as sp

    d = cutoff + 1
    n2 = d * d
    trace_row = sp.csr_matrix(
        (np.ones(d), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))), shape=(1, n2)
    ).astype(complex)
    return sp.vstack([trace_row, lmat.tocsr()[1:, :]], format="csc")


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_same_csc(got, want):
    for field in ("data", "indices", "indptr"):
        assert same_bits(getattr(got, field), getattr(want, field)), field


def assert_assembly_matches_operator_products(params, cutoff):
    assert same_bits(hamiltonian_fock(params, cutoff), matmul_hamiltonian(params, cutoff))
    liouvillian = build_liouvillian(params, cutoff)
    want = kron_liouvillian(params, cutoff)
    assert_same_csc(liouvillian.matrix, want)
    assert_same_csc(lindblad_oracle._bordered_system(liouvillian), stacked_bordered(want, cutoff))


class TestStencilAssembly:
    @given(p=oracle_params, cutoff=st.integers(min_value=1, max_value=16))
    def test_matches_operator_products_bitwise(self, p, cutoff):
        assert_assembly_matches_operator_products(p, cutoff)

    @pytest.mark.parametrize("chi", [-0.25, 1.0, -1.0 / 3.0])
    @pytest.mark.parametrize("levels", [1, 2, 7, 15])
    def test_matches_where_hamiltonian_diagonal_cancels(self, chi, levels):
        # delta = -chi (m + n - 1) makes H[m, m] = H[n, n] for every pair
        # with m + n = levels, so I kron H - H^T kron I drops those entries
        # (levels = 1 also zeroes H[0, 0] and H[1, 1])
        base = ModelParams(delta_c=-chi * (levels - 1), chi=chi, omega=0.0, gamma=0.5)
        variants = [
            base,
            base.replace(omega=1.25),
            base.replace(omega=0.75, lambda_2ph=0.3 - 0.1j, kappa=0.2),
            base.replace(lambda_2ph=-0.2j, kappa=0.0),
        ]
        for params in variants:
            for cutoff in range(1, 17):
                assert_assembly_matches_operator_products(params, cutoff)

    @pytest.mark.parametrize("params", [
        ModelParams(delta_c=-0.0, chi=-0.0, omega=0.0, gamma=1.0),
        ModelParams(delta_c=-0.0, chi=0.5, omega=0.0, gamma=1.0, lambda_2ph=complex(-0.0, 0.2)),
        ModelParams(delta_c=2.0, chi=-0.0, omega=0.0, gamma=1.0, lambda_2ph=complex(0.2, -0.0),
                    kappa=-0.0),
    ], ids=["all-signed-zeros", "negative-zero-pump", "negative-zero-loss"])
    def test_matches_with_signed_zero_parameters(self, params):
        for cutoff in (1, 2, 3, 6):
            assert_assembly_matches_operator_products(params, cutoff)

    def test_columns_hold_sorted_rows_without_zeros(self, twophoton_params):
        matrix = build_liouvillian(twophoton_params, 12).matrix
        assert matrix.has_canonical_format
        assert np.all(matrix.data != 0)
        assert matrix.indices.dtype == np.int32


# the benchmark's validate families
VALIDATE_FAMILIES = {
    "bistable-w1.58": ModelParams(delta_c=5.0, chi=-0.25, omega=1.58, gamma=1.0),
    "bistable-w4": ModelParams(delta_c=5.0, chi=-0.25, omega=4.0, gamma=1.0),
    "bistable-w7.5": ModelParams(delta_c=5.0, chi=-0.25, omega=7.5, gamma=1.0),
    "two-photon": ModelParams(delta_c=-1.0, chi=1.0, omega=0.1, gamma=0.1,
                              lambda_2ph=0.2, kappa=0.1),
    "chi0-pair-loss": ModelParams(delta_c=-1.0, chi=0.0, omega=0.1, gamma=0.1,
                                  lambda_2ph=0.2, kappa=0.1),
}


@pytest.mark.parametrize("cutoff", [16, 32, 64])
@pytest.mark.parametrize("family", sorted(VALIDATE_FAMILIES))
def test_steady_state_matches_reference_solve_bitwise(family, cutoff):
    # a solve of the reference bordered system in this process, not a
    # golden file: the last digits depend on the BLAS thread count.  The
    # oracle's own factorization settings are used, so this pins the
    # assembly and the solve, not the choice of settings.
    params = VALIDATE_FAMILIES[family]
    rho = steady_state(build_liouvillian(params, cutoff))

    lmat = kron_liouvillian(params, cutoff)
    d = cutoff + 1
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    solution = lindblad_oracle.splu(stacked_bordered(lmat, cutoff)).solve(rhs)
    raw = solution.reshape((d, d), order="F")
    assert same_bits(rho.entries, 0.5 * (raw + raw.conj().T))
    assert same_bits(rho.herm_defect, np.max(np.abs(raw - raw.conj().T)))
    assert same_bits(rho.fixed_point_residual, np.max(np.abs(lmat @ solution)))


@pytest.mark.parametrize("family", ["bistable-w4", "two-photon"])
def test_factorization_stores_less_than_scipy_defaults(family):
    # the symmetric ordering and threshold pivoting are applied: at cutoff
    # 64 they store about 190 k (bistable) and 577 k (two-photon) entries
    # in L + U, against 282 k and 760 k with COLAMD and full pivoting
    from scipy.sparse.linalg import splu

    bordered = lindblad_oracle._bordered_system(build_liouvillian(VALIDATE_FAMILIES[family], 64))
    factor, default = lindblad_oracle.splu(bordered), splu(bordered)
    assert factor.L.nnz + factor.U.nnz < 0.8 * (default.L.nnz + default.U.nnz)


@pytest.mark.parametrize("cutoff", [18, 36, 72])
def test_high_order_moment_matches_closed_form(cutoff):
    # <a^dag^5 a^4> on the bistable family is about 5e-5 and needs no more
    # than cutoff 18; a factorization that loses digits to roundoff moves
    # it (column-ordered LU with full pivoting gave 1.5e-7 off at 36)
    params = ModelParams(delta_c=5.0, chi=-0.25, omega=1.5, gamma=1.0)
    exact = correlation_linear(params, 5, 4).value
    oracle = correlation_from_rho(steady_state(build_liouvillian(params, cutoff)), 5, 4)
    assert abs(oracle - exact) <= 1e-9 * abs(exact)


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
        steady_state(build_liouvillian(damping_only(), cutoff))


def test_numpy_integer_cutoff_accepted():
    assert np.array_equal(fock_annihilation(np.int64(3)), fock_annihilation(3))
    rho = steady_state(build_liouvillian(damping_only(), np.int32(4)))
    assert rho.entries.shape == (5, 5)


class TestSteadyState:
    def test_pure_damping_gives_vacuum(self):
        rho = steady_state(build_liouvillian(damping_only(), cutoff=6))
        want = np.zeros((7, 7))
        want[0, 0] = 1.0
        assert np.abs(rho.entries - want).max() < 1e-12

    def test_drive_free_dark_state(self):
        p = ModelParams(delta_c=3.0, chi=0.7, omega=0.0, gamma=0.5)
        rho = steady_state(build_liouvillian(p, cutoff=8))
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
        rho = steady_state(build_liouvillian(twophoton_params, cutoff=24))
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho.entries).min() >= -1e-8


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[0.7, 1e-9], [0.0, 0.3]], "not hermitian"),
        ([[0.7, 0.0], [0.0, 0.2]], "trace"),
        ([[1.5, 0.0], [0.0, -0.5]], "eigenvalue"),
    ],
    ids=["hermiticity", "trace", "positivity"],
)
def test_validate_refuses_each_broken_invariant(entries, message):
    DensityMatrix(np.diag([0.7, 0.3]).astype(complex), cutoff=1).validate()
    rho = DensityMatrix(np.array(entries, dtype=complex), cutoff=1)
    with pytest.raises(InvariantViolation, match=message):
        rho.validate()


class TestCorrelations:
    def test_normalization_moment(self, twophoton_params):
        rho = steady_state(build_liouvillian(twophoton_params, cutoff=16))
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

        monkeypatch.setattr(lindblad_oracle, "build_liouvillian", no_solve)
        monkeypatch.setattr(lindblad_oracle, "steady_state", no_solve)
        with pytest.raises(InvalidParams, match="tol must be positive and finite"):
            adaptive_cutoff(bistable_params, observable=(1, 1), tol=tol)
