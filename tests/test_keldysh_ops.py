"""Doubled-space generator construction and the steady-state residual.

The two basis transcriptions are written independently, so the golden
small-cutoff matrix pins the cl_q transcription, the mixing-unitary
comparison ties the plus/minus one to it, and the residual tests certify
that the closed-form wavefunctions actually sit in the generator kernel.
"""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from kerrsteady.errors import BasisMismatch, CutoffTooSmall, InvalidParams
from kerrsteady.exact_linear import _recursion_amplitudes, wavefunction_linear
from kerrsteady.exact_twophoton import wavefunction_twophoton
from kerrsteady.keldysh_ops import (
    OperatorMatrix,
    _annihilators,
    build_generalized_hamiltonian_clq,
    build_generalized_hamiltonian_pm,
    convert_basis,
    embed_wavefunction,
    interior_projector,
    mixing_unitary,
    steady_residual,
)
from kerrsteady.lindblad_oracle import fock_annihilation
from kerrsteady.model import ModelParams, params_from_dict

from conftest import DATA_DIR, as_complex, total_photon_mask
from generator_parts import hamiltonian_parts_clq, q_grade_blocks


def lifted_ladders(cutoffs):
    """Both modes' fock_annihilation ladders, lifted densely to the doubled space."""
    m1, m2 = cutoffs
    return (
        np.kron(fock_annihilation(m1), np.eye(m2 + 1)),
        np.kron(np.eye(m1 + 1), fock_annihilation(m2)),
    )


def operator_algebra_clq_parts(params, cutoffs):
    """The cl_q generator's two parts as sparse products of lifted ladders.

    The transcription the index-built assembly replaced, kept as its
    reference: the library must reproduce every entry bit for bit.
    """
    acl, aq = _annihilators(cutoffs)
    acld, aqd = acl.conj().T, aq.conj().T
    ncl, nq = acld @ acl, aqd @ aq
    eye = sp.identity(acl.shape[0], dtype=complex, format="csr")

    dc, chi, om = params.delta_c, params.chi, params.omega
    g, kap, lam = params.gamma, params.kappa, params.lambda_2ph
    sq2 = math.sqrt(2.0)

    up = (
        0.5 * (2.0 * dc - 1j * g) * (aqd @ acl)
        + chi * ((ncl + nq - eye) @ (aqd @ acl))
        + 1j * sq2 * om * aqd
        - 0.5j * kap * ((ncl - nq + eye) @ (aqd @ acl))
        + lam * (aqd @ acld)
    )
    down = (
        0.5 * (2.0 * dc + 1j * g) * (acld @ aq)
        + chi * ((ncl + nq - eye) @ (acld @ aq))
        - 1j * sq2 * om * aq
        + 0.5j * kap * ((acld @ aq) @ (ncl - nq + eye))
        - (1j * g * eye + 2j * kap * ncl) @ (aqd @ aq)
        + np.conj(lam) * (acl @ aq)
    )
    return up, down


GENERATOR_POINTS = {
    "bistable": ModelParams(delta_c=5.0, chi=-0.25, omega=4.0, gamma=1.0),
    "twophoton": ModelParams(delta_c=-1.0, chi=1.0, omega=0.1, gamma=0.1,
                             lambda_2ph=0.2, kappa=0.1),
    "complex-lambda": ModelParams(delta_c=-2.0, chi=0.5, omega=0.7, gamma=0.3,
                                  lambda_2ph=0.15 - 0.25j, kappa=0.05),
    # rates that are not dyadic, so every product in the build rounds
    "non-dyadic": ModelParams(delta_c=0.37, chi=-1.3, omega=2.2, gamma=0.77,
                              lambda_2ph=-0.4 + 0.9j, kappa=0.33),
}


def beam_splitter_element(k, n, photons):
    """<k, N-k| exp(pi/4 (b1^+ b2 - b1 b2^+)) |n, N-n> in closed form.

    The rotation takes b1^+ to (b1^+ - b2^+)/sqrt2 and b2^+ to
    (b2^+ + b1^+)/sqrt2; expanding both powers binomially gives the
    Wigner small-d element of angle pi/2.
    """
    total = sum(
        (-1) ** (n - j) * math.comb(n, j) * math.comb(photons - n, k - j)
        for j in range(max(0, k - photons + n), min(n, k) + 1)
    )
    norm = math.factorial(k) * math.factorial(photons - k)
    norm /= math.factorial(n) * math.factorial(photons - n)
    return total * math.sqrt(norm) / 2.0 ** (photons / 2.0)


class TestModeOperators:
    def test_single_mode_ladder(self):
        lower = [[0.0, 1.0], [0.0, 0.0]]
        assert np.array_equal(fock_annihilation(1), lower)
        first, second = lifted_ladders((1, 1))
        assert np.array_equal(first, np.kron(lower, np.eye(2)))
        assert np.array_equal(second, np.kron(np.eye(2), lower))

    def test_commutator_is_identity_below_edge(self):
        a, _ = lifted_ladders((5, 3))
        comm = a @ a.conj().T - a.conj().T @ a
        want = np.kron(np.diag([1.0, 1.0, 1.0, 1.0, 1.0, -5.0]), np.eye(4))
        assert np.allclose(comm, want, atol=1e-14)

    def test_cross_mode_commutator_vanishes(self):
        acl, aq = lifted_ladders((4, 3))
        assert np.array_equal(acl @ aq - aq @ acl, np.zeros_like(acl))
        assert np.array_equal(
            acl @ aq.conj().T - aq.conj().T @ acl, np.zeros_like(acl)
        )

    def test_basis_tags_and_names(self):
        for tag in ("cl_q", "plus_minus"):
            op = OperatorMatrix(lifted_ladders((3, 2))[1], tag, (3, 2))
            assert op.basis_tag == tag
            assert op.dim == 12

    def test_shape_validation(self, bistable_params):
        with pytest.raises(InvalidParams):
            OperatorMatrix(np.zeros((3, 3), dtype=complex), "cl_q", (1, 1))
        with pytest.raises(InvalidParams):
            OperatorMatrix(np.zeros((4, 4), dtype=complex), "diagonal", (1, 1))
        with pytest.raises(InvalidParams):
            build_generalized_hamiltonian_clq(bistable_params, (0, 3))


class TestGeneratorStructure:
    def test_golden_small_cutoff_matrix(self, golden_hamiltonian):
        params = params_from_dict(golden_hamiltonian["params"])
        cutoffs = tuple(golden_hamiltonian["cutoffs"])
        want = np.array(
            [[complex(c[0], c[1]) for c in row] for row in golden_hamiltonian["matrix"]]
        )
        built = build_generalized_hamiltonian_clq(params, cutoffs)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(built.entries - want)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "basis,builder",
        [("cl_q", build_generalized_hamiltonian_clq),
         ("plus_minus", build_generalized_hamiltonian_pm)],
    )
    def test_frozen_twophoton_generators(self, basis, builder):
        """Both builders, entry for entry, where the kappa and lambda terms act.

        golden_generators_twophoton_5x3.json was written with the dense
        np.kron builders that preceded the sparse assembly: at
        params_from_dict(data["params"]) (the two-photon reference point
        with lambda_im = -0.07) and cutoffs (5, 3), each generator's
        entries went out as [[[z.real, z.imag] for z in row] for row in
        entries] under the keys "cl_q" and "plus_minus", via json.dump,
        whose repr floats round-trip exactly.
        """
        with open(DATA_DIR / "golden_generators_twophoton_5x3.json") as fh:
            data = json.load(fh)
        want = np.array([[as_complex(c) for c in row] for row in data[basis]])
        built = builder(params_from_dict(data["params"]), tuple(data["cutoffs"]))
        assert np.array_equal(built.entries, want)
        # Row-major storage keeps the residual's matvec, and so its
        # printed digits, the same as with the dense builders.
        assert built.entries.flags["C_CONTIGUOUS"]

    def test_parts_sum_to_full_generator(self, bistable_params):
        up, down = hamiltonian_parts_clq(bistable_params, (8, 3))
        full = build_generalized_hamiltonian_clq(bistable_params, (8, 3))
        assert np.array_equal(up.entries + down.entries, full.entries)

    def test_q_grading(self, twophoton_params):
        up, down = hamiltonian_parts_clq(twophoton_params, (10, 4))
        assert set(q_grade_blocks(up)) == {1}
        assert set(q_grade_blocks(down)) <= {-1, 0}

    def test_q_grade_blocks_of_ladders(self):
        first, second = lifted_ladders((6, 3))
        aq = OperatorMatrix(second, "cl_q", (6, 3))
        aqd = OperatorMatrix(aq.entries.conj().T, "cl_q", (6, 3))
        acl = OperatorMatrix(first, "cl_q", (6, 3))
        assert q_grade_blocks(aq) == {-1: np.sqrt(3.0)}
        assert q_grade_blocks(aqd) == {1: np.sqrt(3.0)}
        assert q_grade_blocks(acl) == {0: np.sqrt(6.0)}
        zero = OperatorMatrix(np.zeros((28, 28), dtype=complex), "cl_q", (6, 3))
        assert q_grade_blocks(zero) == {}

    @pytest.mark.parametrize("params, offsets", [
        (ModelParams(delta_c=5.0, chi=-0.25, omega=4.0, gamma=1.0), {0, 1}),
        (ModelParams(delta_c=-1.0, chi=1.0, omega=0.1, gamma=0.1,
                     lambda_2ph=0.2, kappa=0.1), {-1, 0, 1}),
        (ModelParams(delta_c=-2.0, chi=0.5, omega=0.7, gamma=0.3,
                     lambda_2ph=0.15 - 0.25j, kappa=0.05), {-1, 0, 1}),
    ], ids=["linear", "twophoton", "complex-lambda"])
    def test_recursion_solves_the_raising_band(self, params, offsets):
        # The steady state is the quantum-mode vacuum, and only the raising
        # part maps it anywhere: into q=1, through the block with rows
        # (n, q=1) and columns (m, q=0).  That block is a band, and the
        # amplitude recursion is forward substitution through it.
        top = 40
        up, _ = hamiltonian_parts_clq(params, (top, 1))
        band = up.entries[1::2, 0::2]
        rows, cols = np.nonzero(band)
        assert set(cols - rows) == offsets
        betas, _ = _recursion_amplitudes(params, 0.0, top, top)
        terms = band[:top] * np.asarray(betas)
        scale = np.abs(terms).sum(axis=1)
        assert np.all(np.abs(terms.sum(axis=1)) <= 1e-13 * scale)

    def test_down_part_kills_quantum_vacuum(self, bistable_params):
        _, down = hamiltonian_parts_clq(bistable_params, (60, 4))
        vec = embed_wavefunction(wavefunction_linear(bistable_params), (60, 4))
        assert np.array_equal(down.entries @ vec, np.zeros_like(vec))

    def test_image_leaves_quantum_vacuum(self, bistable_params):
        h = build_generalized_hamiltonian_clq(bistable_params, (60, 4))
        vec = embed_wavefunction(wavefunction_linear(bistable_params), (60, 4))
        image = (h.entries @ vec).reshape(61, 5)
        assert np.array_equal(image[:, 0], np.zeros(61, dtype=complex))

    def test_double_vacuum_annihilated_without_drives(self):
        p = ModelParams(delta_c=5.0, chi=-0.25, omega=0.0, gamma=1.0)
        h = build_generalized_hamiltonian_clq(p, (6, 3))
        assert np.array_equal(h.entries[:, 0], np.zeros(h.dim, dtype=complex))

    def test_pure_dissipator_kernel_contains_double_vacuum(self):
        p = ModelParams(delta_c=0.0, chi=0.0, omega=0.0, gamma=0.8)
        pm = build_generalized_hamiltonian_pm(p, (5, 5))
        assert np.array_equal(pm.entries[:, 0], np.zeros(pm.dim, dtype=complex))

    def test_not_hermitian_with_loss(self, bistable_params, twophoton_params):
        for p, builder in (
            (bistable_params, build_generalized_hamiltonian_clq),
            (twophoton_params, build_generalized_hamiltonian_pm),
        ):
            h = builder(p, (6, 4)).entries
            assert np.max(np.abs(h - h.conj().T)) > 0.1


class TestBasisEquivalence:
    def test_mixing_unitary_is_unitary(self):
        w = mixing_unitary((6, 4))
        assert np.allclose(w @ w.conj().T, np.eye(w.shape[0]), atol=1e-12)

    @pytest.mark.parametrize("cutoffs", [(5, 3), (6, 4)])
    def test_mixing_unitary_matches_dense_construction(self, cutoffs):
        """Equal to the all-dense construction of the same rotation to 1e-14.

        Dense kron ladders, a dense expm of the beam-splitter generator,
        then the second-mode parity applied as a dense matrix product.
        mixing_unitary exponentiates one total-photon sector at a time
        through a small Hermitian eigenproblem, so the two agree to
        rounding, not bit for bit (8.3e-16 and 8.6e-16 with numpy 2.4
        and scipy 1.17).
        """
        from scipy.linalg import expm

        m1, m2 = cutoffs
        b1, b2 = lifted_ladders(cutoffs)
        parity2 = np.kron(
            np.eye(m1 + 1, dtype=complex),
            np.diag((-1.0) ** np.arange(m2 + 1)).astype(complex),
        )
        rotation = expm((np.pi / 4.0) * (b1.conj().T @ b2 - b1 @ b2.conj().T))
        assert np.max(np.abs(mixing_unitary(cutoffs) - parity2 @ rotation)) <= 1e-14

    def test_mixing_unitary_is_real_orthogonal_by_sector(self):
        m1, m2 = 40, 4
        w = mixing_unitary((m1, m2))
        n1 = np.repeat(np.arange(m1 + 1), m2 + 1)
        n2 = np.tile(np.arange(m2 + 1), m1 + 1)
        total = n1 + n2
        assert np.all(w[total[:, None] != total[None, :]] == 0.0)
        assert np.all(w.imag == 0.0)
        assert np.max(np.abs(w @ w.T - np.eye(w.shape[0]))) <= 1e-14

    def test_mixing_unitary_matches_closed_form_on_complete_sectors(self):
        m1, m2 = 40, 4
        w = mixing_unitary((m1, m2))
        for photons in range(min(m1, m2) + 1):
            for k in range(photons + 1):
                row = k * (m2 + 1) + photons - k
                parity = (-1) ** (photons - k)
                for n in range(photons + 1):
                    col = n * (m2 + 1) + photons - n
                    want = parity * beam_splitter_element(k, n, photons)
                    assert abs(w[row, col] - want) <= 1e-14, (photons, k, n)

    @pytest.mark.parametrize("cutoffs", [(5, 3), (7, 1), (40, 4), (60, 4), (180, 4)])
    @pytest.mark.parametrize("point", sorted(GENERATOR_POINTS))
    def test_clq_parts_match_operator_algebra_bitwise(self, point, cutoffs):
        # Q = 1 puts the +-1 and +-Q steps on shared diagonals.
        params = GENERATOR_POINTS[point]
        want_up, want_down = operator_algebra_clq_parts(params, cutoffs)
        up, down = hamiltonian_parts_clq(params, cutoffs)
        assert np.array_equal(up.entries, want_up.toarray())
        assert np.array_equal(down.entries, want_down.toarray())
        full = build_generalized_hamiltonian_clq(params, cutoffs)
        assert np.array_equal(full.entries, (want_up + want_down).toarray())
        assert full.entries.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("model", ["linear", "twophoton"])
    def test_transform_matches_on_complete_sectors(
        self, model, bistable_params, twophoton_params
    ):
        p = bistable_params if model == "linear" else twophoton_params
        cutoffs = (12, 4)
        clq = build_generalized_hamiltonian_clq(p, cutoffs)
        rotated = convert_basis(build_generalized_hamiltonian_pm(p, cutoffs), "cl_q")
        assert rotated.basis_tag == "cl_q"
        mask = total_photon_mask(cutoffs, min(cutoffs))
        diff = np.abs(rotated.entries - clq.entries)[np.ix_(mask, mask)]
        assert diff.max() <= 1e-10

    def test_round_trip_is_identity(self, twophoton_params):
        clq = build_generalized_hamiltonian_clq(twophoton_params, (8, 4))
        back = convert_basis(convert_basis(clq, "plus_minus"), "cl_q")
        assert np.allclose(back.entries, clq.entries, atol=1e-10)

    def test_convert_same_basis_is_noop(self, bistable_params):
        clq = build_generalized_hamiltonian_clq(bistable_params, (4, 2))
        assert convert_basis(clq, "cl_q") is clq
        with pytest.raises(InvalidParams):
            convert_basis(clq, "rotated")


class TestEmbedding:
    def test_embeds_in_quantum_vacuum(self, bistable_params):
        wf = wavefunction_linear(bistable_params)
        vec = embed_wavefunction(wf, (wf.truncation, 3)).reshape(-1, 4)
        assert np.array_equal(vec[:, 1:], np.zeros((wf.truncation + 1, 3)))
        np.testing.assert_array_equal(vec[:, 0], wf.amplitudes)

    def test_refuses_lossy_truncation(self, bistable_params):
        wf = wavefunction_linear(bistable_params)
        with pytest.raises(CutoffTooSmall):
            embed_wavefunction(wf, (10, 3))

    @pytest.mark.parametrize("cutoffs", [(5.7, True), (2.9, 1.5), (5, 2.0), ("5", 2)])
    def test_non_integer_cutoffs_refused(self, bistable_params, cutoffs):
        for build in (
            lambda: build_generalized_hamiltonian_clq(bistable_params, cutoffs),
            lambda: build_generalized_hamiltonian_pm(bistable_params, cutoffs),
            lambda: hamiltonian_parts_clq(bistable_params, cutoffs),
            lambda: mixing_unitary(cutoffs),
            lambda: OperatorMatrix(np.zeros((18, 18), dtype=complex), "cl_q", cutoffs),
        ):
            with pytest.raises(InvalidParams, match="mode cutoff must be an integer"):
                build()

    @pytest.mark.parametrize("cutoffs", [(5, 3, 2), (5,), 5, None], ids=["three", "one", "int", "none"])
    def test_cutoffs_must_be_a_pair(self, bistable_params, cutoffs):
        # (5, 3, 2) used to build quietly at (5, 3)
        for build in (
            lambda: build_generalized_hamiltonian_clq(bistable_params, cutoffs),
            lambda: build_generalized_hamiltonian_pm(bistable_params, cutoffs),
            lambda: mixing_unitary(cutoffs),
            lambda: OperatorMatrix(np.zeros((24, 24), dtype=complex), "cl_q", cutoffs),
        ):
            with pytest.raises(InvalidParams, match="cutoffs must be a pair"):
                build()

    def test_entries_must_be_an_ndarray(self):
        with pytest.raises(InvalidParams, match="entries must be an ndarray"):
            OperatorMatrix([[0]], "cl_q", (1, 1))
        with pytest.raises(InvalidParams, match="entries must be an ndarray"):
            OperatorMatrix(np.zeros((4, 4)).tolist(), "cl_q", (1, 1))

    def test_numpy_integer_cutoffs_accepted(self, bistable_params):
        op = build_generalized_hamiltonian_clq(bistable_params, (np.int64(5), np.int32(2)))
        assert op.cutoffs == (5, 2) and all(type(c) is int for c in op.cutoffs)
        assert np.array_equal(
            op.entries, build_generalized_hamiltonian_clq(bistable_params, (5, 2)).entries
        )
        assert np.array_equal(mixing_unitary((np.int64(2), 2)), mixing_unitary((2, 2)))

    def test_interior_projector_bounds(self):
        mask = interior_projector((20, 4), 12)
        assert mask.sum() == 13 * 5
        for bad in (-1, 18, 20):
            with pytest.raises(InvalidParams):
                interior_projector((20, 4), bad)


class TestSteadyResidual:
    def test_vacuum_residual_is_exactly_zero(self):
        p = ModelParams(delta_c=5.0, chi=-0.25, omega=0.0, gamma=1.0)
        h = build_generalized_hamiltonian_clq(p, (20, 4))
        rep = steady_residual(h, wavefunction_linear(p, truncation=20), 12)
        assert rep.residual_norm == 0.0
        assert rep.edge_norm == 0.0

    def test_linear_steady_state_annihilated(self, bistable_params):
        wf = wavefunction_linear(bistable_params, truncation=60)
        h = build_generalized_hamiltonian_clq(bistable_params, (60, 4))
        rep = steady_residual(h, wf, 50)
        assert rep.residual_norm <= 1e-8
        assert rep.interior_cut == 50

    def test_twophoton_steady_state_annihilated(self, twophoton_params):
        wf = wavefunction_twophoton(twophoton_params, truncation=60)
        h = build_generalized_hamiltonian_clq(twophoton_params, (60, 4))
        rep = steady_residual(h, wf, 50)
        assert rep.residual_norm <= 1e-8

    def test_perturbed_state_detected(self, bistable_params):
        wf = wavefunction_linear(bistable_params, truncation=60)
        wf.amplitudes[1] += 0.01
        h = build_generalized_hamiltonian_clq(bistable_params, (60, 4))
        rep = steady_residual(h, wf, 50)
        assert rep.residual_norm > 1e-3

    @pytest.mark.parametrize("cut", [50.5, 50.0, True, "50"])
    def test_non_integer_interior_cut_refused(self, bistable_params, cut):
        wf = wavefunction_linear(bistable_params, truncation=60)
        h = build_generalized_hamiltonian_clq(bistable_params, (60, 4))
        with pytest.raises(InvalidParams, match="interior cut must be an integer"):
            steady_residual(h, wf, cut)

    def test_numpy_integer_interior_cut_accepted(self, bistable_params):
        wf = wavefunction_linear(bistable_params, truncation=60)
        h = build_generalized_hamiltonian_clq(bistable_params, (60, 4))
        rep = steady_residual(h, wf, np.int64(50))
        assert rep == steady_residual(h, wf, 50)
        assert type(rep.interior_cut) is int

    def test_rejects_plus_minus_operator(self, bistable_params):
        pm = build_generalized_hamiltonian_pm(bistable_params, (60, 4))
        wf = wavefunction_linear(bistable_params, truncation=60)
        with pytest.raises(BasisMismatch):
            steady_residual(pm, wf, 50)

    @pytest.mark.parametrize(
        "params,maker",
        [
            (ModelParams(delta_c=5.0, chi=-0.25, omega=2.0, gamma=1.0), wavefunction_linear),
            (ModelParams(delta_c=-3.0, chi=0.5, omega=1.5, gamma=1.0), wavefunction_linear),
            (
                ModelParams(
                    delta_c=-1.0, chi=1.0, omega=0.0, gamma=0.1, lambda_2ph=0.2, kappa=0.1
                ),
                wavefunction_twophoton,
            ),
            (
                ModelParams(
                    delta_c=-1.0, chi=1.0, omega=0.1, gamma=0.1, lambda_2ph=0.2, kappa=0.1
                ),
                wavefunction_twophoton,
            ),
            (ModelParams(delta_c=5.0, chi=-0.25, omega=0.0, gamma=1.0), wavefunction_linear),
        ],
        ids=["linear-weak", "linear-red", "pump-only", "pump-driven", "vacuum"],
    )
    def test_residual_never_grows_with_cutoff(self, params, maker):
        # The interior rows see identical stencils once the cutoff clears
        # the interior band, so the sequence sits at the noise floor;
        # "never grows" tolerates 10% wiggle there.
        norms = []
        for cut in (20, 40, 60, 80):
            wf = maker(params, truncation=cut)
            h = build_generalized_hamiltonian_clq(params, (cut, 4))
            norms.append(steady_residual(h, wf, 12).residual_norm)
        for earlier, later in zip(norms, norms[1:]):
            assert later <= 1.1 * earlier + 1e-15
        assert all(r <= 1e-10 for r in norms)

