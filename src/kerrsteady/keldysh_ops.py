"""Doubled-space operators certifying the closed-form steady states.

The master equation is equivalent to a Schroedinger-like problem on two
Fock ladders.  In the "plus/minus" basis the generator is the difference
of two copies of the Hamiltonian plus loss couplings between them; a
50/50 mode-mixing rotation (followed by a parity flip on the second
mode) carries it to the "classical/quantum" basis, where it splits into
a part that strictly raises the quantum-mode excitation and a part that
never raises it.  In that basis the steady state is the closed-form
amplitude sequence sitting in the quantum-mode vacuum, so applying the
generator to the embedded sequence must give zero away from the
truncation edges.  steady_residual measures exactly that.

The two bases are built by independent transcriptions and related only
through the explicit mixing unitary, which makes the basis-equivalence
test a real check rather than a tautology.

The cl_q generator is assembled straight from index arrays: each term
is one lifted ladder monomial, which moves every level (n1, n2) by a
fixed step, scaled by a diagonal, and its values are formed by the same
floating-point operations, in the same order, as the operator products
of the oracle's single-mode lindblad_oracle.fock_annihilation ladders,
so every entry equals the one a matrix-product build gives.  The
plus/minus generator stays an operator-algebra transcription (sparse
kron lifts of those ladders and of hamiltonian_fock), the independent
side of the basis check.  Both are stored dense and row-major (a
column-major copy changes the last digits of the residual's
matrix-vector product): the 16 d^2 bytes of OperatorMatrix.entries,
d = (c+1)(q+1), are the memory bound (36 MB at cutoffs (300, 4)).  The
mixing unitary is built one total-photon sector at a time from small
Hermitian eigenproblems.  scipy.sparse is imported only by the
plus/minus builder, so importing this module loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BasisMismatch, CutoffTooSmall, InvalidParams
from .exact_linear import SteadyWavefunction
from .lindblad_oracle import fock_annihilation, hamiltonian_fock
from .model import ModelParams, _check_fock_size, _check_pair

if TYPE_CHECKING:
    import scipy.sparse as sp

CL_Q = "cl_q"
PLUS_MINUS = "plus_minus"
_BASES = (CL_Q, PLUS_MINUS)

_EMBED_DROP_TOL = 1e-13
# Rows within a few Fock indices of the classical-mode truncation edge
# pick up artifacts from the pair terms; the interior must stay clear.
_EDGE_MARGIN = 3


@dataclass
class OperatorMatrix:
    """Dense operator on the doubled Fock space with a basis tag.

    cutoffs = (first-mode cutoff, second-mode cutoff); the first tensor
    factor is the classical (or plus) mode.  The builders assemble the
    operator sparse and hand over a row-major ndarray, whose 16 d^2 bytes
    bound the memory of a doubled-space run.
    """

    entries: np.ndarray
    basis_tag: str
    cutoffs: tuple[int, int]

    def __post_init__(self) -> None:
        self.cutoffs = _check_cutoffs(self.cutoffs)
        _check_basis(self.basis_tag)
        if not isinstance(self.entries, np.ndarray):
            raise InvalidParams(f"entries must be an ndarray, got {type(self.entries).__name__}")
        if self.entries.shape != (self.dim, self.dim):
            raise InvalidParams(
                f"entries shape {self.entries.shape} inconsistent with cutoffs {self.cutoffs}"
            )

    @property
    def dim(self) -> int:
        return (self.cutoffs[0] + 1) * (self.cutoffs[1] + 1)


def _check_cutoffs(cutoffs: tuple[int, int]) -> tuple[int, int]:
    """Exactly two integer cutoffs >= 1, as Python ints."""
    m1, m2 = _check_pair("cutoffs", cutoffs)
    return (_check_fock_size("first-mode cutoff", m1, 1),
            _check_fock_size("second-mode cutoff", m2, 1))


def _check_basis(tag: str) -> None:
    if tag not in _BASES:
        raise InvalidParams(f"unknown basis tag {tag!r}")


def _annihilators(cutoffs: tuple[int, int]) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Both modes' fock_annihilation ladders, lifted sparse to the doubled space."""
    import scipy.sparse as sp

    m1, m2 = _check_cutoffs(cutoffs)
    return (
        sp.kron(fock_annihilation(m1), sp.identity(m2 + 1, dtype=complex), format="csr"),
        sp.kron(sp.identity(m1 + 1, dtype=complex), fock_annihilation(m2), format="csr"),
    )


# A lifted ladder monomial moves level (n1, n2) to (n1 + s1, n2 + s2) with
# s1, s2 in {-1, 0, +1}: it reads the source levels _SRC[s] of a mode
# and writes the destination levels _DST[s].
_SRC = {-1: slice(1, None), 0: slice(None), 1: slice(None, -1)}
_DST = {-1: slice(None, -1), 0: slice(None), 1: slice(1, None)}


def _clq_parts(
    params: ModelParams, cutoffs: tuple[int, int]
) -> tuple[list, list]:
    """Raising and non-raising parts as (shift, values) terms.

    values[i, j] is the element taking the source level (i, j) of the
    shift's _SRC grid to its shifted level.  Each value is formed by the
    operations, in the order, that the operator products

        up   = (dc - i g/2) aq^+ acl + chi (Ncl + Nq - 1) aq^+ acl
               + i sqrt2 om aq^+ - (i kap/2) (Ncl - Nq + 1) aq^+ acl
               + lam aq^+ acl^+
        down = (dc + i g/2) acl^+ aq + chi (Ncl + Nq - 1) acl^+ aq
               - i sqrt2 om aq + (i kap/2) acl^+ aq (Ncl - Nq + 1)
               - (i g + 2 i kap Ncl) aq^+ aq + lam^* acl aq

    of the fock_annihilation ladders carry out, so every entry is the
    one a matrix-product build gives.  All three pair hops share one
    value grid, sqrt of the upper level of each mode they touch.
    cutoffs must already have passed _check_cutoffs.
    """
    m1, m2 = cutoffs
    s1 = np.sqrt(np.arange(m1 + 1.0))[:, None]
    s2 = np.sqrt(np.arange(m2 + 1.0))[None, :]
    ncl, nq = s1 * s1, s2 * s2
    kerr = ncl + nq - 1.0
    loss = ncl - nq + 1.0
    hop = s2[:, 1:] * s1[1:]

    dc, chi, om = params.delta_c, params.chi, params.omega
    g, kap, lam = params.gamma, params.kappa, params.lambda_2ph
    sq2 = math.sqrt(2.0)

    up = [
        ((-1, 1), 0.5 * (2.0 * dc - 1j * g) * hop
                  + chi * (kerr[:-1, 1:] * hop)
                  - 0.5j * kap * (loss[:-1, 1:] * hop)),
        ((0, 1), 1j * sq2 * om * s2[:, 1:]),
        ((1, 1), lam * hop),
    ]
    down = [
        ((1, -1), 0.5 * (2.0 * dc + 1j * g) * hop
                  + chi * (kerr[1:, :-1] * hop)
                  + 0.5j * kap * (hop * loss[:-1, 1:])),
        ((0, -1), -(1j * sq2 * om * s2[:, 1:])),
        ((0, 0), -((1j * g + 2j * kap * ncl) * nq)),
        ((-1, -1), np.conj(lam) * hop),
    ]
    return up, down


def _assemble(cutoffs: tuple[int, int], *parts: list) -> np.ndarray:
    """Row-major dense matrix holding every term of the given parts.

    No two terms share a shift, so each entry is written once.
    """
    m1, m2 = cutoffs
    level = np.arange((m1 + 1) * (m2 + 1)).reshape(m1 + 1, m2 + 1)
    out = np.zeros((level.size, level.size), dtype=complex)
    for part in parts:
        for (d1, d2), values in part:
            out[level[_DST[d1], _DST[d2]], level[_SRC[d1], _SRC[d2]]] = values
    return out


def _pm_matrix(params: ModelParams, cutoffs: tuple[int, int]) -> np.ndarray:
    import scipy.sparse as sp

    m1, m2 = _check_cutoffs(cutoffs)
    hp = sp.kron(hamiltonian_fock(params, m1), sp.identity(m2 + 1, dtype=complex), format="csr")
    hm = sp.kron(sp.identity(m1 + 1, dtype=complex), hamiltonian_fock(params, m2), format="csr")
    ap, am = _annihilators(cutoffs)
    apd, amd = ap.conj().T, am.conj().T

    g, kap = params.gamma, params.kappa
    total = (
        hp
        - hm
        + 1j * g * (ap @ amd)
        - 0.5j * g * (apd @ ap + amd @ am)
    )
    if kap != 0.0:
        total = total + 1j * kap * (ap @ ap @ amd @ amd) - 0.5j * kap * (
            apd @ apd @ ap @ ap + amd @ amd @ am @ am
        )
    return total.toarray(order="C")


def build_generalized_hamiltonian_clq(
    params: ModelParams, cutoffs: tuple[int, int]
) -> OperatorMatrix:
    """Full doubled-space generator in the classical/quantum basis."""
    cutoffs = _check_cutoffs(cutoffs)
    return OperatorMatrix(_assemble(cutoffs, *_clq_parts(params, cutoffs)), CL_Q, cutoffs)


def build_generalized_hamiltonian_pm(
    params: ModelParams, cutoffs: tuple[int, int]
) -> OperatorMatrix:
    """Full doubled-space generator in the plus/minus basis.

    Transcribed directly from the two-copy form, independently of the
    cl_q transcription; the two builders are tied together only by
    mixing_unitary, which the basis-equivalence test exploits.
    """
    return OperatorMatrix(_pm_matrix(params, cutoffs), PLUS_MINUS, cutoffs)


def mixing_unitary(cutoffs: tuple[int, int]) -> np.ndarray:
    """Rotation carrying plus/minus operators to classical/quantum ones.

    A parity flip on the second mode composed with the 50/50 beam
    splitter exp(pi/4 (b1^+ b2 - b1 b2^+)) of the truncated ladders.  The
    generator conserves n1 + n2, so the rotation is built one total-photon
    sector at a time: there the generator is a real antisymmetric
    tridiagonal G of at most min(cutoffs) + 1 states, exponentiated through
    the eigenvectors of the Hermitian iG.  Sectors cut by the box take the
    same path with the truncated G.  The exact rotation is real
    orthogonal, so only the real part is kept.

    Exact only on sectors whose total photon number fits under both
    cutoffs; outside them the beam splitter leaks through the truncation.
    """
    m1, m2 = _check_cutoffs(cutoffs)
    level = np.arange((m1 + 1) * (m2 + 1)).reshape(m1 + 1, m2 + 1)
    w = np.zeros((level.size, level.size), dtype=complex)
    photons = np.arange(m1 + m2 + 1)
    first = np.maximum(photons - m2, 0)
    size = np.minimum(photons, m1) - first + 1
    for k in np.unique(size):
        # every sector of k states at once, n1 rising along the last axis
        total = photons[size == k][:, None]
        n1 = first[size == k][:, None] + np.arange(k)
        low = n1[:, :-1]
        # pi/4 <n1+1, N-n1-1| b1^+ b2 |n1, N-n1>, the subdiagonal of G
        hop = (math.pi / 4.0) * np.sqrt((low + 1.0) * (total - low))
        gen = np.zeros((total.size, k, k))
        step = np.arange(k - 1)
        gen[:, step + 1, step] = hop
        gen[:, step, step + 1] = -hop
        vals, vecs = np.linalg.eigh(1j * gen)
        block = (vecs * np.exp(-1j * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        states = level[n1, total - n1]
        w[states[:, :, None], states[:, None, :]] = block.real
    # the parity flip: negate the rows of odd second-mode level
    w[level[:, 1::2].ravel()] *= -1.0
    return w


def convert_basis(op: OperatorMatrix, target: str) -> OperatorMatrix:
    """Rewrite an operator in the other basis via the mixing unitary."""
    _check_basis(target)
    if op.basis_tag == target:
        return op
    w = mixing_unitary(op.cutoffs)
    if target == CL_Q:
        entries = w @ op.entries @ w.conj().T
    else:
        entries = w.conj().T @ op.entries @ w
    return OperatorMatrix(entries, target, op.cutoffs)


def embed_wavefunction(wavefunction: SteadyWavefunction, cutoffs: tuple[int, int]) -> np.ndarray:
    """Amplitude sequence as a cl_q doubled-space vector in the quantum vacuum."""
    m1, m2 = _check_cutoffs(cutoffs)
    amps = wavefunction.amplitudes
    kept = amps[: m1 + 1]
    dropped = float(np.sum(np.abs(amps[m1 + 1 :]) ** 2))
    if dropped > _EMBED_DROP_TOL:
        raise CutoffTooSmall(
            f"embedding at classical cutoff {m1} would discard weight {dropped:.3e}"
        )
    padded = np.zeros(m1 + 1, dtype=complex)
    padded[: kept.size] = kept
    qvac = np.zeros(m2 + 1, dtype=complex)
    qvac[0] = 1.0
    return np.kron(padded, qvac)


def interior_projector(
    cutoffs: tuple[int, int], interior_cut: int
) -> np.ndarray:
    """Boolean mask of components below the classical-mode interior cut.

    The quantum mode needs no masking: the generator's image of a
    quantum-vacuum state has no support above quantum level one, far
    from that mode's edge at any sensible cutoff.
    """
    m1, m2 = _check_cutoffs(cutoffs)
    interior_cut = _check_fock_size("interior cut", interior_cut, 0)
    if interior_cut > m1 - _EDGE_MARGIN:
        raise InvalidParams(
            f"interior cut {interior_cut} must lie in [0, {m1 - _EDGE_MARGIN}]"
        )
    cl_ok = np.arange(m1 + 1) <= interior_cut
    return np.kron(cl_ok, np.ones(m2 + 1, dtype=bool))


@dataclass(frozen=True)
class ResidualReport:
    """Norm split of the generator image of an embedded steady state.

    residual_norm covers classical-mode components at or below
    interior_cut and should vanish to numerical precision for a true
    steady state; edge_norm collects the rest, which is dominated by
    truncation-edge artifacts and shrinks as the cutoff grows.
    """

    residual_norm: float
    edge_norm: float
    interior_cut: int


def steady_residual(
    hamiltonian: OperatorMatrix,
    psi: SteadyWavefunction,
    interior_cut: int,
) -> ResidualReport:
    """Apply the generator to an embedded steady state and split the norm.

    The wavefunction should fill the classical cutoff (compute it with a
    fixed truncation equal to that cutoff); a shorter sequence is padded
    with zeros, which shifts the effective truncation edge inward and
    leaks artifacts into the interior.
    """
    if hamiltonian.basis_tag != CL_Q:
        raise BasisMismatch(
            "steady_residual expects the cl_q basis; run the operator "
            "through convert_basis first"
        )
    vec = embed_wavefunction(psi, hamiltonian.cutoffs)
    mask = interior_projector(hamiltonian.cutoffs, interior_cut)
    image = hamiltonian.entries @ vec
    return ResidualReport(
        residual_norm=float(np.linalg.norm(image[mask])),
        edge_norm=float(np.linalg.norm(image[~mask])),
        interior_cut=int(interior_cut),
    )

