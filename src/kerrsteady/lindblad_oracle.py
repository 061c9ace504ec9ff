"""Truncated-Fock Lindblad steady states, the package's independent oracle.

The master equation for the driven Kerr resonator,

    d rho/dt = -i [H, rho] + gamma D[a] rho + kappa D[a^2] rho,
    D[c] rho = c rho c^dag - (c^dag c rho + rho c^dag c) / 2,

is vectorized column-major (vec(A rho B) = (B^T kron A) vec(rho)) on a Fock
space truncated at `cutoff` photons.  The steady state solves the bordered
system {L v = 0, trace v = 1}, formed by replacing the row of the |0><0|
component with the trace functional.  The bordered matrix is factorized by
sparse LU with partial pivoting; the Liouvillian couples each Fock element
to a handful of neighbors, so the factorization stays cheap at cutoffs
where a dense solve would thrash memory.

Nothing in this module touches the closed-form machinery; that is the
point.  Agreement between the two routes is the package's main evidence of
correctness.  scipy is imported by the functions that use it, so importing
this module (and the CLI's grid commands) loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CutoffTooSmall,
    InvalidParams,
    InvariantViolation,
    NonConvergence,
    SingularSystem,
)
from .model import ModelParams, _check_fock_size, _check_moment_orders, _check_pair

if TYPE_CHECKING:
    import scipy.sparse as sp

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIG_SLACK = -1e-8
# adaptive_cutoff starts at no lower cutoff and solves at no higher one
_ADAPTIVE_START = 16
_ADAPTIVE_CAP = 256


@dataclass
class DensityMatrix:
    """Steady-state density matrix on a truncated Fock space.

    entries is (cutoff+1) x (cutoff+1), hermitized.  herm_defect records
    the largest element removed by hermitization and fixed_point_residual
    the max-norm of L vec(rho) after the solve; both are diagnostics, not
    part of the physical state.
    """

    entries: np.ndarray
    cutoff: int
    herm_defect: float = 0.0
    fixed_point_residual: float = 0.0

    def validate(self) -> None:
        """Raise InvariantViolation unless hermitian, unit trace, positive.

        Positivity allows eigenvalues down to -1e-8 to absorb truncation
        and roundoff; anything lower means the cutoff was too small for
        the state actually reached.
        """
        defect = np.max(np.abs(self.entries - self.entries.conj().T))
        if defect > _HERM_TOL:
            raise InvariantViolation(f"density matrix not hermitian: defect {defect:.3e}")
        tr = complex(np.trace(self.entries))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise InvariantViolation(f"density matrix trace {tr!r} differs from 1")
        lowest = float(np.linalg.eigvalsh(self.entries).min())
        if lowest < _EIG_SLACK:
            raise InvariantViolation(f"density matrix eigenvalue {lowest:.3e} below slack")


@dataclass
class Liouvillian:
    """Vectorized master-equation generator at a fixed Fock cutoff."""

    matrix: sp.csc_matrix
    cutoff: int


def fock_annihilation(cutoff: int) -> np.ndarray:
    """Dense annihilation operator on the (cutoff+1)-level Fock space."""
    cutoff = _check_fock_size("cutoff", cutoff, 1)
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1.0)), 1).astype(complex)


def hamiltonian_fock(params: ModelParams, cutoff: int) -> np.ndarray:
    """Dense Hamiltonian matrix in the truncated Fock basis."""
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


def build_liouvillian(params: ModelParams, cutoff: int) -> Liouvillian:
    """Assemble the vectorized generator as a sparse matrix.

    Column-major stacking, so vec(rho)[m + n*(cutoff+1)] = rho[m, n] and
    the |0><0| component sits at index 0.
    """
    import scipy.sparse as sp

    cutoff = _check_fock_size("cutoff", cutoff, 1)
    d = cutoff + 1
    a = sp.csc_matrix(fock_annihilation(cutoff))
    h = sp.csc_matrix(hamiltonian_fock(params, cutoff))
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
    return Liouvillian(matrix=lmat.tocsc(), cutoff=cutoff)


def splu(matrix: sp.csc_matrix):
    """Sparse LU factorization of a CSC matrix (scipy.sparse.linalg.splu).

    scipy is imported on the first call, not with this module.
    """
    from scipy.sparse.linalg import splu as factorize

    return factorize(matrix)


def steady_state(liouvillian: Liouvillian) -> DensityMatrix:
    """Solve the bordered system for the unique steady state.

    The row of the |0><0| component is replaced by the trace functional
    and the right side is the unit vector selecting it, so the solution
    is trace-normalized by construction.  The raw solution is hermitized
    and validated before being returned.
    """
    import scipy.sparse as sp

    d = liouvillian.cutoff + 1
    n2 = d * d
    trace_row = sp.csr_matrix(
        (np.ones(d), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))), shape=(1, n2)
    ).astype(complex)
    lcsr = liouvillian.matrix.tocsr()
    bordered = sp.vstack([trace_row, lcsr[1:, :]], format="csc")

    rhs = np.zeros(n2, dtype=complex)
    rhs[0] = 1.0
    try:
        factor = splu(bordered)
        vec = factor.solve(rhs)
    except RuntimeError as exc:
        raise SingularSystem(f"bordered steady-state system not factorizable: {exc}") from exc
    if not np.all(np.isfinite(vec.view(float))):
        raise SingularSystem("bordered solve produced nonfinite entries")

    fixed_point = float(np.max(np.abs(liouvillian.matrix @ vec)))
    raw = vec.reshape((d, d), order="F")
    herm_defect = float(np.max(np.abs(raw - raw.conj().T)))
    rho = DensityMatrix(
        entries=0.5 * (raw + raw.conj().T),
        cutoff=liouvillian.cutoff,
        herm_defect=herm_defect,
        fixed_point_residual=fixed_point,
    )
    rho.validate()
    return rho


def steady_state_at(params: ModelParams, cutoff: int) -> DensityMatrix:
    """Convenience wrapper: build the generator and solve in one call."""
    return steady_state(build_liouvillian(params, cutoff))


def correlation_from_rho(rho: DensityMatrix, l: int, k: int) -> complex:
    """Normally ordered moment <a^dag^l a^k> = Tr(rho a^dag^l a^k).

    Demands l + k <= cutoff / 2 so the operator still acts well inside
    the truncated space.
    """
    l, k = _check_moment_orders(l, k)
    if l + k > rho.cutoff / 2:
        raise CutoffTooSmall(
            f"moment order l+k={l + k} too large for cutoff {rho.cutoff}"
        )
    a = fock_annihilation(rho.cutoff)
    op = np.linalg.matrix_power(a.conj().T, l) @ np.linalg.matrix_power(a, k)
    return complex(np.trace(rho.entries @ op))


def adaptive_cutoff(
    params: ModelParams, observable: tuple[int, int] = (1, 1), tol: float = 1e-8
) -> tuple[int, complex]:
    """Double the cutoff until the observable stops moving.

    Returns (certified cutoff, observable value there).  The certificate
    for cutoff M is that doubling to 2M moves the value by less than the
    relative tolerance `tol`, so the smallest such M is reported together
    with its own value.  The first cutoff is max(16, 2 (l + k)), as
    correlation_from_rho needs l + k <= cutoff / 2.

    Raises InvalidParams unless 0 < tol < inf, and NonConvergence if no
    doubling up to cutoff _ADAPTIVE_CAP agrees.
    """
    l, k = _check_moment_orders(*_check_pair("observable", observable))
    if not 0.0 < tol < math.inf:
        raise InvalidParams(f"tol must be positive and finite, got {tol}")
    m = max(_ADAPTIVE_START, 2 * (l + k))
    prev = correlation_from_rho(steady_state_at(params, m), l, k)
    while 2 * m <= _ADAPTIVE_CAP:
        cur = correlation_from_rho(steady_state_at(params, 2 * m), l, k)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-12):
            return m, prev
        prev = cur
        m *= 2
    raise NonConvergence(
        f"observable a^dag^{l} a^{k} not converged at cutoff cap {_ADAPTIVE_CAP}"
    )
