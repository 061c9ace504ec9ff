"""Truncated-Fock Lindblad steady states, the package's independent oracle.

The master equation for the driven Kerr resonator,

    d rho/dt = -i [H, rho] + gamma D[a] rho + kappa D[a^2] rho,
    D[c] rho = c rho c^dag - (c^dag c rho + rho c^dag c) / 2,

is vectorized column-major (vec(A rho B) = (B^T kron A) vec(rho)) on a Fock
space truncated at `cutoff` photons.  Every term of the generator moves the
vec index by a fixed offset on the (m, n) grid of rho, so the generator is
assembled as a stencil: H's five bands and the jump ladders give value
grids, which are interleaved straight into canonical CSC arrays.  Each
value goes through the roundings, in the order, that the operator
products (kron lifts of H and the jump operators, and their sums) apply,
so the arrays are bitwise those of that build, and every solve below
factorizes the same matrix in the same way.

The steady state solves the bordered system {L v = 0, trace v = 1}, formed
from the same CSC arrays by replacing the row of the |0><0| component with
the trace functional.  The Liouvillian couples each Fock element to at
most ten neighbors, so sparse LU keeps the solve cheap at cutoffs where a
dense one would thrash memory.  The factorization orders the unknowns by
minimum degree on the symmetrized pattern and pivots by threshold, not
by full partial pivoting, so that the rows keep that ordering (see splu).

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


def _hamiltonian_bands(params: ModelParams, cutoff: int) -> np.ndarray:
    """H's five diagonals: bands[k + 2, j] = H[j, j + k] for k in -2..2.

    Entries whose column j + k falls outside 0..cutoff are padding.  Each
    operator of

        H = delta_c a^+ a + chi a^+ a^+ a a + i omega (a^+ - a)
            + (lam a^+ a^+ + lam^* a a) / 2

    is held as band arrays of the dense fock_annihilation products: a^+
    conjugates a's entries, an entry of a product is its one nonzero term
    (left to right, so a^+ a^+ a a is ((s_j s_(j-1)) s_(j-1)) s_j with
    s_j = sqrt(j)) or +0.  The bands are then combined by the elementwise
    operations, in the order, that the dense sum of those products carries
    out, so every entry, signed zeros included, is the one that sum gives.
    """
    d = cutoff + 1
    root = np.sqrt(np.arange(d + 2.0))
    s, s_below = root[:d], np.concatenate(([0.0], root[: d - 1]))
    a = np.zeros((5, d), dtype=complex)
    a[3] = root[1 : d + 1]
    ad = np.zeros((5, d), dtype=complex)
    ad[1] = s
    ad = ad.conj()
    number = np.zeros((5, d), dtype=complex)
    number[2] = s * s
    kerr = np.zeros((5, d), dtype=complex)
    kerr[2] = s * s_below * s_below * s
    h = params.delta_c * number + params.chi * kerr + 1j * params.omega * (ad - a)
    if params.lambda_2ph != 0:
        pair_up = np.zeros((5, d), dtype=complex)
        pair_up[0] = s * s_below
        pair_down = np.zeros((5, d), dtype=complex)
        pair_down[4] = root[1 : d + 1] * root[2 : d + 2]
        h = h + 0.5 * (params.lambda_2ph * pair_up + np.conj(params.lambda_2ph) * pair_down)
    return h


def hamiltonian_fock(params: ModelParams, cutoff: int) -> np.ndarray:
    """Dense Hamiltonian matrix in the truncated Fock basis.

    Filled from _hamiltonian_bands, the five bands the Liouvillian is also
    built from, with +0 off them.  Each entry is bitwise the one that the
    dense products of fock_annihilation ladders, delta_c (a^+ a) + chi
    (a^+ a^+ a a) + ..., give, but no d x d product is formed.
    """
    cutoff = _check_fock_size("cutoff", cutoff, 1)
    d = cutoff + 1
    bands = _hamiltonian_bands(params, cutoff)
    h = np.zeros((d, d), dtype=complex)
    rows = np.arange(d)
    for k in range(-2, 3):
        j = rows[max(0, -k) : d - max(0, k)]
        h[j, j + k] = bands[k + 2, j]
    return h


def build_liouvillian(params: ModelParams, cutoff: int) -> Liouvillian:
    """Assemble the vectorized generator as a sparse matrix.

    Column-major stacking, so vec(rho)[m + n*(cutoff+1)] = rho[m, n] and
    the |0><0| component sits at index 0.  The generator is the operator
    sum

        -i (I kron H - H^T kron I)
        + sum over (rate, c) of rate (conj(c) kron c - (I kron c^+c) / 2
                                      - ((c^+c)^T kron I) / 2)

    with c = a at rate gamma and c = a a at rate kappa (when kappa > 0),
    assembled as a stencil: each term moves the vec index by a fixed
    offset on the (m, n) grid.  The diagonal, the left and right action of
    each band of H (m or n by +-1, +-2) and the gamma and kappa hops
    (m+1, n+1), (m+2, n+2) give each column at most eleven entries in a
    fixed row order, so their value grids are interleaved straight into
    canonical CSC arrays, with no sort.

    The arrays are bitwise those that sparse kron products and sums of
    the operator sum give.  Every nonzero real or imaginary part goes
    through the roundings, in the order, that those products and sums
    apply to it; the rest of their arithmetic only flips signs or adds
    zeros.  Every zero part is +0 there, since each entry passes through
    the sum with the gamma dissipator, which adds +0 or a nonzero real
    part with a +0 imaginary part.  Entries that are exactly zero are
    dropped, as the sums drop them.
    """
    import scipy.sparse as sp

    cutoff = _check_fock_size("cutoff", cutoff, 1)
    d = cutoff + 1
    n2 = d * d
    h = _hamiltonian_bands(params, cutoff)
    # I kron H puts -i H[m - k, m] at row (m - k, n) of column (m, n), and
    # H^T kron I puts i H[n, n + k] at row (m, n + k)
    left = -1j * h + 0.0
    right = 1j * h + 0.0

    # the diagonal, at [n, m]: H's real diagonal gives the imaginary part
    # -(H[m, m] - H[n, n]) = H[n, n] - H[m, m], and each jump adds
    # rate (-(c^+c)[m, m] / 2 - (c^+c)[n, n] / 2) to the real part
    hd = h[2].real
    diag = np.zeros((d, d), dtype=complex)
    diag.imag = hd[:, None] - hd[None, :]
    hops = {}
    jumps = [(params.gamma, np.sqrt(np.arange(1.0, d)), 1)]
    if params.kappa > 0.0:
        jumps.append((params.kappa, np.sqrt(np.arange(1.0, d - 1)) * np.sqrt(np.arange(2.0, d)), 2))
    for rate, ladder, step in jumps:
        # ladder[j] = c[j, j + step]
        half = np.zeros(d)
        half[step:] = 0.5 * (ladder * ladder)
        diag.real += rate * (-half[None, :] - half[:, None])
        hops[step] = rate * np.multiply.outer(ladder, ladder)

    # (row offset, values, columns [n, m] that hold them), rising offset;
    # a term whose values are all zero stores nothing
    every, skip1, skip2 = slice(None), slice(1, None), slice(2, None)
    terms = [
        (-2 * d - 2, hops.get(2), (skip2, skip2)),
        (-2 * d, right[0, 2:, None], (skip2, every)),
        (-d - 1, hops[1], (skip1, skip1)),
        (-d, right[1, 1:, None], (skip1, every)),
        (-2, left[4, :-2], (every, skip2)),
        (-1, left[3, :-1], (every, skip1)),
        (0, diag, (every, every)),
        (1, left[1, 1:], (every, slice(-1))),
        (2, left[0, 2:], (every, slice(-2))),
        (d, right[3, :-1, None], (slice(-1), every)),
        (2 * d, right[4, :-2, None], (slice(-2), every)),
    ]
    terms = [t for t in terms if t[1] is not None and np.any(t[1])]
    grids = np.zeros((len(terms), d, d), dtype=complex)
    for grid, (_, values, columns) in zip(grids, terms):
        grid[columns] = values
    # every column gets one slot per term; slots off the grid hold zeros and
    # are dropped with the exact zeros, their rows clipped into range first
    data = np.ascontiguousarray(grids.reshape(len(terms), n2).T)
    offsets = np.array([t[0] for t in terms], dtype=np.int32)
    rows = np.add.outer(np.arange(n2, dtype=np.int32), offsets)
    edge = 2 * d + 2
    np.clip(rows[:edge], 0, n2 - 1, out=rows[:edge])
    np.clip(rows[-edge:], 0, n2 - 1, out=rows[-edge:])
    slots = np.arange(0, data.size + 1, len(terms), dtype=np.int32)
    matrix = sp.csc_matrix((data.ravel(), rows.ravel(), slots), shape=(n2, n2))
    matrix.eliminate_zeros()
    return Liouvillian(matrix=matrix, cutoff=cutoff)


def splu(matrix: sp.csc_matrix):
    """Sparse LU factorization of a bordered system (scipy.sparse.linalg.splu).

    SuperLU runs in symmetric mode: the columns are ordered by multiple
    minimum degree on the pattern of A^T + A, which differs from A's only
    by the jump hops' mirrors and the trace row, and the rows follow that
    order.  Threshold pivoting (diag_pivot_thresh 0.1) keeps a diagonal
    pivot unless it is below a tenth of its column's largest entry, so the
    factor keeps the ordering's fill.  Full partial pivoting moves rows out
    of the ordering: on the chi = -0.15 family at cutoff 32 it stored 4.8x
    the entries and took 5x as long.  At cutoff 256 the factor stores
    5.2 M entries on the coherent drive and 19.7 M on the two-photon
    point, against 8.9 M and 28.3 M with scipy's defaults (COLAMD, full
    partial pivoting), and is 2-3x faster; the fixed-point residual stays
    at 1e-15 or below.  Supernode relaxation 2 (SuperLU's default is 10)
    was fastest, or within noise of it, from cutoff 16 to 256 on the
    bistable, deep, two-photon and strong-pump families; CHANGES.md holds
    the measurements.

    scipy is imported on the first call, not with this module.
    """
    from scipy.sparse.linalg import splu as factorize

    return factorize(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, relax=2,
                     options={"SymmetricMode": True})


def _bordered_system(liouvillian: Liouvillian) -> sp.csc_matrix:
    """L with the row of the |0><0| component replaced by the trace functional.

    Formed from the generator's CSC arrays: their row-0 entries are
    dropped and the trace functional's ones put at row 0 of the columns
    j (d + 1) of the |j><j|.  These are the arrays that stacking the trace
    row on L's rows 1.. gives.
    """
    import scipy.sparse as sp

    d = liouvillian.cutoff + 1
    n2 = d * d
    lmat = liouvillian.matrix
    # rows are sorted within each column, so a row-0 entry is a column's first
    kept = lmat.indices != 0
    before = np.zeros(kept.size + 1, dtype=np.int32)
    np.cumsum(kept, out=before[1:])
    before = before[lmat.indptr]
    at = before[: n2 : d + 1]
    traces_before = (np.arange(n2 + 1, dtype=np.int32) + d) // (d + 1)
    return sp.csc_matrix(
        (np.insert(lmat.data[kept], at, 1.0), np.insert(lmat.indices[kept], at, 0),
         before + traces_before),
        shape=(n2, n2),
    )


def steady_state(liouvillian: Liouvillian) -> DensityMatrix:
    """Solve the bordered system for the unique steady state.

    The row of the |0><0| component is replaced by the trace functional
    (_bordered_system) and the right side is the unit vector selecting
    it, so the solution is trace-normalized by construction.  The raw
    solution is hermitized and validated before being returned.
    """
    d = liouvillian.cutoff + 1
    n2 = d * d
    bordered = _bordered_system(liouvillian)

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
    prev = correlation_from_rho(steady_state(build_liouvillian(params, m)), l, k)
    while 2 * m <= _ADAPTIVE_CAP:
        cur = correlation_from_rho(steady_state(build_liouvillian(params, 2 * m)), l, k)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-12):
            return m, prev
        prev = cur
        m *= 2
    raise NonConvergence(
        f"observable a^dag^{l} a^{k} not converged at cutoff cap {_ADAPTIVE_CAP}"
    )
