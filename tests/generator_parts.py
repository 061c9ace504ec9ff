"""The cl_q generator's two parts and their quantum-mode grading, for tests.

The package assembles only the full cl_q generator, but it forms it as
the sum of a raising and a non-raising part (keldysh_ops._clq_parts).
The tests check that split directly: the raising part moves every
excitation up exactly one quantum-mode level, the other never raises it
and kills the quantum vacuum, which is what the steady-state certificate
rests on.
"""

import numpy as np

from kerrsteady.keldysh_ops import CL_Q, OperatorMatrix, _assemble, _check_cutoffs, _clq_parts


def hamiltonian_parts_clq(params, cutoffs):
    """Quantum-mode raising and non-raising parts of the generator.

    The first part moves every excitation up exactly one quantum-mode
    level; the second never raises that level and kills any state in the
    quantum-mode vacuum.  Their sum is the full generator.
    """
    cutoffs = _check_cutoffs(cutoffs)
    up, down = _clq_parts(params, cutoffs)
    return (
        OperatorMatrix(_assemble(cutoffs, up), CL_Q, cutoffs),
        OperatorMatrix(_assemble(cutoffs, down), CL_Q, cutoffs),
    )


def q_grade_blocks(op):
    """Largest matrix element per quantum-mode grade shift.

    Key d collects entries connecting quantum-mode level j to level
    j + d.  A purely raising operator puts all its weight at d = +1.
    """
    m1, m2 = op.cutoffs
    q_index = np.tile(np.arange(m2 + 1), m1 + 1)
    # hypot, not np.abs: np.abs over an array can round the last bit
    # differently from abs() of a single entry.
    mags = np.hypot(op.entries.real, op.entries.imag)
    rows, cols = np.nonzero(mags > 0.0)
    shifts = q_index[rows] - q_index[cols]
    peaks = mags[rows, cols]
    return {int(d): peaks[shifts == d].max() for d in np.unique(shifts)}
