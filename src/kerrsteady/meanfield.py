"""Semiclassical fixed points of the coherently driven Kerr resonator.

The mean-field equation of motion

    da/dt = -[i (delta_c + 2 chi |a|^2) + gamma/2] a + omega

has fixed points a0 whose occupation n = |a0|^2 solves the real cubic

    16 chi^2 n^3 + 16 chi delta_c n^2 + (4 delta_c^2 + gamma^2) n
        - 4 omega^2 = 0.

Opposite signs of detuning and Kerr coefficient open a drive window with
three coexisting branches (optical bistability); linear stability of each
branch follows from the 2x2 Jacobian of the fluctuation equations.

Roots come from Cardano's closed form with a Newton polish, not from a
companion matrix, so the independent eigenvalue-based route stays free for
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParams, InvariantViolation
from .model import ModelParams, _at_drive, _at_grid, _require_coherent_drive

_DEGENERATE_REL = 1e-7


@dataclass(frozen=True)
class MeanFieldBranch:
    """One semiclassical fixed point.

    Attributes
    ----------
    n : float
        Steady occupation |a0|^2.
    a0 : complex
        Steady field amplitude.
    stable : bool | None
        Linear stability; None until classified.
    eigenvalues : tuple[complex, complex] | None
        Jacobian eigenvalues of the fluctuation dynamics.
    degenerate : bool
        True when another branch sits within 1e-7 relative in n (near a
        fold of the bistability window, where the cubic has a double root).
    marginal : bool
        True when an eigenvalue real part is numerically zero; such
        branches are reported unstable.
    """

    n: float
    a0: complex
    stable: bool | None = None
    eigenvalues: tuple[complex, complex] | None = None
    degenerate: bool = False
    marginal: bool = False


def _cubic_coeffs(params: ModelParams, omega: float) -> tuple[float, float, float, float]:
    return (
        16.0 * params.chi**2,
        16.0 * params.chi * params.delta_c,
        4.0 * params.delta_c**2 + params.gamma**2,
        -4.0 * omega**2,
    )


def _cardano_real_roots(a: float, b: float, c: float, d: float) -> list[float]:
    """Real roots of a x^3 + b x^2 + c x + d with real coefficients."""
    if a == 0.0:
        if b == 0.0:
            if c == 0.0:
                raise InvalidParams("degenerate polynomial: no root structure")
            return [-d / c]
        disc = c * c - 4.0 * b * d
        if disc < 0.0:
            return []
        s = math.sqrt(disc)
        return [(-c - s) / (2.0 * b), (-c + s) / (2.0 * b)]
    if d == 0.0:
        # zero is an exact root; peeling it off keeps the undriven fixed
        # point from coming back as depressed-cubic noise
        return [0.0] + _cardano_real_roots(0.0, a, b, c)

    b1, c1, d1 = b / a, c / a, d / a
    shift = b1 / 3.0
    p = c1 - b1 * b1 / 3.0
    q = 2.0 * b1**3 / 27.0 - b1 * c1 / 3.0 + d1
    disc = -4.0 * p**3 - 27.0 * q * q

    roots: list[float]
    if disc > 0.0:
        # three distinct real roots, trigonometric form
        r = math.sqrt(-p / 3.0)
        arg = 3.0 * q / (2.0 * p * r)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg)
        roots = [2.0 * r * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)]
    elif disc < 0.0:
        # one real root; pick the large cube root to avoid cancellation
        s = math.sqrt(q * q / 4.0 + p**3 / 27.0)
        u3 = -q / 2.0 - s if q >= 0.0 else -q / 2.0 + s
        u = math.copysign(abs(u3) ** (1.0 / 3.0), u3)
        roots = [u - p / (3.0 * u)] if u != 0.0 else [0.0]
    else:
        if p == 0.0:
            roots = [0.0]
        else:
            roots = [3.0 * q / p, -3.0 * q / (2.0 * p)]
    return [t - shift for t in roots]


def _polish(n: float, a: float, b: float, c: float, d: float) -> float:
    for _ in range(4):
        f = ((a * n + b) * n + c) * n + d
        fp = (3.0 * a * n + 2.0 * b) * n + c
        if fp == 0.0:
            break
        step = f / fp
        n -= step
        if abs(step) <= 1e-16 * max(abs(n), 1.0):
            break
    return n


def photon_number_branches(params: ModelParams) -> list[MeanFieldBranch]:
    """All physical (n >= 0) fixed points, sorted ascending in occupation.

    Stability fields are left unclassified; run each branch through
    :func:`classify_stability` or use :func:`drive_point_branches` which
    does both.

    Raises
    ------
    UnsupportedModel
        If two-photon terms are present; the semiclassical reduction here
        covers only the coherently driven model.
    InvariantViolation
        If a polished root fails the cubic residual check or |a0|^2
        drifts from n beyond tolerance.
    """
    _require_coherent_drive(params)
    om = params.omega

    a, b, c, d = _cubic_coeffs(params, om)
    candidates = sorted(_polish(n, a, b, c, d) for n in _cardano_real_roots(a, b, c, d))

    scale = max(abs(d), params.gamma**2, 1.0)
    branches = []
    for n in candidates:
        if n < 0.0:
            if n > -1e-12 * scale:
                n = 0.0
            else:
                continue
        resid = abs(((a * n + b) * n + c) * n + d)
        local = max(abs(a) * n**3, abs(b) * n**2, abs(c) * n, abs(d), 1e-300)
        # term-magnitude scale for large roots, absolute anchor for roots
        # driven into the subnormal range by omega ~ 0
        if resid > max(1e-6 * local, 1e-9 * max(1.0, abs(d))):
            raise InvariantViolation(
                f"cubic residual {resid:.3e} exceeds tolerance at n={n!r}"
            )
        a0 = -2j * om / (2.0 * params.delta_c - 1j * params.gamma + 4.0 * params.chi * n)
        if abs(abs(a0) ** 2 - n) > 1e-6 * max(n, 1e-12):
            raise InvariantViolation(
                f"|a0|^2 = {abs(a0)**2!r} inconsistent with root n = {n!r}"
            )
        branches.append(MeanFieldBranch(n=n, a0=a0))

    # De-duplicate polished copies of the same root, then flag near-pairs.
    unique: list[MeanFieldBranch] = []
    for br in branches:
        if unique and abs(br.n - unique[-1].n) <= 1e-13 * max(abs(br.n), 1.0):
            continue
        unique.append(br)
    for i in range(len(unique) - 1):
        lo, hi = unique[i].n, unique[i + 1].n
        if hi - lo <= _DEGENERATE_REL * max(abs(hi), abs(lo), 1e-12):
            unique[i] = replace(unique[i], degenerate=True)
            unique[i + 1] = replace(unique[i + 1], degenerate=True)
    return unique


def classify_stability(branch: MeanFieldBranch, params: ModelParams) -> MeanFieldBranch:
    """Fill in linear stability of one fixed point.

    The fluctuation Jacobian in (delta a, delta a*) coordinates is

        [[-i (delta_c + 4 chi n) - gamma/2,  -2 i chi a0^2        ],
         [ 2 i chi conj(a0)^2,                i (delta_c + 4 chi n) - gamma/2]]

    and the branch is stable when both eigenvalues have negative real
    part.  Real parts within the numerical margin of zero are flagged
    marginal and reported unstable.
    """
    _require_coherent_drive(params)
    n, a0 = branch.n, branch.a0
    diag = params.delta_c + 4.0 * params.chi * n
    jac = np.array(
        [
            [-1j * diag - params.gamma / 2.0, -2j * params.chi * a0**2],
            [2j * params.chi * np.conj(a0) ** 2, 1j * diag - params.gamma / 2.0],
        ],
        dtype=complex,
    )
    ev = np.linalg.eigvals(jac)
    margin = 1e-9 * max(params.gamma, abs(params.delta_c), abs(params.chi) * max(n, 1.0))
    worst = max(ev.real)
    marginal = abs(worst) <= margin
    stable = bool(worst < -margin)
    return replace(
        branch,
        stable=stable,
        eigenvalues=(complex(ev[0]), complex(ev[1])),
        marginal=marginal,
    )


def drive_point_branches(params: ModelParams, omega: float) -> list[MeanFieldBranch]:
    """Classified branches at one drive amplitude, sorted ascending in n."""
    at_om = _at_drive(params, omega)
    return [classify_stability(br, at_om) for br in photon_number_branches(at_om)]


def sweep_drive(params: ModelParams, omega_grid) -> list[tuple[float, list[MeanFieldBranch]]]:
    """Branch structure across a drive grid, each branch fully classified.

    Returns one (omega, branches) row per grid point, in grid order.  The
    row layout is stable regardless of how many branches coexist, which
    is what the CSV writer and the window-detection tests key on.
    """
    return [(p.omega, drive_point_branches(p, p.omega))
            for p in _at_grid(params, "omega", omega_grid)]


def bistable_window(params: ModelParams, omega_grid) -> tuple[float, float] | None:
    """Smallest and largest grid omega with three coexisting branches.

    None when no grid point is tristable.  Grid resolution limits the
    endpoints; no refinement between grid points is attempted.
    """
    three = [om for om, branches in sweep_drive(params, omega_grid) if len(branches) == 3]
    if not three:
        return None
    return (min(three), max(three))
