"""Semiclassical fixed points of the coherently driven Kerr resonator.

The mean-field equation of motion

    da/dt = -[i (delta_c + 2 chi |a|^2) + gamma/2] a + omega

has fixed points a0 whose occupation n = |a0|^2 solves the real cubic

    16 chi^2 n^3 + 16 chi delta_c n^2 + (4 delta_c^2 + gamma^2) n
        - 4 omega^2 = 0.

Opposite signs of detuning and Kerr coefficient open a drive window with
three coexisting branches (optical bistability).  A branch is linearly
stable when both eigenvalues of the fluctuation Jacobian in (delta a, delta a*),

    [[-i D - gamma/2, -2 i chi a0^2], [2 i chi conj(a0)^2, i D - gamma/2]],
    D = delta_c + 4 chi n,

have negative real part.  Its trace is -gamma and its determinant
D^2 + gamma^2/4 - 4 chi^2 n^2, so they are -gamma/2 +- sqrt(4 chi^2 n^2 - D^2).
The determinant equals d(omega^2)/dn along the cubic, so of three
branches the middle one, where omega^2(n) falls, is the saddle.
Roots (Cardano's form with a Newton polish, taken in u = 4 chi n where
the cubic in n is too badly scaled for doubles) and stability both come
in closed form, so a companion matrix and an eigenvalue solver stay free as
the tests' independent routes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

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
    stable : bool
        Linear stability: both Jacobian eigenvalues have real part below
        minus a numerical margin.  A real part within the margin of zero
        (a fold) counts as unstable.  Of three branches with a degenerate
        pair, where the eigenvalues' signs are roundoff, the middle one is
        unstable and the pair's other one stable.
    eigenvalues : tuple[complex, complex]
        Jacobian eigenvalues of the fluctuation dynamics.
    degenerate : bool
        True when another branch sits within 1e-7 relative in n (near a
        fold of the bistability window, where the cubic has a double root).
    """

    n: float
    a0: complex
    stable: bool
    eigenvalues: tuple[complex, complex]
    degenerate: bool = False


def _cubic_coeffs(params: ModelParams) -> tuple[float, float, float, float]:
    return (
        16.0 * params.chi**2,
        16.0 * params.chi * params.delta_c,
        4.0 * params.delta_c**2 + params.gamma**2,
        -4.0 * params.omega**2,
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


def _polish(
    n: float, a: float, b: float, c: float, d: float, floor: float = 1.0, steps: int = 4
) -> float:
    """Newton steps on the cubic until one is below 1e-16 of max(|n|, floor)."""
    for _ in range(steps):
        f = ((a * n + b) * n + c) * n + d
        fp = (3.0 * a * n + 2.0 * b) * n + c
        if fp == 0.0:
            break
        step = f / fp
        n -= step
        if abs(step) <= 1e-16 * max(abs(n), floor):
            break
    return n


def photon_number_branches(params: ModelParams) -> list[MeanFieldBranch]:
    """All physical (n >= 0) fixed points, classified, sorted ascending in occupation.

    Raises
    ------
    UnsupportedModel
        If two-photon terms are present; the semiclassical reduction here
        covers only the coherently driven model.
    InvalidParams
        If the cubic, its roots or their checks leave the double range.
    InvariantViolation
        If a polished root and Cardano's root it came from both fail the
        cubic residual check, or |a0|^2 drifts from n beyond tolerance.
    """
    _require_coherent_drive(params)
    try:
        return _fixed_points(params)
    except OverflowError:
        raise InvalidParams(
            f"the mean-field cubic leaves the double range at delta_c={params.delta_c!r}, "
            f"chi={params.chi!r}, gamma={params.gamma!r}, omega={params.omega!r}"
        ) from None


def _polished_roots(
    a: float, b: float, c: float, d: float, floor: float = 1.0, steps: int = 4
) -> list[tuple[float, float]]:
    """Cardano's real roots of a x^3 + b x^2 + c x + d as sorted (polished, unpolished) pairs."""
    roots = sorted((_polish(x, a, b, c, d, floor, steps), x)
                   for x in _cardano_real_roots(a, b, c, d))
    # past the double range a power raises OverflowError, but * and / give inf or nan
    if not all(map(math.isfinite, (a, b, c, d, *(n for n, _ in roots)))):
        raise OverflowError
    return roots


def _cubic_residual(n: float, a: float, b: float, c: float, d: float) -> tuple[float, bool]:
    """|a n^3 + b n^2 + c n + d| and whether it is within the root tolerance."""
    resid = abs(((a * n + b) * n + c) * n + d)
    # each term from its coefficient out: a power of a root past the cube
    # root of the double range overflows even where the term does not
    local = max(abs(a * n) * n * n, abs(b * n) * n, abs(c) * n, abs(d), 1e-300)
    # term-magnitude scale for large roots, absolute anchor for roots
    # driven into the subnormal range by omega ~ 0; a nan fails
    return resid, resid <= max(1e-6 * local, 1e-9 * max(1.0, abs(d)))


def _fixed_points(params: ModelParams) -> list[MeanFieldBranch]:
    a, b, c, d = _cubic_coeffs(params)
    try:
        candidates = _polished_roots(a, b, c, d)
    except OverflowError:
        if params.chi == 0.0:
            raise
        # a badly scaled cubic: in u = 4 chi n it is monic, with the Kerr
        # coefficient left only in the constant term.  Its roots can lie far
        # below 1, where Cardano's are only absolutely accurate, so they are
        # polished to a relative step.
        delta, chi = params.delta_c, params.chi
        monic = _polished_roots(1.0, 4.0 * delta, 4.0 * delta**2 + params.gamma**2,
                                -16.0 * chi * params.omega**2, floor=0.0, steps=200)
        candidates = sorted((u / (4.0 * chi), x / (4.0 * chi)) for u, x in monic)
        if not all(math.isfinite(n) for n, _ in candidates):
            raise

    scale = max(abs(d), params.gamma**2, 1.0)
    roots = []
    for n, cardano in candidates:
        if n < 0.0:
            if n > -1e-12 * scale:
                n = 0.0
            else:
                continue
        resid, on_cubic = _cubic_residual(n, a, b, c, d)
        if not on_cubic:
            # at a fold f' ~ 0, and Newton can step off Cardano's double root
            if not (cardano >= 0.0 and _cubic_residual(cardano, a, b, c, d)[1]):
                raise InvariantViolation(
                    f"cubic residual {resid:.3e} exceeds tolerance at n={n!r}"
                )
            n = cardano
        a0 = -2j * params.omega / (2.0 * params.delta_c - 1j * params.gamma + 4.0 * params.chi * n)
        if not abs(abs(a0) ** 2 - n) <= 1e-6 * max(n, 1e-12):
            raise InvariantViolation(
                f"|a0|^2 = {abs(a0)**2!r} inconsistent with root n = {n!r}"
            )
        roots.append((n, a0))

    # a kept Cardano root can break the polished roots' order
    roots.sort(key=lambda root: root[0])
    branches = []
    for n, a0 in roots:
        # a polished copy of the root just kept is dropped
        if not branches or abs(n - branches[-1].n) > 1e-13 * max(abs(n), 1.0):
            branches.append(_classified(n, a0, params))

    for i in range(len(branches) - 1):
        lo, hi = branches[i].n, branches[i + 1].n
        if hi - lo <= _DEGENERATE_REL * max(abs(hi), abs(lo), 1e-12):
            branches[i] = replace(branches[i], degenerate=True)
            branches[i + 1] = replace(branches[i + 1], degenerate=True)
    if len(branches) == 3:
        # the slope of omega^2(n) decides: negative at the middle root only
        branches = [replace(b, stable=i != 1) if b.degenerate else b
                    for i, b in enumerate(branches)]
    return branches


def _classified(n: float, a0: complex, params: ModelParams) -> MeanFieldBranch:
    """The fixed point (n, a0), classified by the Jacobian eigenvalues of the module docstring."""
    chi_n = params.chi * n
    # 4 chi^2 n^2 - D^2, factored: exact zero where a factor vanishes
    root = cmath.sqrt(-(params.delta_c + 2.0 * chi_n) * (params.delta_c + 6.0 * chi_n))
    half = params.gamma / 2.0
    margin = 1e-9 * max(params.gamma, abs(params.delta_c), abs(params.chi) * max(n, 1.0))
    return MeanFieldBranch(n=n, a0=a0, stable=root.real - half < -margin,
                           eigenvalues=(root - half, -root - half))


def drive_point_branches(params: ModelParams, omega: float) -> list[MeanFieldBranch]:
    """Classified branches at one drive amplitude, sorted ascending in n."""
    return photon_number_branches(_at_drive(params, omega))


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
