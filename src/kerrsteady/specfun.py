"""Scalar special functions backing the closed-form steady-state solvers.

Everything here works on plain Python complex numbers.  The two public
entry points are

* :func:`pochhammer`, rising factorials evaluated by direct product,
* :func:`hyp0f2_ratio`, a ratio of two 0F2(; b1, b2; z) series summed in lockstep.

0F2 ratios form the correlation functions of the coherently driven
model, and the private _conjugate_hyp0f2 sums its normalization, a
series of real positive terms, to cross-check the amplitude sum.  The
terminating Gauss sum 2F1(-m, y; z; 2) builds the displaced-frame
wavefunction of the two-photon model, which needs every order of one
(y, z); the private generator _gauss_sum_walk walks them.  The 0F2 series
are summed directly; the Gauss sum is not, since at argument 2 its
terms cancel like 3^m.

Both 0F2 series, and exact_linear's amplitude ladder, stop through one
predicate, _tail_run: a run of terms, each at most _TAIL_TOL of the
partial sum, ends the sum (five terms here, three ladder levels).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .errors import DenominatorPole, NonConvergence
from .model import _check_fock_size, _finite_complex

_POLE_GUARD = 1e-12
_TAIL_TOL = 1e-16
_SERIES_CAP = 100_000
# not three as for the ladder: that moves 25 of 1,603 bistable exact-sweep rows
_CONSECUTIVE_SMALL = 5
_UNDERFLOW_FLOOR = 1e-300
_EPS = 2.0**-52
_FALLBACK_TOL = 1e-13


def _near_pole(b: complex, lowest: float = -math.inf) -> bool:
    """True when b is within the pole guard of an integer n, lowest < n <= 0."""
    nearest = round(b.real)
    return lowest < nearest <= 0 and abs(complex(b.real - nearest, b.imag)) < _POLE_GUARD


def _lower_parameter(where: str, name: str, b) -> complex:
    """A finite lower parameter of a 0F2 series, refused within the pole guard."""
    b = _finite_complex(name, b)
    if _near_pole(b):
        raise DenominatorPole(
            f"{where} parameter {name}={b!r} within {_POLE_GUARD} of a nonpositive integer"
        )
    return b


def pochhammer(x: complex, m: int) -> complex:
    """Rising factorial (x)_m = x (x+1) ... (x+m-1) by direct product.

    The direct product stays exact at negative integer x where a
    gamma-function quotient would hit poles; (x)_0 = 1 identically.
    """
    m = _check_fock_size("pochhammer order", m, 0)
    x = _finite_complex("x", x)
    acc = 1.0 + 0j
    for j in range(m):
        acc *= x + j
    return acc


def _tail_run(run: int, term: float, total: float, tol: float) -> int:
    """The run of negligible terms after one more: run + 1 if term <= tol * total, else 0."""
    return run + 1 if term <= tol * total else 0


def _conjugate_hyp0f2(x: complex, w: float) -> float:
    """0F2(; conj(x), x; w) for real w >= 0, the coherent-drive norm.

    Its terms w^m / (m! |(x)_m|^2) are real and positive, with ratio
    w / (m |x + m - 1|^2), so the sum runs in plain floats.  It stops by
    hyp0f2_ratio's rule: five terms in a row at most 1e-16 of the partial
    sum (_tail_run), with a hard cap of 1e5 terms.

    Raises
    ------
    DenominatorPole
        If x sits within 1e-12 of a nonpositive integer.  That guard
        keeps every |x + m - 1|^2 above 1e-24, so no denominator underflows.
    NonConvergence
        If the partial sum leaves the double range or the cap fires first.
    """
    x = _lower_parameter("0F2 norm", "x", x)
    total = term = 1.0
    small_run = 0
    for m in range(1, _SERIES_CAP + 1):
        # products, not powers: a float power past the double range raises
        re = x.real + m - 1
        term = term * w / (m * (re * re + x.imag * x.imag))
        total += term
        if not total < math.inf:  # nan too
            raise NonConvergence("0F2 norm partial sum leaves the double range")
        small_run = _tail_run(small_run, term, total, _TAIL_TOL)
        if small_run >= _CONSECUTIVE_SMALL:
            return total
    raise NonConvergence(f"0F2 norm did not converge within {_SERIES_CAP} terms")


def hyp0f2_ratio(
    bn1: complex, bn2: complex, bd1: complex, bd2: complex, z: complex
) -> complex:
    """Ratio 0F2(; bn1, bn2; z) / 0F2(; bd1, bd2; z) with joint rescaling.

    Both series are summed in lockstep and both partial sums are divided
    by a common factor whenever either grows past 1e250, so the ratio is
    available even where the individual series overflow doubles.  Used by
    the correlation formulas, whose value is always such a ratio.
    """
    bn1, bn2, bd1, bd2 = (
        _lower_parameter("hyp0f2_ratio", name, b)
        for name, b in (("bn1", bn1), ("bn2", bn2), ("bd1", bd1), ("bd2", bd2))
    )
    z = _finite_complex("z", z)

    num = den = tn = td = 1.0 + 0j
    small_run = 0
    for m in range(_SERIES_CAP):
        dn = (bn1 + m) * (bn2 + m) * (m + 1)
        dd = (bd1 + m) * (bd2 + m) * (m + 1)
        tn = tn * z / dn
        td = td * z / dd
        num += tn
        den += td
        a_num, a_den, a_tn, a_td = abs(num), abs(den), abs(tn), abs(td)
        scale = max(a_num, a_den, a_tn, a_td)
        if scale > 1e250:
            num /= scale
            den /= scale
            tn /= scale
            td /= scale
            a_num, a_den, a_tn, a_td = abs(num), abs(den), abs(tn), abs(td)
        small_run = _tail_run(small_run, max(a_tn, a_td),
                              max(a_num, a_den, _UNDERFLOW_FLOOR), _TAIL_TOL)
        if small_run >= _CONSECUTIVE_SMALL:
            break
    else:
        raise NonConvergence(f"hyp0f2_ratio did not converge within {_SERIES_CAP} terms")
    if abs(den) < _UNDERFLOW_FLOOR:
        raise DenominatorPole("hyp0f2_ratio denominator series summed to zero")
    return num / den


def _connection_form(
    m: int, bj: list[complex], dk: list[complex], zb: complex, ratio: complex
) -> tuple[float, complex]:
    """Mass and value of ratio * 2F1(-m, b; b - z - m + 1; -1).

    zb is z - b and ratio is (zb)_m / (z)_m; bj[j] is b + j and dk[k] is
    (-k) - zb, the lower parameter of term j = m - 1 - k, formed from the
    same zb as the prefactor: b - z - m + 1 + j, formed from b, loses the
    digits of a small b.  A form whose lower parameter comes within the
    pole guard of zero is skipped: it gets infinite mass.
    """
    if _near_pole(zb, -m):
        return math.inf, 0j
    term = total = 1.0 + 0j
    mass = 1.0
    for j in range(m):
        k = m - 1 - j
        term *= (k + 1) * bj[j] / ((j + 1) * dk[k])
        total += term
        mass += abs(term)
    return mass * abs(ratio), ratio * total


def _argument_two_form(m: int, b: complex, z: complex) -> tuple[float, complex]:
    """Mass and value of the direct sum 2F1(-m, b; z; 2)."""
    term = total = 1.0 + 0j
    mass = 1.0
    for n in range(m):
        term *= 2 * (n - m) * (b + n) / ((n + 1) * (z + n))
        total += term
        mass += abs(term)
    return mass, total


def _difference_form(
    m: int, y: complex, w: complex, z: complex, d: complex
) -> tuple[float, complex]:
    """Mass and value of (C(y) - C(w)) / 2, with d = y - w factored out.

    C(b) = P_b S_b is a connection form: prefactor times the sum of terms
    u_j(b) of ratio r_j(b).  For odd m, C(w) = -C(y), so this is the value.
    Near y = w each C(b) is O(1) and the value O(d), so both differences
    are carried by recurrences proportional to the unrounded d:
    dP <- (dP (w+j) - P_w d) / (z+j) and du <- du r_j(y) + u_j(w) dr_j,
    dr_j = (m-j) d (1-m-z) / ((j+1) (L_j-w) (L_j-y)), L_j = 1-m+j.
    """
    if _near_pole(w, -m) or _near_pole(y, -m):
        return math.inf, 0j
    p_w = u_y = u_w = total_y = 1.0 + 0j
    dp = du = total_du = 0j
    mass_y, mass_du = 1.0, 0.0
    for j in range(m):
        low = 1 - m + j
        dp = (dp * (w + j) - p_w * d) / (z + j)
        p_w *= (y + j) / (z + j)
        r_y = (m - j) * (y + j) / ((j + 1) * (low - w))
        du = du * r_y + u_w * (m - j) * d * (1 - m - z) / ((j + 1) * (low - w) * (low - y))
        u_w *= (m - j) * (w + j) / ((j + 1) * (low - y))
        u_y *= r_y
        total_y += u_y
        total_du += du
        mass_y += abs(u_y)
        mass_du += abs(du)
    value = 0.5 * (dp * total_y + p_w * total_du)
    return 0.5 * (abs(dp) * mass_y + abs(p_w) * mass_du), value


def _form(form, *args) -> tuple[float, complex]:
    """form(*args), or infinite mass, as a skipped form has, where a modulus overflows."""
    try:
        return form(*args)
    except OverflowError:  # abs() of a finite complex whose modulus passes the double range
        return math.inf, 0j


def _least_mass(forms: list[tuple[float, complex]]) -> tuple[float, complex]:
    """The form of smallest finite mass; forms tied on it are averaged.

    With nothing finite the mass is infinite and the value nan.
    """
    # a plain loop: min() over a generator costs twice as much, at every order
    best = math.inf
    for mass, _ in forms:
        if mass < best:
            best = mass
    if best == math.inf:
        return math.inf, complex(math.nan, math.nan)
    tied = [value for mass, value in forms if mass == best]
    return best, sum(tied[1:], tied[0]) / len(tied)


def _gauss_sum_walk(
    y: complex, z: complex, asym: complex | None = None
) -> Iterator[tuple[float, complex]]:
    """Yield (mass, value) of the Gauss sums 2F1(-m, y; z; 2) for m = 0, 1, 2, ...

    The direct sum at argument 2 is ill-conditioned: its terms alternate
    and their absolute mass grows like 3^m while the value stays of
    order one.  The same polynomial is therefore summed in plain complex
    doubles in up to five forms, with w = z - y and d = y - w:

    * the connection formula to argument -1 (DLMF 15.8(ii)),
      C(b) = (z-b)_m / (z)_m * 2F1(-m, b; b-z-m+1; -1), at b = y;
    * the same at the Pfaff partner b = w, times (-1)^m, since
      2F1(-m, y; z; 2) = (-1)^m 2F1(-m, w; z; 2);
    * the direct argument-2 sum and its Pfaff partner, likewise;
    * for odd m, (C(y) - C(w)) / 2 with d factored out (_difference_form).

    A form's mass is the sum of its terms' magnitudes times the
    magnitude of its prefactor; in doubles its error is bounded by about
    (m+1) * eps * mass, eps = 2^-52, so once that passes |value| the
    value holds no correct digit.  The value yielded is the one of least
    mass, averaged with any form of exactly equal mass, which keeps it
    exactly symmetric under y <-> w; its mass is yielded with it.  The
    connection forms are summed first; only if (m+1) * eps * mass
    exceeds 1e-13 of the value are the others summed too.  A form with a term whose modulus passes
    the double range is skipped: it gets infinite mass.  So is a
    connection form whose lower parameter comes within the pole guard of
    zero; so at y = z with z that close to one of 0, -1, ..., 1 - m both
    are, and the Pfaff partner 2F1(-m, 0; z; 2) = 1 gives the value.  The tests hold every
    value within 2 (m+1) eps times the least mass of the first four
    forms of a 60-digit reference.

    Odd orders are odd in d, which is rounded away when y is formed near
    z/2, so a caller that knows asym = y - z/2 unrounded passes it and
    d = 2 asym.  At small d only the last form, of mass O(d), then meets
    the bound; at d = 0 odd orders are exactly zero, without a sum.

    One walk serves every order of one (y, z), and order m costs O(m)
    terms.  (z)_m, (y)_m / (z)_m and (w)_m / (z)_m, and the lists b + j
    and (-k) - zb of both connection forms, are carried from order m to
    m + 1 by the operations that formed them afresh at each order, so
    every value has the bits of a per-order sum.

    Raises
    ------
    InvalidParams
        If y, z or asym is not a finite number (bool and str are
        refused), at the first order.
    DenominatorPole
        If (z)_m vanishes (z a nonpositive integer above -m) or
        underflows below 1e-300, at order m; this ends the walk.
    """
    y = _finite_complex("y", y)
    z = _finite_complex("z", z)
    w = z - y
    d = y - w if asym is None else 2.0 * _finite_complex("asym", asym)
    poch_z = ratio_y = ratio_w = 1.0 + 0j
    # y + j, w + j, and (-k) - w, (-k) - y: the connection forms' parameters
    y_j: list[complex] = []
    w_j: list[complex] = []
    k_w: list[complex] = []
    k_y: list[complex] = []
    for m in itertools.count():
        if m % 2 and d == 0:
            # the Pfaff identity makes the value equal to minus itself
            yield 0.0, 0j
        else:
            sign = -1.0 if m % 2 else 1.0
            forms = [_form(_connection_form, m, y_j, k_w, w, ratio_w)]
            mass, value = _form(_connection_form, m, w_j, k_y, y, ratio_y)
            forms.append((mass, sign * value))
            mass, value = _least_mass(forms)
            # no abs() at infinite mass: CPython's abs() of a nan complex raises
            # OverflowError while errno holds the ERANGE of an overflow _form caught
            if mass == math.inf or not mass * (m + 1) * _EPS <= _FALLBACK_TOL * abs(value):
                forms.append(_form(_argument_two_form, m, y, z))
                mass, value = _form(_argument_two_form, m, w, z)
                forms.append((mass, sign * value))
                if m % 2:
                    forms.append(_form(_difference_form, m, y, w, z, d))
                mass, value = _least_mass(forms)
            yield mass, value
        zm = z + m
        poch_z *= zm
        try:
            vanished = abs(poch_z) < _UNDERFLOW_FLOOR
        except OverflowError:  # past the double range: far from vanishing
            vanished = False
        if vanished:
            raise DenominatorPole(
                f"Gauss sum 2F1(-{m + 1}, y; z; 2): (z)_{m + 1} vanished or underflowed "
                f"for z={z!r}"
            )
        y_j.append(y + m)
        w_j.append(w + m)
        ratio_y *= y_j[m] / zm
        ratio_w *= w_j[m] / zm
        k_w.append(-m - w)
        k_y.append(-m - y)
