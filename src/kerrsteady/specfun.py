"""Scalar special functions backing the closed-form steady-state solvers.

Everything here works on plain Python complex numbers.  The four public
entry points are

* :func:`log_gamma`, the principal-branch complex log-gamma,
* :func:`pochhammer`, rising factorials evaluated by direct product,
* :func:`hyp0f2`, the generalized hypergeometric series 0F2(; b1, b2; z),
* :func:`hyp2f1_terminating`, the terminating Gauss sum 2F1(-m, y; z; 2).

The 0F2 series appears in normalization constants and correlation functions
of the coherently driven model; the terminating 2F1 at argument 2 builds the
displaced-frame wavefunction of the two-photon model.  Both are summed
directly with compensated accumulation because the argument-2 Gauss sum
cancels severely for large order m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DenominatorPole, InvalidParams, NonConvergence, PoleError

_LANCZOS_G = 7
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

_POLE_GUARD = 1e-12
_SERIES_TOL = 1e-16
_SERIES_CAP = 100_000
_CONSECUTIVE_SMALL = 5
_UNDERFLOW_FLOOR = 1e-300
_OVERFLOW_CEIL = 1e300


@dataclass
class SeriesResult:
    """Value of a truncated series together with convergence evidence.

    Attributes
    ----------
    value : complex
        Partial sum at termination.
    terms_used : int
        Number of terms accumulated.
    converged : bool
        True when the small-term exit fired, False when the term cap did.
    tail_estimate : float
        Largest relative magnitude |term| / |partial sum| among the final
        run of small terms; an upper-bound proxy for the discarded tail.
    """

    value: complex
    terms_used: int
    converged: bool
    tail_estimate: float


def _check_finite(name: str, value: complex) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InvalidParams(f"{name} must be finite, got {value!r}")
    return value


def log_gamma(z: complex) -> complex:
    """Principal-branch log-gamma of a complex argument.

    Lanczos approximation (g = 7, nine coefficients) on Re z >= 1/2 and
    the reflection formula below, arranged so the result follows the
    standard analytic continuation of log Gamma rather than log composed
    with Gamma.  Relative accuracy is about 1e-15 for |z| <= 200.

    Raises
    ------
    PoleError
        If z lies within 1e-12 of a pole (a nonpositive integer).
    """
    z = _check_finite("z", z)
    if z.real < 0.5:
        nearest = round(z.real)
        if nearest <= 0 and abs(complex(z.real - nearest, z.imag)) < _POLE_GUARD:
            raise PoleError(f"log_gamma pole at nonpositive integer near z={z!r}")
        if z.imag < 0.0:
            return log_gamma(z.conjugate()).conjugate()
        return _LOG_PI - _log_sin_pi_upper(z) - _lanczos(1.0 - z)
    return _lanczos(z)


def _lanczos(z: complex) -> complex:
    acc = _LANCZOS_COEF[0] + 0j
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (z - 1.0 + i)
    t = z + (_LANCZOS_G - 0.5)
    return 0.5 * _LOG_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def _log_sin_pi_upper(z: complex) -> complex:
    # Valid for Im z >= 0: factor out exp(-i pi z) so nothing overflows and
    # the branch tracks the continuation used by standard lgamma tables.
    return -1j * cmath.pi * z + cmath.log((cmath.exp(2j * cmath.pi * z) - 1.0) / 2j)


def pochhammer(x: complex, m: int) -> complex:
    """Rising factorial (x)_m = x (x+1) ... (x+m-1) by direct product.

    The direct product stays exact at negative integer x where a
    gamma-function quotient would hit poles; (x)_0 = 1 identically.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise InvalidParams(f"pochhammer order must be a nonnegative integer, got {m!r}")
    x = _check_finite("x", x)
    acc = 1.0 + 0j
    for j in range(m):
        acc *= x + j
    return acc


def hyp0f2(b1: complex, b2: complex, z: complex) -> SeriesResult:
    """Generalized hypergeometric series 0F2(; b1, b2; z).

    Terms are accumulated until the last five each satisfy
    |term| / |partial sum| < 1e-16, with a hard cap of 1e5 terms.  The
    series converges for every finite z (factorial-cubed denominators),
    so the cap only fires for astronomically large |z|.

    Raises
    ------
    DenominatorPole
        If b1 or b2 sits within 1e-12 of a nonpositive integer, or a
        running Pochhammer factor underflows below 1e-300.
    NonConvergence
        If the term cap fires first or the partial sum leaves the double
        range.
    """
    b1 = _check_finite("b1", b1)
    b2 = _check_finite("b2", b2)
    z = _check_finite("z", z)
    for name, b in (("b1", b1), ("b2", b2)):
        nearest = round(b.real)
        if nearest <= 0 and abs(complex(b.real - nearest, b.imag)) < _POLE_GUARD:
            raise DenominatorPole(
                f"hyp0f2 parameter {name}={b!r} within {_POLE_GUARD} of a nonpositive integer"
            )
    if z == 0:
        return SeriesResult(1.0 + 0j, 1, True, 0.0)

    total = 1.0 + 0j
    comp = 0.0 + 0j
    term = 1.0 + 0j
    small_run = 0
    tail = 1.0
    for m in range(_SERIES_CAP):
        denom = (b1 + m) * (b2 + m) * (m + 1)
        if abs(denom) < _UNDERFLOW_FLOOR:
            raise DenominatorPole(f"hyp0f2 denominator underflow at term {m + 1}")
        term = term * z / denom
        # Kahan step
        yv = term - comp
        tv = total + yv
        comp = (tv - total) - yv
        total = tv
        if abs(total) > _OVERFLOW_CEIL:
            raise NonConvergence("hyp0f2 partial sum exceeds double range")
        rel = abs(term) / max(abs(total), _UNDERFLOW_FLOOR)
        if rel < _SERIES_TOL:
            small_run += 1
            tail = max(tail if small_run > 1 else 0.0, rel)
            if small_run >= _CONSECUTIVE_SMALL:
                return SeriesResult(total, m + 2, True, tail)
        else:
            small_run = 0
            tail = rel
    raise NonConvergence(f"hyp0f2 did not converge within {_SERIES_CAP} terms")


def hyp0f2_ratio(
    bn1: complex, bn2: complex, bd1: complex, bd2: complex, z: complex
) -> complex:
    """Ratio 0F2(; bn1, bn2; z) / 0F2(; bd1, bd2; z) with joint rescaling.

    Both series are summed in lockstep and both partial sums are divided
    by a common factor whenever either grows past 1e250, so the ratio is
    available even where the individual series overflow doubles.  Used by
    the correlation formulas, whose value is always such a ratio.
    """
    for name, b in (("bn1", bn1), ("bn2", bn2), ("bd1", bd1), ("bd2", bd2)):
        b = _check_finite(name, b)
        nearest = round(b.real)
        if nearest <= 0 and abs(complex(b.real - nearest, b.imag)) < _POLE_GUARD:
            raise DenominatorPole(
                f"hyp0f2_ratio parameter {name}={b!r} within {_POLE_GUARD} of a nonpositive integer"
            )
    z = _check_finite("z", z)

    num = 1.0 + 0j
    den = 1.0 + 0j
    tn = 1.0 + 0j
    td = 1.0 + 0j
    small_run = 0
    for m in range(_SERIES_CAP):
        dn = (bn1 + m) * (bn2 + m) * (m + 1)
        dd = (bd1 + m) * (bd2 + m) * (m + 1)
        if min(abs(dn), abs(dd)) < _UNDERFLOW_FLOOR:
            raise DenominatorPole(f"hyp0f2_ratio denominator underflow at term {m + 1}")
        tn = tn * z / dn
        td = td * z / dd
        num += tn
        den += td
        scale = max(abs(num), abs(den), abs(tn), abs(td))
        if scale > 1e250:
            num /= scale
            den /= scale
            tn /= scale
            td /= scale
        rel = max(abs(tn), abs(td)) / max(abs(num), abs(den), _UNDERFLOW_FLOOR)
        if rel < _SERIES_TOL:
            small_run += 1
            if small_run >= _CONSECUTIVE_SMALL:
                break
        else:
            small_run = 0
    else:
        raise NonConvergence(f"hyp0f2_ratio did not converge within {_SERIES_CAP} terms")
    if abs(den) < _UNDERFLOW_FLOOR:
        raise DenominatorPole("hyp0f2_ratio denominator series summed to zero")
    return num / den


# Compensated double-double kernel for the terminating Gauss sum.  A value
# is an unevaluated sum hi + lo with |lo| <= ulp(hi)/2, about 32
# significant digits; a complex value carries one such pair per component.
# Plain Kahan compensation of the running sum is not enough here because
# the terms themselves, formed in doubles, carry O(eps * |term|) rounding
# while the absolute-term mass grows like 3^m: by m = 30 that wipes out the
# result.  Forming the terms with Dekker's error-free transformations
# (two-sum, and two-product through the Veltkamp split) pushes the wall to
# m ~ 65 in the worst case y = z.
#
# The arithmetic is written out on plain floats, because in CPython a call
# and a tuple per pairwise operation cost more than the floating-point work
# itself: the loop of hyp2f1_terminating keeps the running term and total
# in eight locals and calls only the two helpers below, a complex multiply
# and a division of a complex value by a real one; the shifted parameters,
# |z+j|^2 and the running sum are formed inline.  Every operation of the
# textbook pairwise formulas is kept in its order, products by an exact
# zero included, because those decide signed zeros and NaN propagation.
# The only work saved is recomputing a value from the same inputs: each
# operand is split once however often it is multiplied, and the square of
# Im z is formed once per call.

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def _cdd_mul(ar, arl, ai, ail, br, brl, bi, bil):
    """Complex double-double product as four floats (re hi, re lo, im hi, im lo).

    The factors are (ar + arl) + i (ai + ail) and (br + brl) + i (bi + bil).
    Each component is the double-double sum of two double-double products;
    the real part's second product takes the left factor's imaginary part
    negated, and that negated operand gets its own split.
    """
    c = _SPLITTER * ar
    arh = c - (c - ar)
    art = ar - arh
    c = _SPLITTER * ai
    aih = c - (c - ai)
    ait = ai - aih
    nai = -ai
    c = _SPLITTER * nai
    naih = c - (c - nai)
    nait = nai - naih
    c = _SPLITTER * br
    brh = c - (c - br)
    brt = br - brh
    c = _SPLITTER * bi
    bih = c - (c - bi)
    bit = bi - bih

    # real part: (a_re * b_re) + (-a_im * b_im)
    p = ar * br
    e = (((arh * brh - p) + arh * brt) + art * brh) + art * brt
    e = e + (ar * brl + arl * br)
    h1 = p + e
    bb = h1 - p
    l1 = (p - (h1 - bb)) + (e - bb)
    p = nai * bi
    e = (((naih * bih - p) + naih * bit) + nait * bih) + nait * bit
    e = e + (nai * bil + (-ail) * bi)
    h2 = p + e
    bb = h2 - p
    l2 = (p - (h2 - bb)) + (e - bb)
    s = h1 + h2
    bb = s - h1
    e = (h1 - (s - bb)) + (h2 - bb)
    e = e + (l1 + l2)
    rh = s + e
    bb = rh - s
    rl = (s - (rh - bb)) + (e - bb)

    # imaginary part: (a_re * b_im) + (a_im * b_re)
    p = ar * bi
    e = (((arh * bih - p) + arh * bit) + art * bih) + art * bit
    e = e + (ar * bil + arl * bi)
    h1 = p + e
    bb = h1 - p
    l1 = (p - (h1 - bb)) + (e - bb)
    p = ai * br
    e = (((aih * brh - p) + aih * brt) + ait * brh) + ait * brt
    e = e + (ai * brl + ail * br)
    h2 = p + e
    bb = h2 - p
    l2 = (p - (h2 - bb)) + (e - bb)
    s = h1 + h2
    bb = s - h1
    e = (h1 - (s - bb)) + (h2 - bb)
    e = e + (l1 + l2)
    ih = s + e
    bb = ih - s
    il = (s - (ih - bb)) + (e - bb)
    return rh, rl, ih, il


def _cdd_div_dd(xr, xrl, xi, xil, d, dl):
    """(xr + xrl) + i (xi + xil) divided by the real double-double d + dl.

    Each component takes one long-division step: the double quotient q0,
    its remainder formed with a two-product, and a correction quotient
    folded in with a two-sum.  The divisor is split once for both.
    """
    c = _SPLITTER * d
    dh = c - (c - d)
    dt = d - dh

    q0 = xr / d
    c = _SPLITTER * q0
    qh = c - (c - q0)
    qt = q0 - qh
    p = q0 * d
    e = (((qh * dh - p) + qh * dt) + qt * dh) + qt * dt
    q1 = ((xr - p) + ((xrl - e) - q0 * dl)) / d
    rh = q0 + q1
    bb = rh - q0
    rl = (q0 - (rh - bb)) + (q1 - bb)

    q0 = xi / d
    c = _SPLITTER * q0
    qh = c - (c - q0)
    qt = q0 - qh
    p = q0 * d
    e = (((qh * dh - p) + qh * dt) + qt * dh) + qt * dt
    q1 = ((xi - p) + ((xil - e) - q0 * dl)) / d
    ih = q0 + q1
    bb = ih - q0
    il = (q0 - (ih - bb)) + (q1 - bb)
    return rh, rl, ih, il


def hyp2f1_terminating(m: int, y: complex, z: complex) -> complex:
    """Terminating Gauss sum 2F1(-m, y; z; 2), exactly m + 1 terms.

    At argument 2 the terms alternate in sign and grow before they shrink;
    their absolute mass reaches about 3^m while the sum stays of order one,
    so every digit of cancellation must be paid for in working precision.
    Terms and the running sum are therefore carried in compensated
    double-double arithmetic.  That holds the result to near full double
    accuracy only up to a precision wall: about m = 65 in the worst case
    y = z, where the absolute term mass outgrows 32 digits.  The solvers
    ask for more than that -- orders 180 to 300 at the fixed truncations
    of the doubled-space residual, and m = 328 at the strong two-photon
    pump point (delta = -2, chi = 0.05, lambda = 1) -- and past the wall
    the returned value can be wrong in every digit (ROADMAP item 1).

    Raises
    ------
    InvalidParams
        If m is not a nonnegative integer (bool included).
    DenominatorPole
        If (z)_n vanishes for some n <= m (z a nonpositive integer above
        -m) or underflows below 1e-300.
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 0:
        raise InvalidParams(f"hyp2f1_terminating order must be a nonnegative integer, got {m!r}")
    y = _check_finite("y", y)
    z = _check_finite("z", z)
    yr, yi = y.real, y.imag
    zr, zi = z.real, z.imag

    # running term (tr, trl, ti, til) and total (sr, srl, si, sil): hi/lo
    # pairs for the real and imaginary parts
    tr, trl, ti, til = 1.0, 0.0, 0.0, 0.0
    sr, srl, si, sil = 1.0, 0.0, 0.0, 0.0
    # (Im z)^2 as a double-double product of (zi, 0) with itself, the same
    # for every n
    c = _SPLITTER * zi
    h = c - (c - zi)
    t = zi - h
    p = zi * zi
    e = (((h * h - p) + h * t) + t * h) + t * t
    e = e + (zi * 0.0 + 0.0 * zi)
    qh = p + e
    bb = qh - p
    ql = (p - (qh - bb)) + (e - bb)
    poch_z = 1.0 + 0j
    for n in range(1, m + 1):
        j = float(n - 1)
        poch_z *= z + (n - 1)
        if abs(poch_z) < _UNDERFLOW_FLOOR:
            raise DenominatorPole(
                f"hyp2f1_terminating: (z)_{n} vanished or underflowed for z={z!r}"
            )
        # every shifted parameter enters as an exact double-double (a
        # two-sum) so the term recurrence never touches ordinary rounding
        yh = yr + j
        bb = yh - yr
        yl = (yr - (yh - bb)) + (j - bb)
        zh = zr + j
        bb = zh - zr
        zl = (zr - (zh - bb)) + (j - bb)

        # term *= 2(n-1-m) / n * (y+j) * conj(z+j) / |z+j|^2
        tr, trl, ti, til = _cdd_mul(tr, trl, ti, til, float(2 * (n - 1 - m)), 0.0, 0.0, 0.0)
        tr, trl, ti, til = _cdd_div_dd(tr, trl, ti, til, float(n), 0.0)
        tr, trl, ti, til = _cdd_mul(tr, trl, ti, til, yh, yl, yi, 0.0)
        tr, trl, ti, til = _cdd_mul(tr, trl, ti, til, zh, zl, -zi, -0.0)
        c = _SPLITTER * zh
        h = c - (c - zh)
        t = zh - h
        p = zh * zh
        e = (((h * h - p) + h * t) + t * h) + t * t
        e = e + (zh * zl + zl * zh)
        dh = p + e
        bb = dh - p
        dl = (p - (dh - bb)) + (e - bb)
        s = dh + qh
        bb = s - dh
        e = (dh - (s - bb)) + (qh - bb)
        e = e + (dl + ql)
        dh = s + e
        bb = dh - s
        dl = (s - (dh - bb)) + (e - bb)
        tr, trl, ti, til = _cdd_div_dd(tr, trl, ti, til, dh, dl)

        # total += term, one double-double add per component
        s = sr + tr
        bb = s - sr
        e = (sr - (s - bb)) + (tr - bb)
        e = e + (srl + trl)
        sr = s + e
        bb = sr - s
        srl = (s - (sr - bb)) + (e - bb)
        s = si + ti
        bb = s - si
        e = (si - (s - bb)) + (ti - bb)
        e = e + (sil + til)
        si = s + e
        bb = si - s
        sil = (s - (si - bb)) + (e - bb)
    return complex(sr + srl, si + sil)
