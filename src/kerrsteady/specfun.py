"""Scalar special functions backing the closed-form steady-state solvers.

Everything here works on plain Python complex numbers, but for one
numpy kernel of the Gauss-sum walk that keeps their bits.  The two
public entry points are

* :func:`pochhammer`, rising factorials evaluated by direct product,
* :func:`hyp0f2_ratio`, a ratio of two 0F2(; b1, b2; z) series summed in lockstep.

0F2 ratios form the correlation functions of the coherently driven
model, and the private _conjugate_hyp0f2 sums its normalization, a
series of real positive terms, to cross-check the amplitude sum.  The
terminating Gauss sum 2F1(-m, y; z; 2) builds the displaced-frame
wavefunction of the two-photon model, which needs every order of one
(y, z); the private generator _gauss_sum_walk walks them.  The 0F2 series
are summed directly; the Gauss sum is not, since at argument 2 its
terms cancel like 3^m.  The walk's connection-form sums cost O(top^2)
terms to order top.  A scalar loop sums them below order _BLOCK_FROM =
24, and in walks that end before _BLOCK_TOP = 44; in longer walks
_connection_blocks sums all orders from 24 on at once in float64 arrays,
written out in CPython's complex operations so that every value keeps
the loop's bits on any CPU.  It holds O(top) running sums plus chunks of
O(_BLOCK_FLOATS) floats, not the O(top^2) factor triangle.

Both 0F2 series, and exact_linear's amplitude ladder, stop through one
predicate, _tail_run: a run of terms, each at most _TAIL_TOL of the
partial sum, ends the sum (five terms here, three ladder levels).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator

import numpy as np

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
# _gauss_sum_walk sums its connection forms in numpy blocks from order
# _BLOCK_FROM (even, so that d = 0 leaves the blocks the even orders) on, in
# walks to _BLOCK_TOP or further: the blocks run top numpy steps however few
# orders they hold, which a shorter walk does not repay.  Scan points
# (orders 13-16 on the README's scan) and validate cases (14-22) stay below.
_BLOCK_FROM = 24
_BLOCK_TOP = 44
# steps times columns of one chunk of _connection_blocks, 64 kB per float
# array: 2**12 and 2**14 ran slower on walks to 120, 180 and 400
_BLOCK_FLOATS = 1 << 13


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


def _connection_sum(m: int, bj: list[complex], dk: list[complex]) -> tuple[float, complex]:
    """Mass and value of 2F1(-m, b; b - z - m + 1; -1), term by term.

    bj[j] is b + j and dk[k] is (-k) - zb, zb = z - b, the lower parameter
    of term j = m - 1 - k, formed from zb: b - z - m + 1 + j, formed from
    b, loses the digits of a small b.  The mass is the sum of the terms'
    magnitudes.  _connection_blocks sums the same terms for many orders at once.
    """
    term = total = 1.0 + 0j
    mass = 1.0
    for j in range(m):
        k = m - 1 - j
        term *= (k + 1) * bj[j] / ((j + 1) * dk[k])
        total += term
        mass += abs(term)
    return mass, total


def _connection_blocks(y: complex, w: complex, orders: range) -> Iterator[tuple]:
    """Yield _connection_sum at b = y and at b = w for each order in orders, in turn.

    Column 2 i + f holds orders[i] for form f: b = y, zb = w for f = 0
    and b = w, zb = y for f = 1.  Step j multiplies the running term of
    every column by the factor of term j + 1 of its order m
    (_connection_factors), zero from j = m on, so order m is final once
    steps 0 to m - 1 are done.  The steps run in chunks, each only when
    the next order is due; a chunk holds its factors and terms for the
    columns still open, steps times columns at most _BLOCK_FLOATS.  The
    terms of a chunk are added to the running sums in order, by
    np.add.accumulate over the steps: np.add.reduce sums pairwise where
    an array collapses to one dimension.  So a sum starts from 1 + 0j and
    mass 1 and adds its terms one by one, as _connection_sum does; the
    exact zeros past the last term leave it alone, since a running sum
    from +0.0 or 1.0 is never -0.0.

    Every complex product and quotient is written out in float arrays in
    the operations of CPython's (3.10, 3.11): numpy's complex array loops
    may fuse a multiply and an add.  So every sum whose mass is finite
    has the bits of _connection_sum; one that is not never wins in
    _least_mass.
    """
    order = np.repeat(np.array(orders, dtype=float), 2)
    b = np.tile(np.array([y, w]), len(orders))
    zb = np.tile(np.array([w, y]), len(orders))
    term = np.zeros((2, order.size))
    term[0] = 1.0
    total, mass = term.copy(), np.ones(order.size)
    done = 0  # steps done, so orders up to done are final
    for i, m in enumerate(orders):
        while done < m:
            # the columns of orders above done are open
            col = int(np.searchsorted(order, done, side="right"))
            steps = min(max(_BLOCK_FLOATS // (order.size - col), 1), orders[-1] - done)
            with np.errstate(all="ignore"):
                factors = _connection_factors(done, steps, order[col:], b[col:], zb[col:])
                terms = np.empty((steps + 1, 2, order.size - col))
                terms[0] = total[:, col:]
                products = np.empty((2, 2, order.size - col))
                by_re, by_im = products
                before = itertools.chain([term[:, None, col:]], terms[1:steps, :, None])
                for prior, factor, after in zip(before, factors, terms[1:]):
                    np.multiply(prior, factor, products)
                    np.add(by_re, by_im, after)
                term[:, col:] = terms[steps]
                moduli = np.hypot(terms[:, 0], terms[:, 1])
                moduli[0] = mass[col:]
                total[:, col:] = np.add.accumulate(terms, axis=0)[steps]
                mass[col:] = np.add.accumulate(moduli, axis=0)[steps]
            done += steps
        yield ((float(mass[2 * i]), complex(total[0, 2 * i], total[1, 2 * i])),
               (float(mass[2 * i + 1]), complex(total[0, 2 * i + 1], total[1, 2 * i + 1])))


def _connection_factors(done: int, steps: int, order, b, zb):
    """The factors of steps done to done + steps - 1, for _connection_blocks' columns.

    The factor of step j in the column of order m, form (b, zb), is
    (k + 1) (b + j) / ((j + 1) ((-k) - zb)), k = m - 1 - j, by the
    operations of _connection_sum: b + j and (-k) - zb as the walk's
    lists hold them, and CPython's complex division (3.10, 3.11), which
    divides by the divisor's larger part (its branch for a nan part is
    never taken: the divisor is a product of finite numbers).  CPython
    multiplies an int by a complex as (int + 0j) times it; its 0.0 * part
    terms are left out, since they add a zero to a product that is never
    -0.0 here (b + j and (-k) - zb have no -0.0 part).  Columns past
    their last step get the factor zero.  The factors are laid out so
    that a term t times the factor f is products[0] + products[1] of
    products = t[:, None] * factors: (t.re f.re, t.re f.im) + (t.im
    (-f.im), t.im f.re).
    """
    j = np.arange(done, done + steps, dtype=float)[:, None]
    up = order - j  # k + 1
    ar, ai = up * (b.real + j), up * (b.imag + 0.0)
    br, bi = (j + 1.0) * ((j + 1.0 - order) - zb.real), (j + 1.0) * (0.0 - zb.imag)
    ratio = bi / br
    denom = br + bi * ratio
    re = (ar + ai * ratio) / denom
    im = (ai - ar * ratio) / denom
    by_imag = np.nonzero(np.abs(br) < np.abs(bi))
    ar, ai, br, bi = ar[by_imag], ai[by_imag], br[by_imag], bi[by_imag]
    ratio = br / bi
    denom = br * ratio + bi
    re[by_imag] = (ar * ratio + ai) / denom
    im[by_imag] = (ai * ratio - ar) / denom
    past = up <= 0.0
    re[past] = im[past] = 0.0
    factors = np.empty((steps, 2, 2, order.size))
    factors[:, 0, 0] = factors[:, 1, 1] = re
    factors[:, 0, 1] = im
    np.negative(im, out=factors[:, 1, 0])
    return factors


def _connection_form(m: int, zb: complex, ratio: complex, sums) -> tuple[float, complex]:
    """Mass and value of ratio * 2F1(-m, b; b - z - m + 1; -1), from its sums.

    zb is z - b and ratio is (zb)_m / (z)_m; sums() gives the mass and
    value of the hypergeometric sum (_connection_sum).  A form whose lower
    parameter comes within the pole guard of zero is skipped before it is
    summed: it gets infinite mass.
    """
    if _near_pole(zb, -m):
        return math.inf, 0j
    mass, total = sums()
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


def _gauss_sum_order(m: int, y: complex, z: complex, w: complex, d: complex,
                     ratio_y: complex, ratio_w: complex, sums_y, sums_w) -> tuple[float, complex]:
    """(mass, value) of 2F1(-m, y; z; 2), one order of _gauss_sum_walk.

    sums_y() and sums_w() give the connection sums (_connection_sum) at
    b = y and b = w; both of the walk's kernels come through here.
    """
    if m % 2 and d == 0:
        # the Pfaff identity makes the value equal to minus itself
        return 0.0, 0j
    sign = -1.0 if m % 2 else 1.0
    forms = [_form(_connection_form, m, w, ratio_w, sums_y)]
    mass, value = _form(_connection_form, m, y, ratio_y, sums_w)
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
    return mass, value


def _gauss_sum_walk(
    y: complex, z: complex, asym: complex | None = None, *, top: int
) -> Iterator[tuple[float, complex]]:
    """Yield (mass, value) of the Gauss sums 2F1(-m, y; z; 2) for m = 0, 1, ..., top.

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

    One walk serves every order of one (y, z), up to order top.  (z)_m,
    (y)_m / (z)_m and (w)_m / (z)_m, and the lists b + j and (-k) - zb
    of both connection forms, are carried from order m to m + 1 by the
    operations that formed them afresh at each order, so every value has
    the bits of a per-order sum.  The connection sums, m + 1 terms at
    order m, cost O(top^2) in all, and have two kernels with the same
    bits; _gauss_sum_order assembles each order from either.  One is
    _connection_sum, a loop in complex scalars.  The other is
    _connection_blocks, which sums every order from _BLOCK_FROM to top
    in numpy (at d = 0 only the even ones), one step of the term
    recursion at a time, in chunks of steps that each hold
    O(_BLOCK_FLOATS) floats besides O(top) running sums.  A chunk runs
    when the next order is due, so a caller that stops early has paid
    for at most one chunk past its last order.  The blocks cost top
    numpy steps however few orders they hold, so only a walk to
    _BLOCK_TOP or further uses them, where they overtake the loop.  On a
    2-core x86 host blocks from order 24 took a walk to 30 from 0.35 to
    0.41 ms; they take a walk to 44 from 0.59 to 0.51 ms, to 120 from 3.4
    to 1.9 ms and to 180 from 7.5 to 3.4 ms.  Orders below _BLOCK_FROM
    always take the loop.

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
    # the orders the blocks sum: none in a short walk, and at d = 0 only the
    # even ones, since _gauss_sum_order answers odd orders there without a sum
    orders = range(_BLOCK_FROM, top + 1, 2 if d == 0 else 1) if top >= _BLOCK_TOP else range(0)
    blocks = _connection_blocks(y, w, orders)
    for m in range(top + 1):
        if m in orders:
            sum_y, sum_w = next(blocks)

            def sums_y():
                return sum_y

            def sums_w():
                return sum_w
        else:
            sums_y = functools.partial(_connection_sum, m, y_j, k_w)
            sums_w = functools.partial(_connection_sum, m, w_j, k_y)
        yield _gauss_sum_order(m, y, z, w, d, ratio_y, ratio_w, sums_y, sums_w)
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
