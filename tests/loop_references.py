"""Scalar-loop references for the amplitude kernels, kept for bitwise tests.

These are the per-call loops the package ran before it carried its Gauss
sums from order to order and summed amplitude moments in one array pass:

* `gauss_sum` sums 2F1(-m, y; z; 2) at one order and returns its least
  mass with its value: it rebuilds (z)_m and the two prefactor ratios
  from n = 0 and forms each connection-form term from b and zb afresh,
  and picks the least mass through `min()`;
* `gauss_sums` calls it once per order, as the two-photon closed form did;
* `amplitude_moment` forms every weight with `math.lgamma` and `math.exp`
  and accumulates numpy scalar products one term at a time;
* `linear_x` and `twophoton_inputs` form the closed forms' inputs x and
  (lambda_disp, y, z) from the raw rates, as `model.derive_linear` and
  `model.derive_twophoton` did before they read `model.band`.

The package's versions must return the same bits, signed zeros included,
and raise the same refusals at the same orders.  The fallback forms did
not change, so they are imported, not copied.
"""

import cmath
import itertools
import math

import numpy as np

from kerrsteady.exact_linear import _AMP_MOMENT_SCALE
from kerrsteady.model import _check_moment_orders, _finite_complex
from kerrsteady.specfun import (
    _EPS,
    _FALLBACK_TOL,
    _UNDERFLOW_FLOOR,
    _argument_two_form,
    _difference_form,
    _near_pole,
)
from kerrsteady.errors import DenominatorPole


def _least_mass(forms):
    """The form of smallest finite mass, forms tied on it averaged (by min())."""
    best = min((mass for mass, _ in forms if mass < math.inf), default=math.inf)
    tied = [value for mass, value in forms if mass == best]
    if not tied:
        return math.inf, complex(math.nan, math.nan)
    return best, sum(tied[1:], tied[0]) / len(tied)


def _connection_form(m, b, zb, ratio):
    """Mass and value of ratio * 2F1(-m, b; b - z - m + 1; -1), terms formed afresh."""
    if _near_pole(zb, -m):
        return math.inf, 0j
    term = total = 1.0 + 0j
    mass = 1.0
    for j in range(m):
        term *= (m - j) * (b + j) / ((j + 1) * ((1 - m + j) - zb))
        total += term
        mass += abs(term)
    return mass * abs(ratio), ratio * total


def gauss_sum(m, y, z, asym=None):
    """(mass, value) of 2F1(-m, y; z; 2) with the prefix products rebuilt from n = 0."""
    y = _finite_complex("y", y)
    z = _finite_complex("z", z)
    w = z - y
    d = y - w if asym is None else 2.0 * _finite_complex("asym", asym)
    poch_z = ratio_y = ratio_w = 1.0 + 0j
    for n in range(m):
        zn = z + n
        poch_z *= zn
        if abs(poch_z) < _UNDERFLOW_FLOOR:
            raise DenominatorPole(
                f"Gauss sum 2F1(-{m}, y; z; 2): (z)_{n + 1} vanished or underflowed for z={z!r}"
            )
        ratio_y *= (y + n) / zn
        ratio_w *= (w + n) / zn
    if m % 2 and d == 0:
        return 0.0, 0j
    sign = -1.0 if m % 2 else 1.0
    forms = [_connection_form(m, y, w, ratio_w)]
    mass, value = _connection_form(m, w, y, ratio_y)
    forms.append((mass, sign * value))
    mass, value = _least_mass(forms)
    if not mass * (m + 1) * _EPS <= _FALLBACK_TOL * abs(value):
        forms.append(_argument_two_form(m, y, z))
        mass, value = _argument_two_form(m, w, z)
        forms.append((mass, sign * value))
        if m % 2:
            forms.append(_difference_form(m, y, w, z, d))
        mass, value = _least_mass(forms)
    return mass, value


def gauss_sums(y, z, asym=None):
    """The package's order-by-order walk, one scalar call per order."""
    for m in itertools.count():
        yield gauss_sum(m, y, z, asym)


def amplitude_moment(wavefunction, l, k):
    """<a^dag^l a^k> accumulated term by term in numpy scalars."""
    l, k = _check_moment_orders(l, k)
    c = wavefunction.amplitudes
    top = len(c) - 1 - max(l, k)
    acc = complex(0.0)
    for m in range(top + 1):
        weight = math.exp(
            0.5 * (math.lgamma(m + l + 1) + math.lgamma(m + k + 1))
            - math.lgamma(m + 1)
        )
        acc += np.conj(c[m + l]) * c[m + k] * weight
    return acc * _AMP_MOMENT_SCALE ** ((l + k) / 2.0)


def linear_x(params):
    """x = (2 delta_c - i gamma) / (2 chi), divided by the float 2 chi."""
    return (2.0 * params.delta_c - 1j * params.gamma) / (2.0 * params.chi)


def twophoton_inputs(params):
    """lambda_disp, y and z, each formed from the rates."""
    denom = 2.0 * params.chi - 1j * params.kappa
    disp = 1j * cmath.sqrt(2.0 * params.lambda_2ph / denom)
    y = (-2j * math.sqrt(2.0) * params.omega + disp * (2.0 * params.delta_c - 1j * params.gamma)) / (
        2.0 * disp * denom
    )
    z = (2.0 * params.delta_c - 1j * params.gamma) / denom
    return disp, y, z
