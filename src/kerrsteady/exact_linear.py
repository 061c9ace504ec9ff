"""Closed-form steady state of the coherently driven Kerr resonator.

The steady state is the quantum-mode vacuum of the doubled-space
generator (keldysh_ops), whose raising part maps q=0 into q=1 through a
band: bidiagonal for the coherent drive, tridiagonal with the two-photon
pump.  Forward substitution through that band is the package's one
amplitude recursion, _recursion_amplitudes, defined here; exact_twophoton
imports it and prints its three-term form.  For the coherent drive, with
the reduced drive ``epsilon`` and detuning-loss ratio ``x`` (see
model.derive_linear), it is

    beta_m = sqrt(2/m) * epsilon / (x + m - 1) * beta_{m-1},    beta_0 = 1,

whose closed form is beta_m = (sqrt(2) epsilon)^m / (sqrt(m!) (x)_m) with
(x)_m the rising factorial.  The squared-amplitude sum equals the
generalized hypergeometric value 0F2(; conj(x), x; 2|epsilon|^2), and
normally ordered moments reduce to ratios of shifted 0F2 values.  Every
moment is computed along both routes, the hypergeometric ratio and the
direct amplitude sum, and the two must agree before a value is released.
The moments of one drive point are all checked against one amplitude build.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    CrossCheckFailure,
    CutoffTooSmall,
    DenominatorPole,
    InvariantViolation,
    NonConvergence,
)
from .model import (ModelParams, _at_drive, _check_fock_size, _check_moment_orders,
                    _require_coherent_drive, derive_linear)
from .specfun import _POLE_GUARD, _conjugate_hyp0f2, hyp0f2_ratio, pochhammer

_TAIL_RUN = 3
# relative squared-amplitude level below which a run of levels counts as tail
_TAIL_TOL = 1e-16
_NORM_XCHECK_TOL = 1e-8
_MOMENT_XCHECK_TOL = 1e-9
# adaptive amplitude ladders give up past this Fock index
_MAX_TRUNCATION = 4096

# Moments from the amplitude representation carry one factor sqrt(2) per
# operator order that the closed form does not; this rescaling removes it.
_AMP_MOMENT_SCALE = 0.5

# amplitude_moment's weights per (l, k), extended as longer sequences arrive
_MOMENT_WEIGHTS: dict[tuple[int, int], np.ndarray] = {}
_NO_WEIGHTS = np.zeros(0)


@dataclass
class SteadyWavefunction:
    """Amplitude-sequence representation of a steady state.

    amplitudes holds the normalized sequence (unit squared sum) up to
    Fock index `truncation`.  norm_constant is the squared sum of the
    unnormalized recursion output, which doubles as the hypergeometric
    normalization value.  tail_mass is the normalized weight of the
    highest kept level only.  It is not a bound on the discarded weight:
    the weights can dip and rise again (for the coherent drive when
    Re x < 0, towards the multiphoton resonance index 1 - Re x), and the
    stopping rule can fire in the valley between the two humps with most
    of the weight still above it.
    """

    amplitudes: np.ndarray
    truncation: int
    norm_constant: float
    tail_mass: float
    converged: bool


@dataclass(frozen=True)
class CorrelationResult:
    """One normally ordered moment <a^dag^l a^k> with its cross-check.

    value comes from the route documented by the producing function;
    crosscheck_gap is the absolute difference against the independent
    second route, already verified below tolerance (the producer raises
    CrossCheckFailure instead of returning otherwise).  truncation is the
    Fock depth of the amplitude sequence involved.
    """

    value: complex
    l: int
    k: int
    crosscheck_gap: float
    truncation: int


def _tail_rule_fired(weights: list[float], total: float, tail_tol: float) -> bool:
    """True when the trailing run of squared amplitudes is negligible."""
    # the newest weight is tested first: it rules out almost every level
    if weights[-1] > tail_tol * total or len(weights) < _TAIL_RUN + 1:
        return False
    return all(w <= tail_tol * total for w in weights[-_TAIL_RUN:])


def _ladder(
    step: Callable[[int, list[complex]], complex],
    tail_tol: float,
    max_truncation: int,
    truncation: int | None,
) -> tuple[list[complex], bool]:
    """Climb the Fock ladder from beta_0 = 1 with beta_m = step(m, betas).

    Every amplitude route runs through this one loop; a route supplies
    only its step, which sees the amplitudes so far and raises on its own
    pole or overflow.  Adaptively (truncation None) the climb stops when
    the tail rule fires and raises NonConvergence past max_truncation;
    with a fixed truncation it computes exactly that many levels and
    reports whether the rule held there.  Either way, a squared-amplitude
    sum past the double range raises NonConvergence naming the Fock index
    where it ran out.  Every amplitude ladder stops by this rule, but the
    0F2 series in specfun.hyp0f2_ratio and specfun._conjugate_hyp0f2 each
    stop by their own five-term run rule, so a proven tail bound must
    replace the run rule in those two places as well as here.
    """
    if truncation is not None:
        truncation = _check_fock_size("truncation", truncation, 0)
    betas = [complex(1.0)]
    weights = [1.0]
    total = 1.0
    limit = max_truncation if truncation is None else truncation
    for m in range(1, limit + 1):
        betas.append(step(m, betas))
        try:
            w = abs(betas[-1]) ** 2
        except OverflowError:
            w = math.inf
        weights.append(w)
        total += w
        if not total < math.inf:  # nan too
            raise NonConvergence(f"amplitude weight leaves the double range at Fock index {m}")
        if truncation is None and _tail_rule_fired(weights, total, tail_tol):
            return betas, True
    if truncation is None:
        raise NonConvergence(
            f"amplitude tail not negligible by Fock index {max_truncation}"
        )
    return betas, _tail_rule_fired(weights, total, tail_tol)


def _drive_argument(epsilon: complex) -> float:
    """The 0F2 argument 2 |epsilon|^2, refused once it leaves the double range."""
    try:
        w = 2.0 * abs(epsilon) ** 2
    except OverflowError:
        w = math.inf
    if not w < math.inf:
        raise NonConvergence(
            f"the 0F2 argument 2|epsilon|^2 leaves the double range at epsilon={epsilon!r}")
    return w


def _recursion_amplitudes(
    params: ModelParams,
    tail_tol: float,
    max_truncation: int,
    truncation: int | None,
) -> tuple[list[complex], bool]:
    """Unnormalized amplitudes by forward substitution through the generator's band."""
    drive = -2j * math.sqrt(2.0) * params.omega
    diag0 = 2.0 * params.delta_c - 1j * params.gamma
    diag1 = 2.0 * params.chi - 1j * params.kappa
    pump = 2.0 * params.lambda_2ph
    scale0, scale1 = abs(diag0), abs(diag1)

    def step(m: int, betas: list[complex]) -> complex:
        coeff = diag0 + diag1 * (m - 1)
        if abs(coeff) < _POLE_GUARD * (scale0 + scale1 * m):
            raise DenominatorPole(
                f"three-term recursion coefficient vanishes at index {m}"
            )
        rhs = drive * betas[m - 1]
        # without the pump the band is bidiagonal
        if pump and m >= 2:
            rhs -= pump * math.sqrt(m - 1.0) * betas[m - 2]
        return rhs / (math.sqrt(float(m)) * coeff)

    return _ladder(step, tail_tol, max_truncation, truncation)


def _package(betas: list[complex], converged: bool) -> SteadyWavefunction:
    """Normalize a ladder's output into a SteadyWavefunction."""
    amps = np.asarray(betas, dtype=complex)
    norm = float(np.sum(np.abs(amps) ** 2))
    return SteadyWavefunction(
        amplitudes=amps / math.sqrt(norm),
        truncation=len(betas) - 1,
        norm_constant=norm,
        tail_mass=float(abs(amps[-1]) ** 2 / norm),
        converged=converged,
    )


def _release_moment(
    value: complex, check: complex, l: int, k: int, truncation: int, routes: tuple[str, str]
) -> CorrelationResult:
    """Release a moment only if its two routes agree; raise otherwise."""
    gap = abs(value - check)
    if gap > _MOMENT_XCHECK_TOL * max(abs(value), abs(check)) + 1e-14:
        raise CrossCheckFailure(
            f"moment l={l}, k={k} disagrees between {routes[0]} route "
            f"{value!r} and {routes[1]} route {check!r}"
        )
    return CorrelationResult(
        value=value, l=l, k=k, crosscheck_gap=gap, truncation=truncation
    )


def _real_photon_number(result: CorrelationResult) -> float:
    """The real part of <a^dag a>, refusing a non-negligible imaginary part."""
    value = result.value
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise InvariantViolation(
            f"photon number acquired an imaginary part: {value!r}"
        )
    return value.real


def wavefunction_linear(params: ModelParams, truncation: int | None = None) -> SteadyWavefunction:
    """Steady-state amplitude sequence for the linearly driven model.

    Parameters
    ----------
    params : ModelParams
        Must describe the linear model (no two-photon pump or loss).
    truncation : int, optional
        Compute exactly this many levels instead of stopping adaptively.
        Useful when a fixed-size vector is needed downstream; `converged`
        then reports whether the tail rule held at that size.

    Raises
    ------
    InvalidParams
        If chi = 0 or truncation is not an integer >= 0.
    NonConvergence
        If the tail rule has not held by Fock index _MAX_TRUNCATION.
    CutoffTooSmall
        If a fixed truncation ends before the tail rule holds and the
        amplitude sum therefore misses the hypergeometric normalization.
    CrossCheckFailure
        If the two normalizations disagree in any other case.
    """
    _require_coherent_drive(params)
    # derive_linear refuses chi = 0 (no 0F2 form) before the recursion, which would run there
    derived = derive_linear(params)
    wf = _package(*_recursion_amplitudes(params, _TAIL_TOL, _MAX_TRUNCATION, truncation))
    norm_series = wf.norm_constant
    norm_hyper = _conjugate_hyp0f2(derived.x, _drive_argument(derived.epsilon))
    if not math.isclose(norm_series, norm_hyper, rel_tol=_NORM_XCHECK_TOL):
        if truncation is not None and not wf.converged:
            raise CutoffTooSmall(
                f"truncation {truncation} is too small for this state: its "
                f"amplitudes have not died out there, and their squared sum "
                f"{norm_series!r} misses the hypergeometric normalization "
                f"{norm_hyper!r}"
            )
        raise CrossCheckFailure(
            "normalization mismatch between amplitude sum "
            f"{norm_series!r} and hypergeometric value {norm_hyper!r}"
        )
    return wf


def _moment_weights(l: int, k: int, n: int) -> np.ndarray:
    """The weights sqrt((m+l)! (m+k)!) / m! for m < n, each by math.lgamma and math.exp.

    One table per (l, k) grows on demand and is shared by every caller;
    an entry never changes once formed.
    """
    table = _MOMENT_WEIGHTS.get((l, k), _NO_WEIGHTS)
    if len(table) < n:
        more = [
            math.exp(0.5 * (math.lgamma(m + l + 1) + math.lgamma(m + k + 1)) - math.lgamma(m + 1))
            for m in range(len(table), n)
        ]
        table = _MOMENT_WEIGHTS[l, k] = np.concatenate((table, more))
    return table[:n]


def amplitude_moment(wavefunction: SteadyWavefunction, l: int, k: int) -> complex:
    """Normally ordered moment <a^dag^l a^k> from the amplitude sequence.

    The sum sqrt((m+l)! (m+k)!) / m! over conj(c_{m+l}) c_{m+k}
    overcounts each operator order by sqrt(2), hence the rescaling.

    The terms are formed in one pass over the float64 real and imaginary
    parts, by the operations of numpy's scalar complex product (which
    multiplies by a real weight as by weight + 0j), and summed in order
    from +0.0 with np.add.accumulate.  The weights come from a table
    formed by math.lgamma and math.exp.  So the value, a Python complex,
    has the bits of the term-by-term scalar loop on any CPU: numpy's
    complex array product may fuse a multiply and an add, and
    np.add.reduce sums pairwise.
    """
    l, k = _check_moment_orders(l, k)
    c = wavefunction.amplitudes
    n = max(len(c) - max(l, k), 0)
    ar, ai = c.real[l:l + n], c.imag[l:l + n]
    br, bi = c.real[k:k + n], c.imag[k:k + n]
    weight = _moment_weights(l, k, n)
    # conj(a) * b: ar br - (-ai) bi is ar br + ai bi bit for bit
    re = ar * br + ai * bi
    im = ar * bi - ai * br
    terms = np.zeros(n + 1, dtype=complex)  # terms[0] = +0.0 starts the sum
    terms.real[1:] = re * weight - im * 0.0
    terms.imag[1:] = re * 0.0 + im * weight
    acc = complex(np.add.accumulate(terms)[-1])
    scale = _AMP_MOMENT_SCALE ** ((l + k) / 2.0)
    return complex(acc.real * scale - acc.imag * 0.0, acc.real * 0.0 + acc.imag * scale)


def _linear_moments(params: ModelParams, orders) -> list[CorrelationResult]:
    """Moments <a^dag^l a^k> of one coherent-drive state, one per (l, k) in orders.

    Each hypergeometric ratio is released only if it agrees with the
    amplitude sum over one wavefunction_linear build, made after the first ratio.
    """
    orders = [_check_moment_orders(l, k) for l, k in orders]
    _require_coherent_drive(params)
    derived = derive_linear(params)
    eps, x = derived.epsilon, derived.x
    w, xc = _drive_argument(eps), x.conjugate()
    wf, out = None, []
    for l, k in orders:
        value = (eps.conjugate() ** l * eps**k / (pochhammer(xc, l) * pochhammer(x, k))
                 * hyp0f2_ratio(xc + l, x + k, xc, x, w))
        wf = wf or wavefunction_linear(params)
        out.append(_release_moment(value, amplitude_moment(wf, l, k), l, k,
                                   wf.truncation, ("hypergeometric", "amplitude")))
    return out


def correlation_linear(params: ModelParams, l: int, k: int) -> CorrelationResult:
    """Normally ordered moment <a^dag^l a^k> in closed form.

    The value is the hypergeometric-ratio expression, released only if the
    amplitude-sum route agrees with it (CrossCheckFailure otherwise).
    """
    return _linear_moments(params, [(l, k)])[0]


def _g2(pair: float, n: float) -> float:
    """g2 = <a^dag^2 a^2> / n**2; nan where n <= 0 or n**2 underflows to zero."""
    return pair / n**2 if n > 0.0 and n**2 > 0.0 else float("nan")


@dataclass(frozen=True)
class ExactSweepRow:
    """One drive point of an exact sweep: occupation, field, and g2."""

    omega: float
    n: float
    amplitude: complex
    g2: float


def exact_drive_point(params: ModelParams, omega: float) -> ExactSweepRow:
    """<a^dag a>, <a>, and g2 = <a^dag^2 a^2> / <a^dag a>^2, all from one build."""
    at_om = _at_drive(params, omega)
    number, field, pair = _linear_moments(at_om, [(1, 1), (0, 1), (2, 2)])
    n = _real_photon_number(number)
    return ExactSweepRow(omega=at_om.omega, n=n, amplitude=field.value, g2=_g2(pair.value.real, n))
