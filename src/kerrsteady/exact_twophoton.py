"""Closed-form steady state with a two-photon pump and two-photon loss.

After displacing by the pump-induced scale (model.derive_twophoton, which
reads model.band), the steady-state amplitude at Fock index m is a
terminating Gauss hypergeometric polynomial,

    beta_m = (-lambda_disp)^m / sqrt(m!) * 2F1(-m, y; z; 2),

which is the production route here.  The same amplitudes obey
exact_linear's recursion through model.band, which is tridiagonal with
the pump.  It is exposed as a separate operation
(wavefunction_via_three_term) so the two routes can be compared
elementwise, and every production call verifies all its amplitudes
against it before releasing values.

Moments come from amplitude sums; there is no compact ratio form as in
the linear model, so each moment is recomputed through the printed
normalization-and-sum arrangement fed by recursion amplitudes, and the
two results must agree before a value is released.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckFailure, KerrSteadyError, NonConvergence
from .exact_linear import (
    _MAX_TRUNCATION,
    _NORM_XCHECK_TOL,
    CorrelationResult,
    SteadyWavefunction,
    _cutoff_too_small,
    _g2,
    _ladder,
    _package,
    _recursion_amplitudes,
    _release_moment,
    amplitude_moment,
    correlation_linear,
    wavefunction_linear,
)
from .model import (ModelParams, _check_fock_size, _check_moment_orders,
                    _require_pump_with_loss, derive_twophoton)
from .specfun import _EPS, _TAIL_TOL, _gauss_sum_walk, _gauss_sums

# the cross-check covers the whole amplitude support: up to the truncation cap
_XCHECK_MAX_INDEX = _MAX_TRUNCATION
_XCHECK_AMP_FLOOR = 1e-12
_XCHECK_TOL = 1e-9


def _closed_form_amplitudes(
    params: ModelParams, truncation: int | None
) -> tuple[list[complex], bool]:
    """Unnormalized amplitudes from the polynomial closed form.

    The running prefactor (-lambda_disp)^m / sqrt(m!) decays fast enough
    that the product stays bounded, but the bare polynomial value can
    overflow once the index reaches several hundred; that surfaces as a
    NonConvergence pointing at the recursion route, which has no such
    ceiling.
    """
    derived = derive_twophoton(params)
    lam = derived.lambda_disp
    # the ladder asks for orders 1, 2, ... in turn: one walk serves them all,
    # past order 0 (beta_0 = 1), which the ladder holds already
    sums = itertools.islice(_gauss_sums(derived.y, derived.z, derived.asym), 1, None)
    scale = complex(1.0)

    def step(m: int, betas: list[complex]) -> complex:
        nonlocal scale
        scale *= -lam / math.sqrt(float(m))
        value = scale * next(sums)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise NonConvergence(
                f"polynomial value overflowed at Fock index {m}; "
                "use wavefunction_via_three_term for this regime"
            )
        return value

    return _ladder(step, _TAIL_TOL, _MAX_TRUNCATION, truncation)


def _spot_check_against_recursion(params: ModelParams, betas: list[complex]) -> None:
    """Compare every closed-form amplitude against the recursion route.

    Amplitudes below 1e-12 of the peak are skipped; the rest must agree
    to 1e-9 relative.
    """
    top = min(len(betas) - 1, _XCHECK_MAX_INDEX)
    reference, _ = _recursion_amplitudes(params, 0.0, top, top)
    peak = max(abs(b) for b in betas[: top + 1])
    for m in range(top + 1):
        if abs(betas[m]) < _XCHECK_AMP_FLOOR * peak:
            continue
        gap = abs(betas[m] - reference[m])
        if gap > _XCHECK_TOL * max(abs(betas[m]), abs(reference[m])):
            raise CrossCheckFailure(
                f"amplitude {m} disagrees between closed form {betas[m]!r} "
                f"and recursion {reference[m]!r}"
            )


def _lost_order(params: ModelParams) -> tuple[int, int] | None:
    """The first Gauss-sum order that holds no correct digit, and the recursion's truncation.

    An order holds no correct digit once (m+1) eps times its least mass
    passes its modulus (specfun._gauss_sum_walk).  None unless such an
    order lies within the truncation at which the three-term recursion
    solves the point.
    """
    try:
        top = len(_recursion_amplitudes(params, _TAIL_TOL, _MAX_TRUNCATION, None)[0]) - 1
        derived = derive_twophoton(params)
        walk = _gauss_sum_walk(derived.y, derived.z, derived.asym)
        for m, (mass, value) in enumerate(itertools.islice(walk, top + 1)):
            # no abs() at infinite mass: the value is nan there
            if mass == math.inf or (m + 1) * _EPS * mass > abs(value):
                return m, top
    except KerrSteadyError:
        pass
    return None


def wavefunction_twophoton(params: ModelParams, truncation: int | None = None) -> SteadyWavefunction:
    """Steady-state amplitude sequence from the polynomial closed form.

    Falls back to the linear solver when the pump and two-photon loss are
    both absent; refuses two-photon loss without a pump, which has no
    closed form in this family.  Arguments mirror wavefunction_linear.
    Every amplitude is checked against the three-term recursion on every
    call.  A fixed truncation that ends before the tail rule holds, and
    whose squared sum misses the adaptive build's by more than 1e-8
    relative, raises CutoffTooSmall, as in wavefunction_linear.  Where
    the closed form refuses (NonConvergence, CrossCheckFailure) a point
    the three-term recursion solves, and a Gauss sum within its
    truncation holds no correct digit, the refusal names that order.
    """
    if not params.is_two_photon:
        return wavefunction_linear(params, truncation=truncation)
    try:
        betas, converged = _closed_form_amplitudes(params, truncation)
        _spot_check_against_recursion(params, betas)
    except (NonConvergence, CrossCheckFailure) as exc:
        # the refusal names its real cause where that is a Gauss sum's lost digits
        lost = _lost_order(params)
        if lost is None:
            raise
        raise type(exc)(
            f"the closed form's Gauss sums 2F1(-m, y; z; 2) hold no correct digit from order "
            f"{lost[0]}, within the three-term recursion's truncation {lost[1]}; "
            "wavefunction_via_three_term solves this point") from exc
    wf = _package(betas, converged)
    if truncation is not None and not converged:
        full = _package(*_closed_form_amplitudes(params, None)).norm_constant
        if not math.isclose(wf.norm_constant, full, rel_tol=_NORM_XCHECK_TOL):
            raise _cutoff_too_small(truncation, wf.norm_constant, f"the adaptive build's {full!r}")
    return wf


def wavefunction_via_three_term(
    params: ModelParams, truncation: int | None = None
) -> SteadyWavefunction:
    """Steady-state amplitude sequence from the three-term recursion.

    Independent evaluation route kept separate from the closed form so
    the two can be compared elementwise.  With the pump and two-photon
    loss both absent the recursion is the linear model's, so that family
    is accepted here (and produces exactly wavefunction_linear's
    amplitudes); only two-photon loss without a pump is refused, as in
    the closed form.
    """
    _require_pump_with_loss(params)
    betas, converged = _recursion_amplitudes(params, _TAIL_TOL, _MAX_TRUNCATION, truncation)
    return _package(betas, converged)


def correlation_twophoton(params: ModelParams, l: int, k: int) -> CorrelationResult:
    """Normally ordered moment <a^dag^l a^k> for the two-photon model.

    The value is the amplitude sum over the closed-form wavefunction.
    The cross route recomputes it through the printed arrangement: the
    unnormalized sequence F_m = beta_m sqrt(m!) from the recursion,
    combined as sum_m F*_{m+l} F_{m+k} / m! over the norm sum_m |F_m|^2
    / m! and the 2^{-(l+k)/2} operator-scale factor.  F_m is carried as
    its phase and log magnitude, and both sums are scaled by the largest
    norm term, so the route stays in the double range at any truncation.
    """
    l, k = _check_moment_orders(l, k)
    if not params.is_two_photon:
        return correlation_linear(params, l, k)
    wf = wavefunction_twophoton(params)
    value = amplitude_moment(wf, l, k)

    betas, _ = _recursion_amplitudes(params, 0.0, wf.truncation, wf.truncation)
    log_fact = [math.lgamma(m + 1) for m in range(len(betas))]
    phase = [b / abs(b) if b else 0j for b in betas]
    log_f = [math.log(abs(b)) + 0.5 * lf if b else -math.inf for b, lf in zip(betas, log_fact)]
    shift = max(2.0 * lf_m - lf for lf_m, lf in zip(log_f, log_fact))
    norm = sum(math.exp(2.0 * lf_m - lf - shift) for lf_m, lf in zip(log_f, log_fact))
    acc = complex(0.0)
    for m in range(len(betas) - max(l, k)):
        acc += phase[m + l].conjugate() * phase[m + k] * math.exp(
            log_f[m + l] + log_f[m + k] - log_fact[m] - shift
        )
    check = acc / (norm * 2.0 ** ((l + k) / 2.0))

    return _release_moment(
        value, check, l, k, wf.truncation, ("amplitude", "printed-form")
    )


@dataclass(frozen=True)
class ResonancePrediction:
    """Expected location and selection-rule status of one resonance.

    An n-photon resonance sits at delta_c / chi = -(n - 1).  Whether a
    drive can actually populate it: a coherent drive climbs the ladder
    one photon at a time and reaches every order, while a pure two-photon
    pump reaches only even orders.  With no drive at all nothing is
    reachable.
    """

    order: int
    detuning_over_chi: float
    allowed: bool


def resonance_predictions(n_max: int, params: ModelParams) -> list[ResonancePrediction]:
    """Selection-rule table for resonance orders 1 through n_max."""
    n_max = _check_fock_size("n_max", n_max, 1)
    out = []
    for order in range(1, n_max + 1):
        allowed = params.omega != 0.0 or (order % 2 == 0 and params.lambda_2ph != 0)
        out.append(
            ResonancePrediction(
                order=order,
                detuning_over_chi=-float(order - 1),
                allowed=allowed,
            )
        )
    return out


def strict_local_maxima(values) -> tuple[int, ...]:
    """Indices that strictly beat both neighbors; endpoints never count."""
    arr = np.asarray(values, dtype=float)
    return tuple(
        i
        for i in range(1, arr.size - 1)
        if arr[i] > arr[i - 1] and arr[i] > arr[i + 1]
    )


def scan_point(params: ModelParams, delta_c: float) -> tuple[float, float]:
    """Photon number and g2 at one detuning, from the production route.

    Moments here are bulk-evaluated from the production wavefunction
    (which still checks every amplitude against the recursion per call);
    the moment-level dual route lives in correlation_twophoton.
    """
    wf = wavefunction_twophoton(params.replace(delta_c=delta_c))
    n = amplitude_moment(wf, 1, 1).real
    pair = amplitude_moment(wf, 2, 2).real
    return n, _g2(pair, n)
