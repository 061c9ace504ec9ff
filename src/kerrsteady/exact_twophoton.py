"""Closed-form steady state with a two-photon pump and two-photon loss.

After displacing by the pump-induced scale (model.derive_twophoton, which
reads model.band), the steady-state amplitude at Fock index m is a
terminating Gauss hypergeometric polynomial,

    beta_m = (-lambda_disp)^m / sqrt(m!) * 2F1(-m, y; z; 2),

the band's closed-form solution and the production route here.  The
same amplitudes obey exact_linear's recursion through model.band, which
is tridiagonal with the pump, and the recursion sets the length: as in
every route (exact_linear._band_amplitudes), it decides where the
sequence ends and whether a fixed truncation is too short.  The Gauss
sums then fill in exactly that many amplitudes, and each must agree
with the recursion's before a value is released.  The recursion alone
is exposed as wavefunction_via_three_term.

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

from .errors import CrossCheckFailure, NonConvergence
from .exact_linear import (
    _MAX_TRUNCATION,
    CorrelationResult,
    SteadyWavefunction,
    _band_amplitudes,
    _g2,
    _package,
    _recursion_amplitudes,
    _release_moment,
    amplitude_moment,
    correlation_linear,
    wavefunction_linear,
)
from .model import (ModelParams, TwoPhotonDerived, _check_fock_size, _check_moment_orders,
                    _require_pump_with_loss, derive_twophoton)
from .specfun import _EPS, _gauss_sum_walk, _gauss_sums

# the cross-check covers the whole amplitude support: up to the truncation cap
_XCHECK_MAX_INDEX = _MAX_TRUNCATION
_XCHECK_AMP_FLOOR = 1e-12
_XCHECK_TOL = 1e-9


def _closed_form_amplitudes(derived: TwoPhotonDerived, truncation: int) -> list[complex]:
    """Unnormalized amplitudes from the polynomial closed form, to Fock index truncation.

    The running prefactor (-lambda_disp)^m / sqrt(m!) decays fast enough
    that the product stays bounded, but the bare polynomial value can
    overflow once the index reaches several hundred; that surfaces as a
    NonConvergence pointing at the recursion route, which has no such
    ceiling.
    """
    lam = derived.lambda_disp
    # one walk serves every order; order 0 is beta_0 = 1
    sums = itertools.islice(_gauss_sums(derived.y, derived.z, derived.asym), 1, truncation + 1)
    betas, scale = [complex(1.0)], complex(1.0)
    for m, value in enumerate(sums, 1):
        scale *= -lam / math.sqrt(float(m))
        betas.append(scale * value)
        # hypot, unlike abs(), returns inf for a modulus past the double range
        if not math.hypot(betas[m].real, betas[m].imag) < math.inf:  # nan too
            raise NonConvergence(
                f"polynomial value overflowed at Fock index {m}; "
                "use wavefunction_via_three_term for this regime"
            )
    return betas


def _spot_check_against_recursion(
    params: ModelParams, betas: list[complex], reference: list[complex]
) -> None:
    """Compare every closed-form amplitude against the recursion's, reference.

    Amplitudes below 1e-12 of the peak are skipped; the rest must agree
    to 1e-9 relative.  params is unused here: perfbench/tracing.py reads
    (params, betas) to report the largest gap.
    """
    top = min(len(betas) - 1, _XCHECK_MAX_INDEX)
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


def _lost_order(derived: TwoPhotonDerived, truncation: int) -> int | None:
    """The first Gauss-sum order up to truncation that holds no correct digit, or None.

    An order holds no correct digit once (m+1) eps times its least mass
    passes its modulus (specfun._gauss_sum_walk).
    """
    walk = _gauss_sum_walk(derived.y, derived.z, derived.asym)
    for m, (mass, value) in enumerate(itertools.islice(walk, truncation + 1)):
        # no abs() at infinite mass: the value is nan there
        if mass == math.inf or (m + 1) * _EPS * mass > abs(value):
            return m
    return None


def wavefunction_twophoton(params: ModelParams, truncation: int | None = None) -> SteadyWavefunction:
    """Steady-state amplitude sequence from the polynomial closed form.

    Falls back to the linear solver when the pump and two-photon loss are
    both absent; refuses two-photon loss without a pump, which has no
    closed form in this family.  Arguments mirror wavefunction_linear.
    The three-term recursion sets the length and decides, as in every
    route, whether a fixed truncation is too short (CutoffTooSmall); the
    Gauss sums then fill in that many amplitudes, and each must agree
    with the recursion's.  Where the closed form refuses
    (NonConvergence, CrossCheckFailure) and a Gauss sum within the
    truncation holds no correct digit, the refusal names that order.
    """
    if not params.is_two_photon:
        return wavefunction_linear(params, truncation=truncation)
    # derive_twophoton refuses loss without a pump before the recursion runs
    derived = derive_twophoton(params)
    reference, converged = _band_amplitudes(params, truncation)
    top = len(reference) - 1
    try:
        betas = _closed_form_amplitudes(derived, top)
        _spot_check_against_recursion(params, betas, reference)
    except (NonConvergence, CrossCheckFailure) as exc:
        # the refusal names its real cause where that is a Gauss sum's lost digits
        lost = _lost_order(derived, top)
        if lost is None:
            raise
        raise type(exc)(
            f"the closed form's Gauss sums 2F1(-m, y; z; 2) hold no correct digit from order "
            f"{lost}, within the three-term recursion's truncation {top}; "
            "wavefunction_via_three_term solves this point") from exc
    return _package(betas, converged)


def wavefunction_via_three_term(
    params: ModelParams, truncation: int | None = None
) -> SteadyWavefunction:
    """Steady-state amplitude sequence from the three-term recursion.

    Independent evaluation route kept separate from the closed form so
    the two can be compared elementwise.  With the pump and two-photon
    loss both absent the recursion is the linear model's, so that family
    is accepted here (and produces exactly wavefunction_linear's
    amplitudes); only two-photon loss without a pump is refused, as in
    the closed form.  A short fixed truncation raises CutoffTooSmall by
    the rule every route shares (exact_linear._band_amplitudes).
    """
    _require_pump_with_loss(params)
    return _package(*_band_amplitudes(params, truncation))


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
