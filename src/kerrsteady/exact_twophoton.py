"""Closed-form steady state with a two-photon pump and two-photon loss.

After displacing by the pump-induced scale (model.derive_twophoton, which
reads model.band), the steady-state amplitude at Fock index m is a
terminating Gauss hypergeometric polynomial,

    beta_m = (-lambda_disp)^m / sqrt(m!) * 2F1(-m, y; z; 2),

the band's closed-form solution and the production route here.  The
same amplitudes obey exact_linear's recursion through model.band, which
is tridiagonal with the pump, and the recursion sets the length: as in
every route (exact_linear._band_amplitudes), it decides where the
sequence ends and whether a fixed truncation is too short.  One walk of
the Gauss sums fills in exactly that many amplitudes, and each must
agree with the recursion's before a value is released.  The recursion
alone is exposed as wavefunction_via_three_term.

Moments come from amplitude sums; there is no compact ratio form as in
the linear model, so each moment is recomputed through the printed
normalization-and-sum arrangement fed by the same build's recursion
amplitudes, and the two results must agree before a value is released.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
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
    _recursion_amplitudes,  # not used here: perfbench/tracing.py imports it from here
    _release_moment,
    amplitude_moment,
    correlation_linear,
    wavefunction_linear,
)
from .model import (ModelParams, TwoPhotonDerived, _check_fock_size, _check_moment_orders,
                    _require_pump_with_loss, derive_twophoton)
from .specfun import _EPS, _gauss_sum_walk

# the cross-check covers the whole amplitude support: up to the truncation cap
_XCHECK_MAX_INDEX = _MAX_TRUNCATION
_XCHECK_AMP_FLOOR = 1e-12
_XCHECK_TOL = 1e-9


def _closed_form_amplitudes(derived: TwoPhotonDerived, walk: Iterator[tuple[float, complex]],
                            truncation: int, pairs: list[tuple[float, complex]]) -> list[complex]:
    """Unnormalized amplitudes from the polynomial closed form, to Fock index truncation.

    walk is a fresh Gauss-sum walk to order truncation, so that its
    numpy blocks (specfun._connection_blocks, from order 24 on) sum no
    order past it; pairs keeps each (mass, value) taken from it.  The
    walk is read order by order: an overflow stops the build at its
    index, and the blocks have then summed at most one chunk of steps
    past it.  The running prefactor (-lambda_disp)^m / sqrt(m!) decays
    fast enough that the product stays bounded, but the bare polynomial
    value can overflow once the index reaches several hundred; that
    surfaces as a NonConvergence pointing at the recursion route, which
    has reached this index within its own ceiling (exact_linear._ladder).
    """
    lam = derived.lambda_disp
    # order 0 is beta_0 = 1
    pairs.append(next(walk))
    betas, scale = [complex(1.0)], complex(1.0)
    for m, pair in enumerate(itertools.islice(walk, truncation), 1):
        pairs.append(pair)
        scale *= -lam / math.sqrt(float(m))
        betas.append(scale * pair[1])
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


def _closed_form_build(params: ModelParams,
                       truncation: int | None) -> tuple[list[complex], list[complex], bool]:
    """The closed form's amplitudes, the recursion's (reference) and converged.

    One band recursion sets the length, and one Gauss-sum walk to that
    length fills it.  Where the closed form refuses and a Gauss sum
    within the truncation holds no correct digit, the refusal names the
    first such order, read from the kept pairs and then from the rest of
    the walk, which stops there.
    """
    # derive_twophoton refuses loss without a pump before the recursion runs
    derived = derive_twophoton(params)
    reference, converged = _band_amplitudes(params, truncation)
    top = len(reference) - 1
    walk = _gauss_sum_walk(derived.y, derived.z, derived.asym, top=top)
    pairs: list[tuple[float, complex]] = []
    try:
        betas = _closed_form_amplitudes(derived, walk, top, pairs)
        _spot_check_against_recursion(params, betas, reference)
    except (NonConvergence, CrossCheckFailure) as exc:
        # the first order whose error bound (m+1) eps mass passes |value| (no abs() of the
        # nan value at infinite mass), from the kept pairs; the walk goes on past an overflow
        orders = enumerate(itertools.islice(itertools.chain(pairs, walk), top + 1))
        lost = next((m for m, (mass, value) in orders
                     if mass == math.inf or (m + 1) * _EPS * mass > abs(value)), None)
        if lost is None:
            raise
        raise type(exc)(
            f"the closed form's Gauss sums 2F1(-m, y; z; 2) hold no correct digit from order "
            f"{lost}, within the three-term recursion's truncation {top}; "
            "wavefunction_via_three_term solves this point") from exc
    return betas, reference, converged


def wavefunction_twophoton(params: ModelParams, truncation: int | None = None) -> SteadyWavefunction:
    """Steady-state amplitude sequence from the polynomial closed form.

    Falls back to the linear solver when the pump and two-photon loss are
    both absent; refuses two-photon loss without a pump, which has no
    closed form in this family.  Arguments mirror wavefunction_linear.
    The three-term recursion sets the length and decides, as in every
    route, whether a fixed truncation is too short (CutoffTooSmall); each
    Gauss-sum amplitude must agree with the recursion's.
    """
    if not params.is_two_photon:
        return wavefunction_linear(params, truncation=truncation)
    betas, _, converged = _closed_form_build(params, truncation)
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
    closed, betas, converged = _closed_form_build(params, None)
    wf = _package(closed, converged)
    value = amplitude_moment(wf, l, k)

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
