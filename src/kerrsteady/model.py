"""Model parameters and the derived quantities the solvers consume.

The physical system is a single-mode Kerr resonator with coherent drive,
one-photon loss, and optionally two-photon drive and loss.  In a frame
rotating at the drive frequency the Hamiltonian is

    H = delta_c a^dag a + chi a^dag^2 a^2 + i omega (a^dag - a)
        + (lambda_2ph / 2) a^dag^2 + (lambda_2ph^* / 2) a^2

and the master equation adds the dissipators gamma D[a] and kappa D[a^2].

All frequencies share one unit; only ratios matter, which
:func:`params_from_dict` exploits for config files that specify, say,
delta_c / chi directly.

This module also holds the package's input rules: finite real and complex
numbers, Fock sizes, moment orders, pairs, the drive sign, the
coherent-drive solvers' refusal of a two-photon term and the two-photon
solvers' refusal of loss without a pump.  Other modules call these rules
instead of writing their own.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass

from .errors import InvalidParams, UnsupportedModel

_RATES = ("delta_c", "chi", "omega", "gamma", "kappa")
_ABS_KEYS = _RATES + ("lambda_re", "lambda_im")
_MAX_MOMENT_ORDER = 16


def _finite_real(name: str, value) -> float:
    """value as a float; bools, strings and non-finite numbers are refused."""
    # bool is an int subclass and a str converts: neither may run as a rate.
    # float and int are tested before the (slower) ABC, which admits numpy scalars.
    if not isinstance(value, bool) and isinstance(value, (float, int, numbers.Real)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the double range
            pass
    raise InvalidParams(f"{name} must be a finite real number, got {value!r}")


def _finite_complex(name: str, value) -> complex:
    """value as a complex; bools, strings and non-finite numbers are refused."""
    # complex and float are tested by exact type before the (slower) ABC, which
    # admits ints and numpy scalars; bool is an int subclass, so it is refused by name
    if type(value) is complex or type(value) is float or (
            not isinstance(value, bool) and isinstance(value, numbers.Complex)):
        try:
            if cmath.isfinite(value):
                return complex(value)
        except OverflowError:  # an int beyond the double range
            pass
    raise InvalidParams(f"{name} must be a finite complex number, got {value!r}")


def _check_pair(name: str, value) -> tuple:
    """The two entries of a pair argument, such as moment orders or cutoffs."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise InvalidParams(f"{name} must be a pair, got {value!r}") from None
    return first, second


def _is_integer(value) -> bool:
    """True for Python and numpy integers; bool, float and str are not."""
    # bool is an int subclass, so it is refused by name
    return not isinstance(value, bool) and isinstance(value, (int, numbers.Integral))


def _check_fock_size(name: str, value, lowest: int) -> int:
    """A cutoff, truncation or other Fock-space size as a Python int.

    All but integers >= lowest are refused rather than coerced, so 2.5 or
    True never runs as some other size.
    """
    # a Python int skips the slower predicate: the Gauss sum checks its order per call
    if (type(value) is not int and not _is_integer(value)) or value < lowest:
        raise InvalidParams(f"{name} must be an integer >= {lowest}, got {value!r}")
    return int(value)


def _check_moment_orders(l, k) -> tuple[int, int]:
    """Moment orders as Python ints; refuse all but integers in [0, _MAX_MOMENT_ORDER].

    Python and numpy integers pass; bool, float and str orders are refused
    rather than coerced, so 1.5 or True never runs as some other moment.
    """
    if not (_is_integer(l) and _is_integer(k)):
        raise InvalidParams(f"moment orders must be integers, got l={l!r}, k={k!r}")
    if not (0 <= l <= _MAX_MOMENT_ORDER and 0 <= k <= _MAX_MOMENT_ORDER):
        raise InvalidParams(
            f"moment orders must lie in [0, {_MAX_MOMENT_ORDER}], got l={l}, k={k}"
        )
    return int(l), int(k)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the driven-dissipative Kerr resonator.

    Attributes
    ----------
    delta_c : float
        Cavity detuning from the drive frame.
    chi : float
        Kerr nonlinearity.
    omega : float
        Coherent (one-photon) drive amplitude.
    gamma : float
        One-photon loss rate, strictly positive.
    lambda_2ph : complex
        Two-photon drive amplitude; zero for the coherently driven model.
    kappa : float
        Two-photon loss rate, nonnegative.
    """

    delta_c: float
    chi: float
    omega: float
    gamma: float
    lambda_2ph: complex = 0j
    kappa: float = 0.0

    def __post_init__(self):
        for name in _RATES:
            object.__setattr__(self, name, _finite_real(name, getattr(self, name)))
        object.__setattr__(self, "lambda_2ph", _finite_complex("lambda_2ph", self.lambda_2ph))
        if self.gamma <= 0.0:
            raise InvalidParams(f"gamma must be > 0, got {self.gamma}")
        if self.kappa < 0.0:
            raise InvalidParams(f"kappa must be >= 0, got {self.kappa}")

    @property
    def is_two_photon(self) -> bool:
        """True when either two-photon term is switched on."""
        return self.lambda_2ph != 0 or self.kappa != 0.0

    def replace(self, **kw) -> "ModelParams":
        return dataclasses.replace(self, **kw)

    def to_dict(self) -> dict:
        """Flat config-file form; params_from_dict inverts it exactly."""
        return {
            "delta_c": self.delta_c,
            "chi": self.chi,
            "omega": self.omega,
            "gamma": self.gamma,
            "lambda_re": self.lambda_2ph.real,
            "lambda_im": self.lambda_2ph.imag,
            "kappa": self.kappa,
        }


def _require_coherent_drive(params: ModelParams) -> None:
    """Refuse a two-photon pump or loss in a solver of the coherently driven model."""
    if params.is_two_photon:
        raise UnsupportedModel(
            "two-photon pump or loss present; this solver covers the coherent drive only")


def _require_pump_with_loss(params: ModelParams) -> None:
    """Refuse two-photon loss without a two-photon pump, which has no closed form here."""
    if params.lambda_2ph == 0 and params.kappa > 0.0:
        raise UnsupportedModel(
            "two-photon loss without a two-photon pump is outside the closed-form family")


def _at_drive(params: ModelParams, omega) -> ModelParams:
    """params at drive omega, which ModelParams checks; a negative drive is refused."""
    at_om = params.replace(omega=omega)
    if at_om.omega < 0.0:
        raise InvalidParams(f"drive values must be >= 0, got {omega!r}")
    return at_om


@dataclass(frozen=True)
class LinearDerived:
    """Derived inputs of the coherently driven closed form.

    epsilon = -i omega / chi and x = (2 delta_c - i gamma) / (2 chi); the
    steady-state amplitudes are beta_m = (sqrt(2) epsilon)^m / (sqrt(m!) (x)_m).
    """

    epsilon: complex
    x: complex


@dataclass(frozen=True)
class TwoPhotonDerived:
    """Derived inputs of the two-photon closed form.

    lambda_disp = i sqrt(2 lambda_2ph / (2 chi - i kappa)) (principal square
    root), and the Gauss-sum parameters

        y = (-2i sqrt(2) omega + lambda_disp (2 delta_c - i gamma))
            / (2 lambda_disp (2 chi - i kappa)),
        z = (2 delta_c - i gamma) / (2 chi - i kappa),
        asym = y - z/2 = -i sqrt(2) omega / (lambda_disp (2 chi - i kappa)).

    asym is formed directly, as rounding removes a small drive from y.
    Odd amplitudes are odd in asym, so asym = 0 at omega = 0 kills them.
    """

    lambda_disp: complex
    y: complex
    z: complex
    asym: complex


def derive_linear(params: ModelParams) -> LinearDerived:
    """Map physical parameters to the closed-form inputs (epsilon, x)."""
    if params.chi == 0.0:
        raise InvalidParams("the coherent-drive closed form needs chi != 0")
    epsilon = -1j * params.omega / params.chi
    x = (2.0 * params.delta_c - 1j * params.gamma) / (2.0 * params.chi)
    return LinearDerived(epsilon=epsilon, x=x)


def derive_twophoton(params: ModelParams) -> TwoPhotonDerived:
    """Map physical parameters to the displaced-frame inputs of the closed form.

    Requires a nonzero two-photon drive; the pure two-photon-loss model
    (lambda_2ph = 0, kappa > 0) has no displaced closed form and raises
    UnsupportedModel, as in every two-photon solver.  chi = 0 is fine as
    long as kappa > 0 keeps the combination 2 chi - i kappa away from zero.
    """
    _require_pump_with_loss(params)
    if params.chi == 0.0 and params.kappa == 0.0:
        raise InvalidParams("the two-photon closed form needs 2*chi - i*kappa != 0")
    if params.lambda_2ph == 0:
        raise InvalidParams("the two-photon closed form needs lambda_2ph != 0")
    denom = 2.0 * params.chi - 1j * params.kappa
    disp = 1j * cmath.sqrt(2.0 * params.lambda_2ph / denom)
    y = (-2j * math.sqrt(2.0) * params.omega + disp * (2.0 * params.delta_c - 1j * params.gamma)) / (
        2.0 * disp * denom
    )
    z = (2.0 * params.delta_c - 1j * params.gamma) / denom
    asym = -1j * math.sqrt(2.0) * params.omega / (disp * denom)
    return TwoPhotonDerived(lambda_disp=disp, y=y, z=z, asym=asym)


def params_from_dict(raw: dict) -> ModelParams:
    """Build :class:`ModelParams` from a flat config mapping.

    Two key styles are accepted and may not be mixed for the same
    quantity.  Absolute keys give frequencies directly::

        {"delta_c": 5.0, "chi": -0.25, "omega": 4.0, "gamma": 1.0}

    Ratio keys divide by a declared anchor, either gamma or chi.  The
    anchor's own absolute value must be positive and defaults to 1::

        {"unit": "chi", "delta_c_over_chi": -1.0, "gamma_over_chi": 0.1,
         "kappa_over_chi": 0.1, "lambda_re_over_chi": 0.2}

    Only key shapes are checked here (unknown keys raise InvalidParams, so
    typos fail loudly); ModelParams refuses bool, str and non-finite values.
    """
    if not isinstance(raw, dict):
        raise InvalidParams(f"config must be a mapping, got {type(raw).__name__}")
    d = dict(raw)
    unit = d.pop("unit", None)
    if unit not in (None, "gamma", "chi"):
        raise InvalidParams(f"unit must be 'gamma' or 'chi', got {unit!r}")
    suffix = "" if unit is None else f"_over_{unit}"
    # ratio mode: every rate is a ratio except the unit's own absolute value, the anchor
    values = {} if unit is None else {unit: d.pop(unit, 1.0)}
    for key, val in d.items():
        base = key.removesuffix(suffix)
        if not key.endswith(suffix) or base not in _ABS_KEYS or base == unit:
            raise InvalidParams(f"unknown config key {key!r}" + (
                f" (ratio mode expects *{suffix})" if unit else ""))
        values[base] = val
    missing = {"delta_c", "chi", "gamma"} - set(values)
    if missing:
        raise InvalidParams(f"missing required config keys: {sorted(missing)}")
    # complex() would coerce a bool part, so each part gets the rate check first
    lam_re = _finite_real("lambda_re", values.get("lambda_re", 0.0))
    lam_im = _finite_real("lambda_im", values.get("lambda_im", 0.0))
    params = ModelParams(
        delta_c=values["delta_c"],
        chi=values["chi"],
        omega=values.get("omega", 0.0),
        gamma=values["gamma"],
        lambda_2ph=complex(lam_re, lam_im),
        kappa=values.get("kappa", 0.0),
    )
    if unit is None:
        return params
    anchor = getattr(params, unit)
    # a negative anchor would flip the sign of every ratio
    if not anchor > 0.0:
        raise InvalidParams(f"anchor {unit} must be positive, got {anchor!r}")
    scaled = {name: getattr(params, name) * anchor for name in _RATES if name != unit}
    lam = params.lambda_2ph
    return params.replace(lambda_2ph=complex(lam.real * anchor, lam.imag * anchor), **scaled)
