"""The amplitude kernels return the bits of their scalar-loop references.

`specfun._gauss_sum_walk` carries its prefactors and term parameters
from order to order, and `amplitude_moment` sums in one array pass; both
must agree with the per-call loops in loop_references.py to the last bit
(the walk's least mass as well as its value),
signed zeros included, and refuse with the same class and message at
the same order.  The closed forms' inputs, formed from `model.band`, must
keep the bits of the raw-rate formulas there.  Values are compared
through `tobytes()`.  These tests
carry the `bitwise` mark, which CI runs a second time with numpy's
dispatched CPU targets disabled.
"""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_references as ref
from kerrsteady.errors import KerrSteadyError
from kerrsteady.exact_linear import SteadyWavefunction, amplitude_moment, wavefunction_linear
from kerrsteady.exact_twophoton import wavefunction_twophoton
from kerrsteady.model import ModelParams, derive_linear, derive_twophoton
from kerrsteady.specfun import _gauss_sum_walk

from conftest import DATA_DIR

pytestmark = pytest.mark.bitwise

PAIR = dict(chi=1.0, gamma=0.1, lambda_2ph=0.2, kappa=0.1)
STRONG_PUMP = ModelParams(delta_c=-2.0, chi=0.05, omega=1.0, gamma=1.0,
                          lambda_2ph=1.0, kappa=0.02)


def outcome(call):
    """The bytes of call()'s value or (mass, value), or the class and message of its refusal."""
    try:
        return np.array([call()], dtype=complex).tobytes()
    except KerrSteadyError as exc:
        return type(exc).__name__, str(exc)


def walk(sums, count):
    """Up to count values of an order-by-order walk, ending at its first refusal."""
    out = []
    it = iter(sums)
    for _ in range(count):
        out.append(outcome(lambda: next(it)))
        if isinstance(out[-1], tuple):
            break
    return out


def assert_walks_agree(y, z, asym, last):
    got = walk(_gauss_sum_walk(y, z, asym), last + 1)
    want = walk(ref.gauss_sums(y, z, asym), last + 1)
    assert got == want


with open(DATA_DIR / "gauss_sum_refs.json") as fh:
    GAUSS_SUM_CASES = [
        (case["label"], complex(*map(float.fromhex, case["y"])),
         complex(*map(float.fromhex, case["z"])), case["m_to"])
        for case in json.load(fh)["cases"]
    ]


@pytest.mark.parametrize("label, y, z, last", GAUSS_SUM_CASES,
                         ids=[case[0] for case in GAUSS_SUM_CASES])
def test_reference_case_walks(label, y, z, last):
    # every case of gauss_sum_refs.json, refusals included, walked from
    # order 0 to its last order
    assert_walks_agree(y, z, None, last)


@pytest.mark.parametrize("omega", [0.1, 0.0])
def test_scan_grid_walks(omega):
    # the resonance-scan benchmark's grids before their seeded shift:
    # delta/chi from -4.5 to 0.5 by 0.01
    for i in range(501):
        d = derive_twophoton(ModelParams(delta_c=-4.5 + 0.01 * i, omega=omega, **PAIR))
        assert_walks_agree(d.y, d.z, d.asym, 40)


def test_strong_pump_walk():
    d = derive_twophoton(STRONG_PUMP)
    assert_walks_agree(d.y, d.z, d.asym, 330)


def test_random_parameter_walks():
    rng = random.Random(20)
    for _ in range(300):
        y = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        z = complex(rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0))
        assert_walks_agree(y, z, None, 40)


def test_single_order_matches_walk_after_odd_zero():
    # y = z/2 exactly: every odd order is the exact zero, without a sum
    z = -2.3 + 0.4j
    pairs = list(itertools.islice(_gauss_sum_walk(z / 2, z), 12))
    assert all(pair == (0.0, 0j) for pair in pairs[1::2])
    for m, pair in enumerate(pairs):
        assert outcome(lambda: pair) == outcome(lambda: ref.gauss_sum(m, z / 2, z))


def magnitudes(low, high):
    """Floats whose base-10 exponent is uniform on [low, high]."""
    return st.floats(min_value=low, max_value=high).map(lambda e: 10.0**e)


def signed(low, high):
    return st.tuples(st.sampled_from((-1.0, 1.0)), magnitudes(low, high)).map(
        lambda pair: pair[0] * pair[1])


# rates across twelve decades; kappa = 0 (the coherent drive's c1 = 2 chi) in
# about half the draws, and chi = 0 sometimes, which kappa > 0 allows
rates = st.builds(
    ModelParams,
    delta_c=st.one_of(st.just(0.0), signed(-6, 6)),
    chi=st.one_of(st.just(0.0), signed(-6, 6)),
    omega=st.one_of(st.just(0.0), magnitudes(-6, 6)),
    gamma=magnitudes(-6, 6),
    lambda_2ph=st.builds(complex, st.one_of(st.just(0.0), signed(-6, 6)),
                         st.one_of(st.just(0.0), signed(-6, 6))),
    kappa=st.one_of(st.just(0.0), magnitudes(-6, 6)),
)


@settings(max_examples=400)
@given(p=rates)
def test_band_route_keeps_raw_rate_bits(p):
    if p.kappa == 0.0 and p.chi != 0.0:
        assert outcome(lambda: derive_linear(p).x) == outcome(lambda: ref.linear_x(p))
    if p.lambda_2ph != 0 and (p.chi != 0.0 or p.kappa != 0.0):
        d = derive_twophoton(p)
        got = np.array([d.lambda_disp, d.y, d.z], dtype=complex).tobytes()
        assert got == np.array(ref.twophoton_inputs(p), dtype=complex).tobytes()


MOMENT_STATES = {
    "linear": (wavefunction_linear, ModelParams(delta_c=5.0, chi=-0.25, omega=4.0, gamma=1.0)),
    "deep": (wavefunction_linear, ModelParams(delta_c=5.0, chi=-0.05, omega=9.0, gamma=1.0)),
    "two-photon": (wavefunction_twophoton, ModelParams(delta_c=-1.0, omega=0.1, **PAIR)),
    "strong-pump": (wavefunction_twophoton, STRONG_PUMP),
    # truncation 6: an order-16 moment has no terms
    "weak": (wavefunction_linear, ModelParams(delta_c=5.0, chi=-0.25, omega=0.01, gamma=1.0)),
}


@pytest.fixture(scope="module")
def wavefunctions():
    return {name: solver(params) for name, (solver, params) in MOMENT_STATES.items()}


@pytest.mark.parametrize("l, k", [(1, 1), (0, 1), (2, 2), (2, 0), (3, 1), (16, 0)])
@pytest.mark.parametrize("name", list(MOMENT_STATES))
def test_moment_matches_scalar_loop(wavefunctions, name, l, k):
    wf = wavefunctions[name]
    value = amplitude_moment(wf, l, k)
    assert type(value) is complex
    assert outcome(lambda: value) == outcome(lambda: ref.amplitude_moment(wf, l, k))


def test_moment_with_no_terms_is_zero(wavefunctions):
    wf = wavefunctions["weak"]
    assert wf.truncation < 16
    assert np.array([amplitude_moment(wf, 16, 0)]).tobytes() == np.array([0j]).tobytes()


def test_moment_matches_scalar_loop_on_signed_zeros_and_spread_magnitudes():
    rng = np.random.default_rng(7)
    for _ in range(300):
        size = int(rng.integers(1, 60))
        parts = rng.normal(size=(2, size)) * 10.0 ** rng.integers(-150, 3, size=(2, size))
        zeros = rng.random((2, size)) < 0.2
        parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        c = np.empty(size, dtype=complex)
        c.real, c.imag = parts
        wf = SteadyWavefunction(c, size - 1, 1.0, 0.0, True)
        l, k = (int(v) for v in rng.integers(0, 17, size=2))
        assert outcome(lambda: amplitude_moment(wf, l, k)) \
            == outcome(lambda: ref.amplitude_moment(wf, l, k)), (size, l, k)
