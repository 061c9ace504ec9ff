"""Shared fixtures: frozen oracle data and parameter factories.

The JSON files under tests/data/ were produced by standalone
high-precision scripts (mpmath at 40 to 60 digits, plus an independent
ket-rule expansion for the operator matrix) and are committed verbatim.
Tests compare library output against these frozen numbers; nothing in
the library is allowed to regenerate them.
"""

import itertools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from kerrsteady.model import ModelParams
from kerrsteady.specfun import _gauss_sum_walk

DATA_DIR = pathlib.Path(__file__).parent / "data"

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def as_complex(pair):
    """Frozen complex values are stored as [re, im] pairs."""
    return complex(pair[0], pair[1])


def gauss_sum(m, y, z, asym=None):
    """2F1(-m, y; z; 2): the value at order m of the package's walk over the orders of (y, z)."""
    return next(itertools.islice(_gauss_sum_walk(y, z, asym), m, None))[1]


def total_photon_mask(cutoffs, top):
    """Flat mask of doubled-space states with combined occupation <= top.

    The mode-mixing rotation preserves total photon number, so it acts
    exactly on sectors that fit under both cutoffs; comparisons between
    the two basis transcriptions are meaningful only there.
    """
    m1, m2 = cutoffs
    sector = np.repeat(np.arange(m1 + 1), m2 + 1) + np.tile(np.arange(m2 + 1), m1 + 1)
    return sector <= top


@pytest.fixture(scope="session")
def refs():
    with open(DATA_DIR / "reference_values.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def golden_hamiltonian():
    with open(DATA_DIR / "golden_hamiltonian_cutoff3.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def bistable_params():
    """Drive-family reference point: detuned Kerr resonator, gamma units."""
    return ModelParams(delta_c=5.0, chi=-0.25, omega=4.0, gamma=1.0)


@pytest.fixture(scope="session")
def twophoton_params():
    """Resonance-scan reference point with two-photon drive and loss."""
    return ModelParams(
        delta_c=-1.0, chi=1.0, omega=0.1, gamma=0.1, lambda_2ph=0.2, kappa=0.1
    )
