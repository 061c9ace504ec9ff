"""The benchmark tracer's hooks into the package still resolve.

perfbench/tracing.py wraps kerrsteady from outside and looks up a few
private names by string: lindblad_oracle.splu, the closed form's
_spot_check_against_recursion, _recursion_amplitudes and the _XCHECK_*
constants.  A rename in src/ would break only the benchmark's traced
runs; this test makes it fail here first.
"""

import pathlib

import pytest

from kerrsteady.exact_twophoton import _XCHECK_TOL, wavefunction_twophoton

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing as module

    return module


def test_tracer_targets_its_extra_hooks(tracing):
    names = {name for _, name in tracing.Tracer()._targets.values()}
    assert {"lindblad_oracle.splu", "exact_twophoton._spot_check_against_recursion",
            "exact_twophoton.wavefunction_twophoton"} <= names


def test_spot_gap_on_traced_reference_point(tracing, twophoton_params):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wavefunction_twophoton(twophoton_params)
    finally:
        tracer.uninstall()
    spots = [info for name, *_, info in tracer.spans
             if name == "exact_twophoton._spot_check_against_recursion"]
    assert len(spots) == 1
    params, betas = spots[0]
    assert params == twophoton_params
    gap = tracing._spot_gap(params, betas)
    assert 0.0 <= gap <= _XCHECK_TOL
