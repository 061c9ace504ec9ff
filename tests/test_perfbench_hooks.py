"""The benchmark tracer's hooks into the package still resolve.

perfbench/tracing.py wraps kerrsteady from outside and looks up a few
private names by string: lindblad_oracle.splu, the closed form's
_spot_check_against_recursion, _recursion_amplitudes and the _XCHECK_*
constants.  Its per-call hooks also read arguments by position or name
and fields of the results, and perfbench/workloads.py's basis check
calls the doubled-space builders and convert_basis by module attribute.  A rename or signature change in src/ would
break only the benchmark's traced runs; these tests make it fail here
first.
"""

import json
import pathlib

import pytest

from kerrsteady import cli
from kerrsteady.exact_twophoton import _XCHECK_TOL, wavefunction_twophoton

from conftest import DATA_DIR

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


def test_traced_golden_exact_sweep_builds_once_per_point(tracing, tmp_path):
    target = tmp_path / "out.csv"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main([
            "exact-sweep", "--unit", "gamma", "--delta-c", "5", "--chi", "-0.25",
            "--gamma", "1", "--omega-from", "0", "--omega-to", "8", "--omega-step", "0.5",
            "-o", str(target)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert target.read_bytes() == (DATA_DIR / "golden_exact_sweep.csv").read_bytes()
    metrics = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))
    points = sum(1 for name, *_ in tracer.spans if name == "exact_linear.exact_drive_point")
    assert points == 17
    assert metrics["exact_linear.builds_per_point"] == 1.0
    assert metrics["specfun.hyp0f2.calls"] == points
    assert metrics["specfun.hyp0f2_ratio.calls"] == 3 * points


def test_layer_metrics_over_traced_cli_runs(tracing, tmp_path):
    manifest = tmp_path / "cases.json"
    manifest.write_text(json.dumps([
        {"id": "drive", "params": {"delta_c": 5.0, "chi": -0.25, "gamma": 1.0,
                                   "omega": 2.0}},
        {"id": "pair", "params": {"delta_c": -1.0, "chi": 1.0, "gamma": 0.1,
                                  "omega": 0.1, "lambda_re": 0.2, "kappa": 0.1}},
    ]))
    runs = [
        ["validate", "--manifest", str(manifest)],
        ["residual", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1", "--omega", "4",
         "--cutoff-cl", "60", "--cutoff-q", "4", "--interior", "50"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(args + ["-o", str(tmp_path / "out.txt")]) for args in runs]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    metrics = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert metrics["lindblad_oracle.solves"] > 0
    assert metrics["exact_twophoton.wavefunction_twophoton.calls"] > 0
    assert metrics["keldysh_ops.build_clq.busy_s"] > 0.0
    assert 0.0 < metrics["keldysh_ops.residual_rel_max"] <= 1e-8


def test_doubled_space_metrics_over_traced_basis_check(tracing):
    import workloads

    models = [dict(workloads._LINEAR, omega=4.0), workloads._TWOPHOTON]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = [json.loads(workloads.basis_check(p, [12, 4])) for p in models]
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert metrics["keldysh_ops.mixing_unitary.busy_s"] > 0.0
    assert metrics["keldysh_ops.convert_basis.busy_s"] > 0.0
    assert metrics["keldysh_ops.dense_bytes"] > 0
    assert all(r["max_gap"] <= workloads._BASIS_TOL for r in reports)
