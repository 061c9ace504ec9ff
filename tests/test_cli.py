"""Command-line interface: exit codes, determinism, and frozen outputs.

Everything runs in-process through main(argv) except one subprocess
smoke test of the installed entry point.  Output files land in tmp_path;
the golden tables in tests/data pin the byte-level format.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loop_references
from kerrsteady import cli, exact_linear, exact_twophoton, keldysh_ops
from kerrsteady.cli import main
from kerrsteady.keldysh_ops import build_generalized_hamiltonian_clq, steady_residual
from kerrsteady.exact_linear import amplitude_moment
from kerrsteady.exact_twophoton import wavefunction_twophoton, wavefunction_via_three_term
from kerrsteady.model import params_from_dict

from conftest import DATA_DIR

MEANFIELD_ARGS = [
    "meanfield-sweep", "--unit", "gamma", "--delta-c", "5", "--chi", "-0.25",
    "--gamma", "1", "--omega-from", "0", "--omega-to", "8", "--omega-step", "0.25",
]
EXACT_ARGS = [
    "exact-sweep", "--unit", "gamma", "--delta-c", "5", "--chi", "-0.25",
    "--gamma", "1", "--omega-from", "0", "--omega-to", "8", "--omega-step", "0.5",
]
SCAN_ARGS = [
    "resonance-scan", "--unit", "chi", "--chi", "1", "--gamma", "0.1",
    "--omega", "0", "--lambda2", "0.2", "--kappa", "0.1",
    "--delta-from", "-1.3", "--delta-to", "-0.7", "--delta-step", "0.1",
]
RESIDUAL_ARGS = [
    "residual", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1", "--omega", "4",
    "--cutoff-cl", "60", "--cutoff-q", "4", "--interior", "50",
]
# Inputs past the double range, and where each command says it ran out.
OVERFLOW_CASES = {
    "exact-sweep-1e200": (
        ["exact-sweep", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1",
         "--omega-from", "1e200", "--omega-to", "1e200", "--omega-step", "1"],
        "the 0F2 argument 2|epsilon|^2 leaves the double range"),
    "residual-1e200": (
        ["residual", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1", "--omega", "1e200"],
        "amplitude weight leaves the double range at Fock index 1"),
    "resonance-scan-lambda1e3": (
        ["resonance-scan", "--chi", "1", "--gamma", "0.1", "--omega", "0.1",
         "--lambda2", "1e3", "--kappa", "0.1",
         "--delta-from", "0", "--delta-to", "0", "--delta-step", "1"],
        "amplitude weight leaves the double range at Fock index 348"),
    "meanfield-sweep-1e200": (
        ["meanfield-sweep", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1",
         "--omega-from", "1e200", "--omega-to", "1e200", "--omega-step", "1"],
        "the mean-field cubic leaves the double range"),
    "meanfield-sweep-1e100": (
        ["meanfield-sweep", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1",
         "--omega-from", "1e100", "--omega-to", "1e100", "--omega-step", "1"],
        "the mean-field cubic leaves the double range"),
}
# Points whose Gauss sums hold no correct digit from some order within the
# three-term recursion's truncation: the closed form's refusal names that
# order.  The first sum's (z)_m leaves the double range before amplitude 76,
# where the scalar-loop references of loop_references.py raise
# OverflowError, so only the shipped walk runs these.
WALK_OVERFLOW_CASES = {
    "resonance-scan-pochhammer": (
        ["resonance-scan", "--chi", "-0.006784275261714434", "--gamma", "0.2370538519626042",
         "--omega", "0.00024549076653519286", "--lambda2", "1.4867076425106687",
         "--lambda2-im", "0.29838164714849136", "--kappa", "0.005751176044218105",
         "--delta-from", "3.9150705581924186", "--delta-to", "3.9150705581924186",
         "--delta-step", "1"],
        "Gauss sums 2F1(-m, y; z; 2) hold no correct digit from order 16, within the "
        "three-term recursion's truncation 39; wavefunction_via_three_term solves this point"),
    "resonance-scan-connection": (
        ["resonance-scan", "--chi", "0.004089232857269855", "--gamma", "0.42128067832539096",
         "--omega", "0", "--lambda2", "1.932905460330087", "--lambda2-im", "-0.12593388825110785",
         "--delta-from", "-6.081453982619993", "--delta-to", "-6.081453982619993",
         "--delta-step", "1"],
        "Gauss sums 2F1(-m, y; z; 2) hold no correct digit from order 12, within the "
        "three-term recursion's truncation 33; wavefunction_via_three_term solves this point"),
}
GOLDEN_RESIDUAL = json.loads((DATA_DIR / "golden_residual.json").read_text())["cases"]


def run_python(args):
    """A fresh interpreter that imports kerrsteady from where this one does."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable] + args, capture_output=True, text=True, env=env)


def run_to_file(tmp_path, args, name="out.csv"):
    target = tmp_path / name
    code = main(args + ["-o", str(target)])
    return code, target


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by a recorder that runs every task here.

    Returns the list of pool sizes requested; no process is started.
    """
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return list(map(fn, items))

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return sizes


class TestHappyPaths:
    def test_meanfield_sweep_matches_golden(self, tmp_path):
        code, target = run_to_file(tmp_path, MEANFIELD_ARGS)
        assert code == 0
        assert target.read_bytes() == (DATA_DIR / "golden_meanfield_sweep.csv").read_bytes()

    def test_exact_sweep_matches_golden(self, tmp_path):
        code, target = run_to_file(tmp_path, EXACT_ARGS)
        assert code == 0
        assert target.read_bytes() == (DATA_DIR / "golden_exact_sweep.csv").read_bytes()

    def test_exact_sweep_extra_moment_matches_golden(self, tmp_path):
        # the extra moment's columns come from the row's own build
        code, target = run_to_file(tmp_path, EXACT_ARGS + ["--l", "2", "--k", "1"])
        assert code == 0
        assert target.read_bytes() == (DATA_DIR / "golden_exact_sweep_l2k1.csv").read_bytes()

    def test_resonance_scan_flags_pair_peak(self, tmp_path):
        code, target = run_to_file(tmp_path, SCAN_ARGS)
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[1] == "delta_c_over_chi,n_exact,g2,is_peak"
        body = [line.split(",") for line in lines[2:]]
        assert len(body) == 7
        peaks = [float(row[0]) for row in body if row[3] == "1"]
        assert len(peaks) == 1
        assert peaks[0] == pytest.approx(-1.0, abs=0.01)

    def test_residual_reports_json(self, tmp_path):
        code, target = run_to_file(tmp_path, RESIDUAL_ARGS, "report.json")
        assert code == 0
        payload = json.loads(target.read_text())
        assert set(payload) == {"residual_norm", "edge_norm", "interior_cut", "cutoffs"}
        assert payload["cutoffs"] == [60, 4]
        assert payload["interior_cut"] == 50
        params = params_from_dict(
            {"delta_c": 5.0, "chi": -0.25, "gamma": 1.0, "omega": 4.0}
        )
        want = steady_residual(
            build_generalized_hamiltonian_clq(params, (60, 4)),
            wavefunction_twophoton(params, truncation=60),
            50,
        )
        assert payload["residual_norm"] == want.residual_norm
        assert payload["edge_norm"] == want.edge_norm
        assert payload["residual_norm"] <= 1e-8

    @pytest.mark.parametrize("case", GOLDEN_RESIDUAL, ids=[c["id"] for c in GOLDEN_RESIDUAL])
    def test_residual_matches_golden(self, tmp_path, case):
        """Frozen residual reports, byte for byte.

        golden_residual.json was written by running main(case["argv"])
        under contextlib.redirect_stdout for each case and storing the
        captured text under "stdout", with the kerrsteady whose cl_q
        generator was a sum of sparse ladder products and whose mixing
        unitary was a dense expm.  The cases are the README point and
        the two-photon reference point at cutoffs (60, 4), (120, 4),
        (180, 4) and (60, 1), each with interior cut cutoff - 10.
        """
        code, target = run_to_file(tmp_path, case["argv"], "report.json")
        assert code == 0
        assert target.read_bytes() == case["stdout"].encode()

    def test_resonance_scan_at_small_drive(self, tmp_path):
        # at omega = 1e-8 the odd Gauss sums are O(omega); every row must
        # release and agree with the three-term recursion
        args = ["resonance-scan", "--unit", "chi", "--chi", "1", "--gamma", "0.1",
                "--omega", "1e-8", "--lambda2", "0.2", "--kappa", "0.1",
                "--delta-from", "-4.5", "--delta-to", "0.5", "--delta-step", "0.01"]
        code, target = run_to_file(tmp_path, args)
        assert code == 0
        rows = [line.split(",") for line in target.read_text().splitlines()[2:]]
        assert len(rows) == 501
        base = params_from_dict({"delta_c": 0.0, "chi": 1.0, "gamma": 0.1, "omega": 1e-8,
                                 "lambda_re": 0.2, "kappa": 0.1})
        for row in rows:
            wf = wavefunction_via_three_term(base.replace(delta_c=float(row[0])))
            assert float(row[1]) == pytest.approx(amplitude_moment(wf, 1, 1).real, rel=1e-12)

    def test_resonance_scan_past_an_overflowing_direct_sum(self, tmp_path):
        # terms of the direct argument-2 sum pass the double range at high
        # orders; that form is set aside and the point releases the
        # recursion's <n> over all 707 levels
        args = ["resonance-scan", "--chi", "-0.015275899991637587",
                "--gamma", "0.06681322817388803", "--omega", "4.234191949842081e-05",
                "--lambda2", "4.1431172599413255", "--lambda2-im", "1.1112467893763691",
                "--delta-from", "4.203067144811342", "--delta-to", "4.203067144811342",
                "--delta-step", "1"]
        code, target = run_to_file(tmp_path, args)
        assert code == 0
        rows = [line.split(",") for line in target.read_text().splitlines()[2:]]
        assert len(rows) == 1
        wf = wavefunction_via_three_term(params_from_dict({
            "delta_c": 4.203067144811342, "chi": -0.015275899991637587,
            "gamma": 0.06681322817388803, "omega": 4.234191949842081e-05,
            "lambda_re": 4.1431172599413255, "lambda_im": 1.1112467893763691}))
        assert wf.truncation == 707
        assert float(rows[0][1]) == pytest.approx(amplitude_moment(wf, 1, 1).real, rel=1e-12)

    def test_residual_reaches_deep_state(self, tmp_path):
        # The deep family at omega=16 peaks near m = 138, so its
        # certificate needs a classical cutoff in the hundreds.
        args = ["residual", "--delta-c", "5", "--chi", "-0.05", "--gamma", "1",
                "--omega", "16", "--cutoff-cl", "300", "--cutoff-q", "4", "--interior", "290"]
        code, target = run_to_file(tmp_path, args, "report.json")
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["cutoffs"] == [300, 4]
        params = params_from_dict({"delta_c": 5.0, "chi": -0.05, "gamma": 1.0, "omega": 16.0})
        psi = wavefunction_via_three_term(params, truncation=300)
        assert payload["residual_norm"] <= 1e-8 * float(np.linalg.norm(psi.amplitudes))

    def test_validate_manifest_passes(self, tmp_path):
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps([
            {"id": "drive2", "params": {"delta_c": 5.0, "chi": -0.25, "gamma": 1.0,
                                        "omega": 2.0}, "l": 1, "k": 1},
            {"id": "pair", "params": {"delta_c": -1.0, "chi": 1.0, "gamma": 0.1,
                                      "omega": 0.1, "lambda_re": 0.2, "kappa": 0.1}},
        ]))
        code, target = run_to_file(tmp_path, ["validate", "--manifest", str(manifest)])
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[1] == "point_id,observable,exact,oracle,rel_err,cutoff,pass"
        assert [row.split(",")[0] for row in lines[2:]] == ["drive2", "pair"]
        assert all(row.split(",")[-1] == "1" for row in lines[2:])

    def test_validate_reports_failures_with_exit_one(self, tmp_path):
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps([
            {"params": {"delta_c": 5.0, "chi": -0.25, "gamma": 1.0, "omega": 2.0}},
        ]))
        target = tmp_path / "out.csv"
        code = main(["validate", "--manifest", str(manifest),
                     "--tol", "1e-18", "-o", str(target)])
        assert code == 1
        assert target.read_text().splitlines()[2].split(",")[-1] == "0"

    def test_strong_pump_validate_passes(self, tmp_path):
        # The closed form reaches truncation 101 here, where the direct
        # argument-2 Gauss sum has lost every digit to cancellation.
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps([
            {"id": "strong-pump", "params": {"delta_c": -2.0, "chi": 0.05, "omega": 1.0,
                                             "gamma": 1.0, "lambda_re": 1.0,
                                             "kappa": 0.02}},
        ]))
        target = tmp_path / "val.csv"
        assert main(["validate", "--manifest", str(manifest), "-o", str(target)]) == 0
        row = target.read_text().splitlines()[2].split(",")
        assert complex(row[2]) == pytest.approx(0.76148845192, rel=1e-10)
        assert float(row[4]) <= 1e-8
        assert row[5:] == ["64", "1"]

    def test_high_order_validate_passes(self, tmp_path):
        # l + k above 8 needs a first oracle cutoff above 16
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps([
            {"id": "drive", "params": {"delta_c": 5, "chi": -0.25, "gamma": 1,
                                       "omega": 1.5}, "l": 5, "k": 4},
            {"id": "pair", "params": {"delta_c": -1.0, "chi": 1.0, "gamma": 0.1,
                                      "omega": 0.1, "lambda_re": 0.2, "kappa": 0.1},
             "l": 5, "k": 5},
        ]))
        code, target = run_to_file(tmp_path, ["validate", "--manifest", str(manifest)])
        assert code == 0
        rows = [row.split(",") for row in target.read_text().splitlines()[2:]]
        # the drive case certifies at the first cutoff: 18 and 36 agree
        # (test_lindblad_oracle::test_high_order_moment_matches_closed_form)
        assert [row[5:] for row in rows] == [["18", "1"], ["20", "1"]]
        assert all(float(row[4]) <= 1e-9 for row in rows)

    def test_entry_point_smoke(self, tmp_path):
        target = tmp_path / "out.csv"
        proc = run_python(["-m", "kerrsteady.cli"] + EXACT_ARGS + ["-o", str(target)])
        assert proc.returncode == 0, proc.stderr
        assert target.read_bytes() == (DATA_DIR / "golden_exact_sweep.csv").read_bytes()

    def test_module_entry_point(self, tmp_path):
        # python -m kerrsteady runs the same main as the console script
        target = tmp_path / "out.csv"
        proc = run_python(["-m", "kerrsteady"] + MEANFIELD_ARGS + ["-o", str(target)])
        assert proc.returncode == 0, proc.stderr
        assert target.read_bytes() == (DATA_DIR / "golden_meanfield_sweep.csv").read_bytes()

    def test_import_leaves_scipy_unloaded(self):
        # the grid commands need numpy only; the oracle and the doubled
        # space import scipy when they run
        proc = run_python(
            ["-c", "import sys, kerrsteady.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"]
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_doubled_space_leaves_scipy_linalg_unloaded(self):
        # the residual certificate needs numpy only; the mixing unitary
        # needs no dense matrix functions, and the plus/minus builder
        # loads scipy.sparse alone
        script = (
            "import sys\n"
            "from kerrsteady.cli import main\n"
            "from kerrsteady.keldysh_ops import (build_generalized_hamiltonian_pm,\n"
            "    convert_basis, mixing_unitary)\n"
            "from kerrsteady.model import ModelParams\n"
            f"assert main({RESIDUAL_ARGS!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "mixing_unitary((6, 4))\n"
            "p = ModelParams(delta_c=5.0, chi=-0.25, omega=4.0, gamma=1.0)\n"
            "convert_basis(build_generalized_hamiltonian_pm(p, (6, 4)), 'cl_q')\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        proc = run_python(["-c", script])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["[]", "False"]


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        _, first = run_to_file(tmp_path, SCAN_ARGS, "a.csv")
        _, second = run_to_file(tmp_path, SCAN_ARGS, "b.csv")
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("args", [
        MEANFIELD_ARGS, EXACT_ARGS, EXACT_ARGS + ["--l", "2", "--k", "0"], SCAN_ARGS,
    ], ids=["meanfield-sweep", "exact-sweep", "exact-sweep-l2-k0", "resonance-scan"])
    def test_worker_count_does_not_change_bytes(self, tmp_path, args):
        _, serial = run_to_file(tmp_path, args + ["--workers", "1"], "w1.csv")
        _, parallel = run_to_file(tmp_path, args + ["--workers", "2"], "w2.csv")
        assert serial.read_bytes() == parallel.read_bytes()

    def test_parser_built_once_keeps_every_output(self, tmp_path, capsys):
        # one parser serves every main call in a process; after earlier
        # commands and a usage error each call prints what a fresh parser's does
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps([
            {"id": "weak", "params": {"delta_c": 5.0, "chi": -0.25, "gamma": 1.0,
                                      "omega": 0.5}},
        ]))
        commands = [
            ["validate", "--manifest", str(manifest)],
            ["exact-sweep", "--omega-from", "0", "--omega-to", "1", "--omega-step", "zero"],
            EXACT_ARGS,
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        cli._build_parser.cache_clear()
        in_turn = [run(argv) for argv in commands]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in commands:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert in_turn == fresh
        assert [code for code, _, _ in in_turn] == [0, 2, 0]
        assert sum("error:" in line for line in in_turn[1][2].splitlines()) == 1
        assert in_turn[1][1] == ""
        assert in_turn[2][1] == (DATA_DIR / "golden_exact_sweep.csv").read_text()

    @pytest.mark.parametrize("omega_to,workers,cpus,want", [
        ("0.5", "100000", 4, [2]),
        ("8", "100000", 4, [4]),
        ("8", "3", 4, [3]),
        ("8", "100000", None, []),
        ("0", "2", 4, []),
    ], ids=["grid-bound", "cpu-bound", "as-asked", "cpu-count-unknown", "one-point"])
    def test_pool_never_outgrows_grid_or_cpus(
        self, tmp_path, monkeypatch, pool_sizes, omega_to, workers, cpus, want
    ):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        args = EXACT_ARGS[:-6] + ["--omega-from", "0", "--omega-to", omega_to,
                                  "--omega-step", "0.5"]
        _, serial = run_to_file(tmp_path, args + ["--workers", "1"], "w1.csv")
        assert pool_sizes == []
        code, pooled = run_to_file(tmp_path, args + ["--workers", workers], "wn.csv")
        assert code == 0
        assert pool_sizes == want
        assert pooled.read_bytes() == serial.read_bytes()

    def test_seventeen_digit_floats_round_trip(self, tmp_path):
        _, target = run_to_file(tmp_path, EXACT_ARGS)
        lines = target.read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2 + 8].split(",")))
        value = float(row["n_exact"])
        assert format(value, ".17g") == row["n_exact"]
        assert value > 0.0

    def test_header_params_reproduce_body_via_config(self, tmp_path):
        _, flagged = run_to_file(tmp_path, EXACT_ARGS, "flags.csv")
        meta = json.loads(flagged.read_text().splitlines()[0][2:])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(meta["params"]))
        _, configured = run_to_file(
            tmp_path,
            ["exact-sweep", "--config", str(config),
             "--omega-from", "0", "--omega-to", "8", "--omega-step", "0.5"],
            "config.csv",
        )
        flagged_body = flagged.read_text().splitlines()[1:]
        configured_body = configured.read_text().splitlines()[1:]
        assert flagged_body == configured_body

    @pytest.mark.parametrize("command", ["meanfield-sweep", "exact-sweep"])
    def test_config_unit_scales_grid_and_names_it(self, tmp_path, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"unit": "gamma", "gamma": 2, "delta_c_over_gamma": 5.0, "chi_over_gamma": -0.25}
        ))
        grid = ["--omega-from", "0", "--omega-to", "1", "--omega-step", "0.5"]
        _, configured = run_to_file(
            tmp_path, [command, "--config", str(config)] + grid, "config.csv"
        )
        _, flagged = run_to_file(
            tmp_path,
            [command, "--unit", "gamma", "--gamma", "2", "--delta-c", "5", "--chi", "-0.25"]
            + grid,
            "flags.csv",
        )
        lines = configured.read_text().splitlines()
        meta = json.loads(lines[0][2:])
        assert meta["grid"]["unit"] == "gamma"
        assert sorted({float(row.split(",")[0]) for row in lines[2:]}) == [0.0, 1.0, 2.0]
        assert configured.read_bytes() == flagged.read_bytes()


class TestUsageErrors:
    def test_empty_grid_exits_two_without_file(self, tmp_path, capsys):
        target = tmp_path / "never.csv"
        code = main(["meanfield-sweep", "--delta-c", "5", "--chi", "-0.25",
                     "--gamma", "1", "--omega-from", "2", "--omega-to", "1",
                     "--omega-step", "0.5", "-o", str(target)])
        assert code == 2
        assert not target.exists()
        assert "empty" in capsys.readouterr().err

    def test_zero_step_rejected(self, tmp_path):
        code = main(["exact-sweep", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1",
                     "--omega-from", "0", "--omega-to", "1", "--omega-step", "0",
                     "-o", str(tmp_path / "never.csv")])
        assert code == 2

    @pytest.mark.parametrize("stop,step", [("1e300", "1e-300"), ("1", "1e-300"), ("1e6", "1")],
                             ids=["infinite", "finite", "cap-plus-one"])
    def test_unbounded_point_count_exits_two(self, tmp_path, capsys, monkeypatch, stop, step):
        # (to - from) / step past the cap, or overflowed to inf: a usage error
        # before any grid point is built, not a traceback or a full memory
        def no_points(*args, **kwargs):
            raise AssertionError("a grid was built past the cap")

        monkeypatch.setattr(cli, "range", no_points, raising=False)
        target = tmp_path / "never.csv"
        code = main(["exact-sweep", "--delta-c", "5", "--chi", "-0.25", "--gamma", "1",
                     "--omega-from", "0", "--omega-to", stop, "--omega-step", step,
                     "-o", str(target)])
        assert code == 2
        assert not target.exists()
        assert "too many points" in capsys.readouterr().err

    def test_grid_at_the_cap_is_built(self):
        args = argparse.Namespace(grid_axis=("omega", "omega"), omega_from=0.0,
                                  omega_to=cli._MAX_GRID_POINTS - 1.0, omega_step=1.0)
        points, _ = cli._grid(args, 1.0, "absolute")
        assert len(points) == cli._MAX_GRID_POINTS
        assert points[-1] == cli._MAX_GRID_POINTS - 1.0

    @pytest.mark.parametrize("flag, rest", [
        ("--config", ["--omega-from", "0", "--omega-to", "1", "--omega-step", "0.5"]),
        ("--manifest", []),
    ], ids=["config", "manifest"])
    def test_invalid_json_exits_two(self, tmp_path, capsys, flag, rest):
        bad = tmp_path / "bad.json"
        bad.write_text('{"delta_c": 5.0,')
        command = "validate" if flag == "--manifest" else "meanfield-sweep"
        code = main([command, flag, str(bad)] + rest)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_config_and_flags_exclusive(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"delta_c": 5.0, "chi": -0.25, "gamma": 1.0}))
        code = main(["meanfield-sweep", "--config", str(config), "--chi", "-0.25",
                     "--omega-from", "0", "--omega-to", "1", "--omega-step", "0.5"])
        assert code == 2
        assert "--config" in capsys.readouterr().err

    def test_negative_unit_anchor_exits_two(self, tmp_path, capsys):
        # in chi units a negative --chi would flip the sign of every ratio
        target = tmp_path / "never.csv"
        code = main(["exact-sweep", "--unit", "chi", "--chi", "-0.25", "--gamma", "4",
                     "--delta-c", "-20", "--omega-from", "1", "--omega-to", "2",
                     "--omega-step", "0.5", "-o", str(target)])
        assert code == 2
        assert not target.exists()
        assert "unit must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [MEANFIELD_ARGS, EXACT_ARGS, SCAN_ARGS],
                             ids=["meanfield-sweep", "exact-sweep", "resonance-scan"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_exits_two(self, tmp_path, capsys, pool_sizes,
                                           command, workers):
        target = tmp_path / "never.csv"
        code = main(command + ["--workers", workers, "-o", str(target)])
        assert code == 2
        assert not target.exists()
        assert pool_sizes == []
        assert "--workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--oracle-tol", "inf"), ("--oracle-tol", "nan"), ("--oracle-tol", "0"),
        ("--oracle-tol", "-1"), ("--tol", "inf"), ("--tol", "nan"), ("--tol", "0"),
        ("--tol", "-1"),
    ])
    def test_meaningless_validate_tolerance_exits_two(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        def no_case(*args, **kwargs):
            raise AssertionError("a case ran before the tolerances were checked")

        monkeypatch.setattr(cli, "correlation_twophoton", no_case)
        monkeypatch.setattr(cli, "adaptive_cutoff", no_case)
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps([
            {"params": {"delta_c": 5.0, "chi": -0.25, "gamma": 1.0, "omega": 2.0}},
        ]))
        target = tmp_path / "never.csv"
        code = main(["validate", "--manifest", str(manifest), flag, value,
                     "-o", str(target)])
        assert code == 2
        assert not target.exists()
        assert f"{flag} must be positive and finite" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code = main(["meanfield-sweep", "--config", str(tmp_path / "absent.json"),
                     "--omega-from", "0", "--omega-to", "1", "--omega-step", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("content", ["[1, 2]", '"abc"', "3"])
    def test_config_not_an_object_exits_two(self, tmp_path, capsys, content):
        config = tmp_path / "config.json"
        config.write_text(content)
        code = main(["exact-sweep", "--config", str(config),
                     "--omega-from", "0", "--omega-to", "1", "--omega-step", "0.5"])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_bad_manifest_shape(self, tmp_path, capsys):
        manifest = tmp_path / "cases.json"
        manifest.write_text("[]")
        assert main(["validate", "--manifest", str(manifest)]) == 2
        manifest.write_text(json.dumps([{"l": 1}]))
        assert main(["validate", "--manifest", str(manifest)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("point_id", ["w4,fake", "w4\nfake", "w4\r\n", "w4\u2028fake"],
                             ids=["comma", "newline", "crlf", "line-separator"])
    def test_validate_id_that_splits_the_table_exits_two(
        self, tmp_path, capsys, monkeypatch, point_id
    ):
        def no_case(*args, **kwargs):
            raise AssertionError("a case ran with an id the table cannot hold")

        monkeypatch.setattr(cli, "correlation_twophoton", no_case)
        monkeypatch.setattr(cli, "adaptive_cutoff", no_case)
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps([
            {"id": point_id, "params": {"delta_c": 5.0, "chi": -0.25, "gamma": 1.0,
                                        "omega": 4.0}},
        ]))
        target = tmp_path / "never.csv"
        assert main(["validate", "--manifest", str(manifest), "-o", str(target)]) == 2
        assert not target.exists()
        assert "case 0: id" in capsys.readouterr().err

    def test_dict_manifest_exits_two(self, tmp_path, capsys):
        # a manifest is a list of cases; a {"cases": [...]} wrapper is refused
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps({"cases": [
            {"params": {"delta_c": 5.0, "chi": -0.25, "gamma": 1.0, "omega": 2.0}},
        ]}))
        assert main(["validate", "--manifest", str(manifest)]) == 2
        assert "manifest must be a nonempty JSON list" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["-1", "17"])
    def test_moment_order_flag_out_of_range(self, tmp_path, capsys, order):
        target = tmp_path / "never.csv"
        code = main(EXACT_ARGS + ["--l", order, "-o", str(target)])
        assert code == 2
        assert not target.exists()
        assert "moment orders" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["x", None, 1.5, True])
    def test_bad_manifest_moment_order(self, tmp_path, capsys, order):
        manifest = tmp_path / "cases.json"
        manifest.write_text(json.dumps([
            {"params": {"delta_c": 5.0, "chi": -0.25, "gamma": 1.0, "omega": 2.0},
             "l": order},
        ]))
        assert main(["validate", "--manifest", str(manifest)]) == 2
        assert "case 0" in capsys.readouterr().err

    def test_resonance_scan_needs_kerr_term(self, capsys):
        code = main(["resonance-scan", "--chi", "0", "--gamma", "0.1",
                     "--lambda2", "0.2", "--kappa", "0.1",
                     "--delta-from", "-1", "--delta-to", "0", "--delta-step", "0.5"])
        assert code == 2
        capsys.readouterr()


class TestDomainErrors:
    @pytest.mark.parametrize("command, name, document, why", [
        (["validate", "--manifest"], "cases.json",
         [{"id": "listed", "params": [5.0, -0.25, 1.0], "l": 1, "k": 1}],
         "error: config must be a mapping, got list\n"),
        (["meanfield-sweep", "--omega-from", "0", "--omega-to", "1", "--omega-step", "0.5",
          "--config"], "config.json",
         {"unit": "hbar", "delta_c_over_hbar": 5.0, "chi": -0.25, "gamma": 1.0},
         "error: unit must be 'gamma' or 'chi', got 'hbar'\n"),
    ], ids=["manifest-params-list", "config-unit-hbar"])
    def test_malformed_parameters_exit_one(self, tmp_path, capsys, command, name, document, why):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        code = main(command + [str(path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == why

    def test_loss_without_pump_exits_one(self, tmp_path, capsys):
        target = tmp_path / "never.json"
        code = main(["residual", "--delta-c", "1", "--chi", "1", "--gamma", "0.1",
                     "--omega", "0.5", "--kappa", "0.2", "-o", str(target)])
        assert code == 1
        assert not target.exists()
        assert "two-photon" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["meanfield-sweep", "exact-sweep"])
    def test_negative_drive_exits_one(self, tmp_path, capsys, command):
        target = tmp_path / "never.csv"
        code = main([command, "--delta-c", "5", "--chi", "-0.25", "--gamma", "1",
                     "--omega-from", "-1", "--omega-to", "1", "--omega-step", "0.5",
                     "-o", str(target)])
        assert code == 1
        assert not target.exists()
        assert ">= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("model, cutoff, interior", [
        (["--delta-c", "5", "--chi", "-0.05", "--gamma", "1", "--omega", "16"], 120, 110),
        # needs 15 levels; 6 miss 6.3e-8 of the adaptive build's squared sum
        (["--delta-c", "-1", "--chi", "1", "--gamma", "0.1", "--omega", "0.1",
          "--lambda2", "0.2", "--kappa", "0.1"], 6, 5),
    ], ids=["coherent", "two-photon"])
    def test_cutoff_below_state_exits_one(self, tmp_path, capsys, model, cutoff, interior):
        target = tmp_path / "never.json"
        code = main(["residual"] + model + ["--cutoff-cl", str(cutoff), "--cutoff-q", "4",
                                            "--interior", str(interior), "-o", str(target)])
        assert code == 1
        assert not target.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: truncation {cutoff} is too small")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, rule",
        [
            (["exact-sweep", "--delta-c", "5", "--chi", "0", "--gamma", "1",
              "--omega-from", "0", "--omega-to", "1", "--omega-step", "0.5"],
             "coherent-drive closed form needs chi != 0"),
            (["residual", "--delta-c", "5", "--chi", "0", "--gamma", "1", "--omega", "1"],
             "coherent-drive closed form needs chi != 0"),
            (["residual", "--delta-c", "1", "--chi", "0", "--gamma", "1", "--omega", "0.1",
              "--lambda2", "0.2"],
             "two-photon closed form needs 2*chi - i*kappa != 0"),
        ],
        ids=["exact-sweep-chi0", "residual-chi0", "residual-pump-chi0-kappa0"],
    )
    def test_refusals_state_the_model_rule(self, capsys, args, rule):
        # the message names the rule, not the internal function that applies it
        assert main(args) == 1
        err = capsys.readouterr().err
        assert rule in err
        assert "derive_" not in err

    @pytest.mark.parametrize("args, where",
                             list(OVERFLOW_CASES.values()) + list(WALK_OVERFLOW_CASES.values()),
                             ids=list(OVERFLOW_CASES) + list(WALK_OVERFLOW_CASES))
    def test_overflow_exits_one_with_one_error_line(self, capsys, args, where):
        # past the double range a command refuses; it never prints nan rows
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err and "Traceback" not in err

    def test_out_of_memory_exits_one_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a generator too large to hold is refused in one line, as numpy words it
        def no_room(cutoffs, *parts):
            dim = (cutoffs[0] + 1) * (cutoffs[1] + 1)
            raise MemoryError(f"Unable to allocate for an array with shape ({dim}, {dim})")

        monkeypatch.setattr(keldysh_ops, "_assemble", no_room)
        target = tmp_path / "never.json"
        assert main(RESIDUAL_ARGS + ["-o", str(target)]) == 1
        assert not target.exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: out of memory: Unable to allocate for an array with shape (305, 305)\n"

    def test_moment_refusal_prints_plain_complex(self, capsys):
        # the amplitude route is a Python complex, so its repr is numpy-free
        code = main(["exact-sweep", "--delta-c", "-5", "--chi", "0.25", "--gamma", "1",
                     "--omega-from", "2", "--omega-to", "2", "--omega-step", "1",
                     "--l", "16", "--k", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "amplitude route (-0.0039996404867204405-0.0030739175738022317j)" in err
        assert "np.complex128" not in err

    def test_negative_rate_exits_one(self, capsys):
        code = main(["meanfield-sweep", "--delta-c", "5", "--chi", "-0.25",
                     "--gamma", "-1", "--omega-from", "0", "--omega-to", "1",
                     "--omega-step", "0.5"])
        assert code == 1
        capsys.readouterr()


SCAN_GRID = ["resonance-scan", "--unit", "chi", "--chi", "1", "--gamma", "0.1",
             "--lambda2", "0.2", "--kappa", "0.1",
             "--delta-from", "-4.5", "--delta-to", "0.5", "--delta-step", "0.05"]
DEEP_SWEEP = ["exact-sweep", "--delta-c", "5", "--chi", "-0.05", "--gamma", "1",
              "--omega-step", "0.5"]


@pytest.mark.bitwise
class TestScalarLoopParity:
    """The CLI prints the same bytes with the scalar-loop kernels patched in.

    loop_references.py holds the per-order Gauss sum and the term-by-term
    moment the package ran before its walk and array pass.
    """

    @staticmethod
    def run_both(monkeypatch, capsys, args):
        shipped = (main(args), *capsys.readouterr())
        with monkeypatch.context() as patch:
            patch.setattr(exact_twophoton, "_gauss_sum_walk", loop_references.gauss_sums)
            patch.setattr(exact_twophoton, "amplitude_moment", loop_references.amplitude_moment)
            patch.setattr(exact_linear, "amplitude_moment", loop_references.amplitude_moment)
            reference = (main(args), *capsys.readouterr())
        return shipped, reference

    @pytest.mark.parametrize(
        "args",
        [
            SCAN_GRID + ["--omega", "0.1"],
            SCAN_GRID + ["--omega", "0"],
            ["resonance-scan", "--chi", "0.05", "--omega", "1",
             "--gamma", "1", "--lambda2", "1", "--kappa", "0.02",
             "--delta-from", "-2", "--delta-to", "-2", "--delta-step", "1"],
            DEEP_SWEEP + ["--omega-from", "0", "--omega-to", "9"],
            DEEP_SWEEP + ["--omega-from", "9.5", "--omega-to", "16"],
            EXACT_ARGS + ["--l", "2", "--k", "2"],
        ],
        ids=["scan-omega0.1", "scan-omega0", "strong-pump", "deep-below", "deep-above",
             "exact-l2k2"],
    )
    def test_output_bytes_match(self, monkeypatch, capsys, args):
        shipped, reference = self.run_both(monkeypatch, capsys, args)
        assert shipped[0] == 0
        assert shipped == reference

    @pytest.mark.parametrize(
        "args",
        [args for args, _ in OVERFLOW_CASES.values()]
        + [["residual", "--delta-c", "5", "--chi", "-0.05", "--gamma", "1", "--omega", "16",
            "--cutoff-cl", "120", "--cutoff-q", "4", "--interior", "110"]],
        ids=list(OVERFLOW_CASES) + ["residual-cutoff-below-state"],
    )
    def test_refusals_match(self, monkeypatch, capsys, args):
        shipped, reference = self.run_both(monkeypatch, capsys, args)
        assert shipped[0] == 1
        assert shipped == reference
