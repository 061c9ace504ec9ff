"""Workload inputs and correctness gates for the kerrsteady benchmark.

A workload is a list of calls.  A call runs one or more commands (CLI
argument lists, or a library op given as a dict) and computes a known
number of ops; its gate turns the commands' outputs into one verdict
per op (None for a pass, else the reason it failed).  Inputs come only
from the seed: it shifts each grid start by a fraction of one step and
jitters validate and certificate parameters by at most 1%.  The golden
grids and the known-failing probes never move, so their defects and
byte-for-byte checks show on every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from kerrsteady import cli, keldysh_ops
from kerrsteady.exact_twophoton import wavefunction_via_three_term
from kerrsteady.model import ModelParams, params_from_dict

# Tolerances of the gates.  The two closed-form routes and the recursion
# agree to about 1e-12 on every released number; 1e-8 leaves room for
# the 17-digit CSV round trip and flags any real disagreement.
_ROUTE_TOL = 1e-8
_MEANFIELD_REL = 1e-9
_RESIDUAL_TOL = 1e-8
_BASIS_TOL = 1e-10
_PEAK_TOL = 0.2

_JITTER = 0.01

_LINEAR = {"delta_c": 5.0, "chi": -0.25, "gamma": 1.0}
_DEEP = {"delta_c": 5.0, "chi": -0.05, "gamma": 1.0}
_DEEP_WINDOW = (9.05, 9.4)
_TWOPHOTON = {"delta_c": -1.0, "chi": 1.0, "omega": 0.1, "gamma": 0.1,
              "lambda_re": 0.2, "kappa": 0.1}
_STRONG_PUMP = {"delta_c": -2.0, "chi": 0.05, "omega": 1.0, "gamma": 1.0,
                "lambda_re": 1.0, "kappa": 0.02}

_FLAG = {"delta_c": "--delta-c", "chi": "--chi", "gamma": "--gamma", "omega": "--omega",
         "lambda_re": "--lambda2", "kappa": "--kappa"}


@dataclass
class Outcome:
    """What one command left behind: exit code, output text, exception."""

    code: int | None
    out: str
    err: str
    exc: str | None = None

    def key(self) -> tuple:
        return (self.code, self.out, self.err, self.exc)


@dataclass
class Call:
    """One unit of a round: commands run back to back, ops they compute."""

    name: str
    commands: list
    ops: int
    check: Callable[[list[Outcome]], list[str | None]] = field(repr=False)
    reason: str = ""


@dataclass
class Workload:
    name: str
    calls: list[Call]
    probes: list[Call]
    grid: bool  # commands take --workers, so the two-worker pass uses it


# ---------------------------------------------------------------- inputs


def grid_points(start: float, stop: float, step: float) -> list[float]:
    """The grid the CLI walks for --X-from/--X-to/--X-step."""
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _flags(params: dict) -> list[str]:
    out = []
    for key, value in params.items():
        out += [_FLAG[key], repr(float(value))]
    return out


def _jitter(rng: random.Random, params: dict) -> dict:
    return {k: v * (1.0 + _JITTER * (2.0 * rng.random() - 1.0)) for k, v in params.items()}


def _sweep_call(name: str, params: dict, omegas: list[float], step: float) -> Call:
    flags = ["--unit", "gamma"] + _flags(params) + [
        "--omega-from", repr(omegas[0]), "--omega-to", repr(omegas[-1]), "--omega-step", repr(step)]
    return Call(
        name=name,
        commands=[["exact-sweep"] + flags, ["meanfield-sweep"] + flags],
        ops=len(omegas),
        check=lambda outs: _check_drive(outs, params, len(omegas)),
    )


def _drive_sweep(rng, tiny, workdir) -> Workload:
    step = 1.0 if tiny else 0.005
    shift = rng.random() * step
    calls = [_sweep_call("sweep bistable", _LINEAR, grid_points(shift, 8.0 + shift, step), step)]
    # The exact sweep refuses (CrossCheckFailure) for omega in about
    # [9.064, 9.394] on the deep family, and one refusal fails the whole
    # CLI call; the grid runs on either side and the window is a probe.
    step = 4.0 if tiny else 0.05
    shift = rng.random() * step
    deep = grid_points(shift, 16.0 + shift, step)
    calls.append(_sweep_call("sweep deep below window", _DEEP,
                             [w for w in deep if w < _DEEP_WINDOW[0]], step))
    calls.append(_sweep_call("sweep deep above window", _DEEP,
                             [w for w in deep if w > _DEEP_WINDOW[1]], step))
    flags = ["--unit", "gamma"] + _flags(_LINEAR)
    data = Path("tests") / "data"
    for command, step, golden, count in (("exact-sweep", "0.5", "golden_exact_sweep.csv", 17),
                                         ("meanfield-sweep", "0.25",
                                          "golden_meanfield_sweep.csv", 33)):
        calls.append(Call(
            name=f"golden {command}",
            commands=[[command] + flags
                      + ["--omega-from", "0", "--omega-to", "8", "--omega-step", step]],
            ops=count,
            check=lambda outs, g=data / golden, n=count: _check_golden(outs[0], g, n),
        ))
    probe = _sweep_call("deep-window sweep", _DEEP, grid_points(9.1, 9.35, 0.05), 0.05)
    probe.reason = ("the (2,2) moment's hypergeometric ratio and amplitude routes disagree "
                    "for omega in about [9.064, 9.394] (chi=-0.05), so exact-sweep exits 1")
    return Workload("drive-sweep", calls, [probe], grid=True)


def _resonance_scan(rng, tiny, workdir) -> Workload:
    calls = []
    if tiny:
        lo, hi, step = -1.3, -0.7, 0.1
    else:
        lo, hi, step = -4.5, 0.5, 0.01
    for omega, peaks in ((0.1, (0.0, -1.0, -2.0, -3.0)), (0.0, (-1.0, -3.0))):
        params = dict(_TWOPHOTON, omega=omega)
        if tiny:
            peaks = (-1.0,)
        shift = rng.random() * step
        start, stop = lo + shift, hi + shift
        calls.append(Call(
            name=f"scan omega={omega}",
            commands=[["resonance-scan", "--unit", "chi"]
                      + _flags({k: v for k, v in params.items() if k != "delta_c"})
                      + ["--delta-from", repr(start), "--delta-to", repr(stop),
                         "--delta-step", repr(step)]],
            ops=len(grid_points(start, stop, step)),
            check=lambda outs, p=params, g=(start, stop, step), e=peaks:
                _check_scan(outs[0], p, g, e, anchor=p["chi"]),
        ))
    strong = {k: v for k, v in _STRONG_PUMP.items() if k != "delta_c"}
    probe = Call(
        name="strong-pump point",
        commands=[["resonance-scan"] + _flags(strong)
                  + ["--delta-from", "-2.0", "--delta-to", "-2.0", "--delta-step", "1.0"]],
        ops=1,
        check=lambda outs: _check_scan(outs[0], _STRONG_PUMP, (-2.0, -2.0, 1.0), (), anchor=1.0),
        reason="closed form runs far past its double-double precision wall and "
               "prints <n>=104.0 where the three-term recursion gives 0.7615",
    )
    return Workload("resonance-scan", calls, [probe], grid=True)


def _validate_cases() -> list[tuple[str, dict, int, int]]:
    cases = [(f"linear-w{w}", dict(_LINEAR, omega=w), 1, 1)
             for w in (0.5, 1.58, 3.0, 4.0, 6.15, 7.5)]
    cases.append(("linear-deep", {"delta_c": 5.0, "chi": -0.15, "gamma": 1.0, "omega": 6.0},
                  1, 1))
    cases += [("linear-w4-l0k1", dict(_LINEAR, omega=4.0), 0, 1),
              ("linear-w4-l2k2", dict(_LINEAR, omega=4.0), 2, 2)]
    cases += [(f"pair-d{d}", dict(_TWOPHOTON, delta_c=d), 1, 1)
              for d in (-4.4, -3.2, -2.0, -1.0, 0.0)]
    cases += [("pair-chi0", dict(_TWOPHOTON, chi=0.0), 1, 1),
              ("pair-l2k2", dict(_TWOPHOTON), 2, 2)]
    return cases


def _validate_call(workdir: Path, case_id: str, params: dict, l: int, k: int,
                   reason: str = "") -> Call:
    manifest = workdir / f"case-{case_id}.json"
    manifest.write_text(json.dumps([{"id": case_id, "params": params, "l": l, "k": k}]))
    return Call(
        name=f"validate {case_id}",
        commands=[["validate", "--manifest", str(manifest)]],
        ops=1,
        check=lambda outs: _check_validate(outs[0], case_id),
        reason=reason,
    )


def _oracle_validate(rng, tiny, workdir) -> Workload:
    cases = _validate_cases()
    if tiny:
        cases = [cases[0], cases[9]]
    calls = [_validate_call(workdir, cid, _jitter(rng, p), l, k) for cid, p, l, k in cases]
    probe = _validate_call(
        workdir, "past-cap", {"delta_c": 5.0, "chi": -0.12, "gamma": 1.0, "omega": 6.0}, 1, 1,
        reason="<n> about 25 needs more than the oracle's cutoff cap of 256; "
               "validate raises NonConvergence after the cutoff-256 solve",
    )
    return Workload("oracle-validate", calls, [probe], grid=False)


def _doubled_space(rng, tiny, workdir) -> Workload:
    models = {"linear": dict(_LINEAR, omega=4.0), "pair": dict(_TWOPHOTON)}
    cutoffs = (60,) if tiny else (180, 120, 60)
    basis_cut = (12, 4) if tiny else (40, 4)
    calls = []
    jittered = {label: _jitter(rng, p) for label, p in models.items()}
    for cutoff in cutoffs:
        for label, params in jittered.items():
            calls.append(Call(
                name=f"residual {label} cutoff={cutoff}",
                commands=[["residual"] + _flags(params)
                          + ["--cutoff-cl", str(cutoff), "--cutoff-q", "4",
                             "--interior", str(cutoff - 10)]],
                ops=1,
                check=lambda outs, p=params, c=cutoff: _check_residual(outs[0], p, c),
            ))
    for label, params in jittered.items():
        calls.append(Call(
            name=f"basis {label} {basis_cut}",
            commands=[{"op": "basis", "params": params, "cutoffs": list(basis_cut)}],
            ops=1,
            check=lambda outs: _check_basis(outs[0]),
        ))
    return Workload("doubled-space", calls, [], grid=False)


WORKLOADS = {
    "drive-sweep": _drive_sweep,
    "resonance-scan": _resonance_scan,
    "oracle-validate": _oracle_validate,
    "doubled-space": _doubled_space,
}


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    """Calls and probes of one workload for this seed (tiny: smoke sizes)."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tiny, workdir)


# ------------------------------------------------------------ library op


def basis_check(params: dict, cutoffs: list[int]) -> str:
    """Rotate the plus/minus transcription into cl_q; report the sector gap.

    The mixing unitary is exact only on states whose total photon number
    fits under both cutoffs, so the comparison is made on that sector.
    """
    model = params_from_dict(params)
    pair = (int(cutoffs[0]), int(cutoffs[1]))
    clq = keldysh_ops.build_generalized_hamiltonian_clq(model, pair)
    rotated = keldysh_ops.convert_basis(
        keldysh_ops.build_generalized_hamiltonian_pm(model, pair), keldysh_ops.CL_Q)
    m1, m2 = pair
    sector = np.repeat(np.arange(m1 + 1), m2 + 1) + np.tile(np.arange(m2 + 1), m1 + 1)
    mask = sector <= min(pair)
    gap = float(np.max(np.abs(rotated.entries - clq.entries)[np.ix_(mask, mask)]))
    return json.dumps({"max_gap": gap, "sector_states": int(mask.sum())}, sort_keys=True) + "\n"


# ----------------------------------------------------------------- gates


def _failed_command(outcome: Outcome) -> str | None:
    if outcome.exc is not None:
        return f"raised {outcome.exc}"
    if outcome.code != 0:
        message = outcome.err.strip().splitlines()
        return f"exit {outcome.code}" + (f": {message[-1]}" if message else "")
    return None


def _table(text: str) -> tuple[dict, list[str], list[list[str]]]:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("not a CLI table")
    return json.loads(lines[0][2:]), lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def _by_point(rows: list) -> list[tuple[str, list]]:
    """Rows grouped by their first column (the grid value), in order."""
    groups: dict[str, list] = {}
    for row in rows:
        key = row.split(",")[0] if isinstance(row, str) else row[0]
        groups.setdefault(key, []).append(row)
    return list(groups.items())


def _all(count: int, reason: str) -> list[str | None]:
    return [reason] * count


def reference_moments(params: ModelParams) -> tuple[float, complex, float]:
    """<n>, <a> and <a^dag^2 a^2> from the three-term recursion amplitudes.

    Moments from an amplitude sequence c carry a factor 2^(-(l+k)/2):
    <a^dag^l a^k> = 2^(-(l+k)/2) sum_m conj(c[m+l]) c[m+k] sqrt((m+l)! (m+k)!) / m!.
    """
    c = wavefunction_via_three_term(params).amplitudes
    m = np.arange(c.size, dtype=float)
    weights = np.abs(c) ** 2
    n = 0.5 * float(np.sum(weights[1:] * m[1:]))
    a = math.sqrt(0.5) * complex(np.sum(np.conj(c[:-1]) * c[1:] * np.sqrt(m[1:])))
    pair = 0.25 * float(np.sum(weights[2:] * m[2:] * m[1:-1]))
    return n, a, pair


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= _ROUTE_TOL * abs(want) + 1e-300


def _check_drive(outs: list[Outcome], params: dict, count: int) -> list[str | None]:
    for outcome in outs:
        failure = _failed_command(outcome)
        if failure:
            return _all(count, failure)
    try:
        _, header, exact = _table(outs[0].out)
        _, mf_header, mf_rows = _table(outs[1].out)
    except ValueError as exc:
        return _all(count, f"unreadable output: {exc}")
    if header[:5] != ["omega", "n_exact", "re_a", "im_a", "g2"] or len(exact) != count:
        return _all(count, "exact-sweep table has the wrong shape")
    groups = _by_point(mf_rows)
    if mf_header[:3] != ["omega", "branch_index", "n"] or len(groups) != count:
        return _all(count, "meanfield-sweep table has the wrong shape")
    base = params_from_dict(params)
    verdicts: list[str | None] = []
    for row, (omega_text, branches) in zip(exact, groups):
        verdicts.append(_check_drive_point(base, row, omega_text, branches))
    return verdicts


def _check_drive_point(base: ModelParams, row: list[str], omega_text: str,
                       branches: list[list[str]]) -> str | None:
    if row[0] != omega_text:
        return f"exact and mean-field rows disagree on omega ({row[0]} vs {omega_text})"
    omega = float(row[0])
    p = base.replace(omega=omega)
    n_ref, a_ref, pair_ref = reference_moments(p)
    n, a, g2 = float(row[1]), complex(float(row[2]), float(row[3])), float(row[4])
    g2_ref = pair_ref / n_ref**2 if n_ref**2 > 0.0 else float("nan")
    if not _close(n, n_ref):
        return f"<n>={n!r} at omega={omega!r}, recursion gives {n_ref!r}"
    if abs(a - a_ref) > _ROUTE_TOL * abs(a_ref) + 1e-300:
        return f"<a>={a!r} at omega={omega!r}, recursion gives {a_ref!r}"
    if not _close(g2, g2_ref):
        return f"g2={g2!r} at omega={omega!r}, recursion gives {g2_ref!r}"
    coeffs = [16.0 * p.chi**2, 16.0 * p.chi * p.delta_c, 4.0 * p.delta_c**2 + p.gamma**2,
              -4.0 * omega**2]
    roots = sorted(r.real for r in np.roots(coeffs)
                   if abs(r.imag) <= 1e-8 * max(1.0, abs(r)) and r.real >= -1e-12)
    got = sorted(float(b[2]) for b in branches)
    if len(got) != len(roots):
        return f"{len(got)} mean-field branches at omega={omega!r}, np.roots gives {len(roots)}"
    for value, root in zip(got, roots):
        if abs(value - root) > _MEANFIELD_REL * abs(root) + 1e-12:
            return f"mean-field n={value!r} at omega={omega!r}, np.roots gives {root!r}"
    if len(got) == 3 and sum(b[5] == "0" for b in branches) != 1:
        return f"bistable point omega={omega!r} must have exactly one unstable branch"
    return None


def _check_golden(outcome: Outcome, golden: Path, count: int) -> list[str | None]:
    failure = _failed_command(outcome)
    if failure:
        return _all(count, failure)
    want = golden.read_text()
    if outcome.out == want:
        return [None] * count
    got_lines, want_lines = outcome.out.splitlines(), want.splitlines()
    if got_lines[:2] != want_lines[:2]:
        return _all(count, f"metadata or header differs from {golden.name}")
    got, ref = _by_point(got_lines[2:]), _by_point(want_lines[2:])
    if len(got) != count or len(ref) != count:
        return _all(count, f"row count differs from {golden.name}")
    return [None if g == r else f"row for omega={r[0]} differs from {golden.name}"
            for g, r in zip(got, ref)]


def _check_scan(outcome: Outcome, params: dict, grid: tuple, peaks: tuple,
                anchor: float) -> list[str | None]:
    """Every point against the recursion, and the expected peaks present.

    anchor is what one grid unit is worth: chi under --unit chi, else 1.
    """
    points = grid_points(*grid)
    count = len(points)
    failure = _failed_command(outcome)
    if failure:
        return _all(count, failure)
    try:
        _, header, rows = _table(outcome.out)
    except ValueError as exc:
        return _all(count, f"unreadable output: {exc}")
    if header != ["delta_c_over_chi", "n_exact", "g2", "is_peak"] or len(rows) != count:
        return _all(count, "resonance-scan table has the wrong shape")
    base = params_from_dict(params)
    found = [float(r[0]) for r in rows if r[3] == "1"]
    missing = [t for t in peaks if not any(abs(d - t) <= _PEAK_TOL for d in found)]
    if missing:
        return _all(count, f"no resonance peak within {_PEAK_TOL} of delta_c/chi={missing}")
    verdicts: list[str | None] = []
    for g, row in zip(points, rows):
        delta = g * anchor
        n_ref, _, pair_ref = reference_moments(base.replace(delta_c=delta))
        n, g2 = float(row[1]), float(row[2])
        g2_ref = pair_ref / n_ref**2 if n_ref > 0.0 else float("nan")
        if not _close(n, n_ref):
            verdicts.append(f"<n>={n!r} at delta_c={delta!r}, recursion gives {n_ref!r}")
        elif not _close(g2, g2_ref):
            verdicts.append(f"g2={g2!r} at delta_c={delta!r}, recursion gives {g2_ref!r}")
        else:
            verdicts.append(None)
    return verdicts


def _check_validate(outcome: Outcome, case_id: str) -> list[str | None]:
    failure = _failed_command(outcome)
    if failure:
        return [failure]
    try:
        _, header, rows = _table(outcome.out)
    except ValueError as exc:
        return [f"unreadable output: {exc}"]
    if header[-1] != "pass" or len(rows) != 1 or rows[0][0] != case_id:
        return ["validate table has the wrong shape"]
    return [None if rows[0][-1] == "1" else f"oracle disagrees: rel_err={rows[0][4]}"]


def _check_residual(outcome: Outcome, params: dict, cutoff: int) -> list[str | None]:
    failure = _failed_command(outcome)
    if failure:
        return [failure]
    try:
        report = json.loads(outcome.out)
    except json.JSONDecodeError as exc:
        return [f"unreadable output: {exc}"]
    if report.get("cutoffs") != [cutoff, 4] or report.get("interior_cut") != cutoff - 10:
        return ["residual report has the wrong cutoffs"]
    psi = wavefunction_via_three_term(params_from_dict(params), truncation=cutoff).amplitudes
    rel = report["residual_norm"] / float(np.linalg.norm(psi))
    return [None if rel <= _RESIDUAL_TOL else f"residual_norm/|psi|={rel!r} above {_RESIDUAL_TOL}"]


def _check_basis(outcome: Outcome) -> list[str | None]:
    failure = _failed_command(outcome)
    if failure:
        return [failure]
    gap = json.loads(outcome.out)["max_gap"]
    return [None if gap <= _BASIS_TOL else f"bases differ by {gap!r} on the exact sector"]


# -------------------------------------------------------------- running


def execute(command) -> Outcome:
    """Run one command in this interpreter and capture what it leaves.

    Every exception is caught and recorded: a failed op never aborts a run.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if isinstance(command, dict):
                out.write(basis_check(command["params"], command["cutoffs"]))
                code = 0
            else:
                code = cli.main(list(command))
    except SystemExit as exc:
        return Outcome(exc.code if isinstance(exc.code, int) else 2, out.getvalue(),
                       err.getvalue())
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none aborts
        return Outcome(None, out.getvalue(), err.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(code, out.getvalue(), err.getvalue())
