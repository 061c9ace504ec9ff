"""Command-line front end for the steady-state solvers.

Five subcommands: meanfield-sweep and exact-sweep walk a drive grid,
resonance-scan walks a detuning grid, residual certifies a closed-form
steady state against the doubled-space generator, and validate compares
exact moments against the density-matrix oracle over a manifest of
parameter points.

Outputs are deterministic to the byte: floats are printed with 17
significant digits, every table carries a single metadata comment line
with sorted JSON keys, and grid rows are assembled in grid order no
matter how many workers computed them.

Parameters arrive either as explicit flags (absolute frequencies, or
ratios of a declared unit via --unit) or as a JSON config file; the two
styles cannot be mixed in one invocation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import cache, partial

from .errors import InvalidParams, KerrSteadyError
from .exact_linear import correlation_linear, exact_drive_point
from .exact_twophoton import (
    correlation_twophoton,
    scan_point,
    strict_local_maxima,
    wavefunction_twophoton,
)
from .keldysh_ops import build_generalized_hamiltonian_clq, steady_residual
from .lindblad_oracle import adaptive_cutoff
from .meanfield import drive_point_branches
from .model import ModelParams, _check_moment_orders, params_from_dict

_PARAM_FLAGS = (
    ("delta_c", "--delta-c", "cavity detuning"),
    ("chi", "--chi", "Kerr coefficient"),
    ("gamma", "--gamma", "one-photon loss rate"),
    ("omega", "--omega", "coherent drive amplitude"),
    ("lambda_re", "--lambda2", "two-photon pump, real part"),
    ("lambda_im", "--lambda2-im", "two-photon pump, imaginary part"),
    ("kappa", "--kappa", "two-photon loss rate"),
)
# no grid in the docs, tests or benchmark comes near this; a step far below
# the span would otherwise fill memory with grid points before the first row
_MAX_GRID_POINTS = 10**6


class _UsageError(Exception):
    """Bad invocation; reported on stderr with exit status 2."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not valid JSON: {exc}") from exc


def _add_param_flags(parser: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    group = parser.add_argument_group("model parameters")
    group.add_argument(
        "--unit",
        choices=("gamma", "chi"),
        help="interpret parameter and grid values as ratios of this rate "
        "(whose own flag then gives its absolute value, default 1)",
    )
    group.add_argument(
        "--config",
        metavar="FILE",
        help="JSON config file instead of parameter flags",
    )
    for name, flag, help_text in _PARAM_FLAGS:
        if name in names:
            group.add_argument(flag, dest=f"p_{name}", type=float, help=help_text)


def _resolve_params(args, inject: dict | None = None) -> tuple[ModelParams, float, str]:
    """Build ModelParams from flags or config; return it, the unit anchor and the unit.

    Flags become the dict a config file would hold; both go through
    params_from_dict.  The anchor is the declared unit's absolute value
    (1 with no unit, "absolute"): what one grid unit is worth.  inject
    gives placeholders for quantities the grid overwrites per point.
    """
    given = {}
    for name, _, _ in _PARAM_FLAGS:
        # a command has attributes only for the parameter flags it declares
        value = getattr(args, f"p_{name}", None)
        if value is not None:
            given[name] = value
    if args.config is not None:
        if given or args.unit is not None:
            raise _UsageError("--config cannot be combined with parameter flags")
        raw = _load_json(args.config)
        if not isinstance(raw, dict):
            raise _UsageError(f"{args.config} must hold a JSON object of parameters")
    elif args.unit is None:
        raw = given
    else:
        anchor = given.pop(args.unit, 1.0)
        if not 0.0 < anchor < math.inf:
            raise _UsageError(
                f"--unit {args.unit}: the unit must be positive and finite, "
                f"got --{args.unit} {anchor}"
            )
        raw = {"unit": args.unit, args.unit: anchor}
        raw.update((f"{name}_over_{args.unit}", value) for name, value in given.items())
    unit = raw.get("unit")
    for key, value in (inject or {}).items():
        raw.setdefault(key if unit is None else f"{key}_over_{unit}", value)
    params = params_from_dict(raw)
    if unit is None:
        return params, 1.0, "absolute"
    return params, getattr(params, unit), unit


def _add_grid_flags(parser: argparse.ArgumentParser, axis: str, what: str) -> None:
    """A grid command's --AXIS-from/--AXIS-to/--AXIS-step flags, walked by _grid."""
    for end in ("from", "to", "step"):
        parser.add_argument(f"--{axis}-{end}", type=float, required=True)
    parser.set_defaults(grid_axis=(axis, what))


def _grid(args, anchor: float, unit: str) -> tuple[list[float], dict]:
    """Absolute grid points (grid units times anchor) and the metadata's "grid" entry."""
    axis, what = args.grid_axis
    start, stop, step = (getattr(args, f"{axis}_{end}") for end in ("from", "to", "step"))
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise _UsageError(f"{what} grid bounds must be finite")
    if step <= 0.0:
        raise _UsageError(f"{what} grid step must be > 0, got {step}")
    if stop < start:
        raise _UsageError(f"{what} grid is empty: from {start} to {stop}")
    span = (stop - start) / step
    if not span + 1e-9 < _MAX_GRID_POINTS:  # an infinite span fails too
        raise _UsageError(f"{what} grid from {start} to {stop} by {step} has too many points "
                          f"(the cap is {_MAX_GRID_POINTS})")
    count = int(math.floor(span + 1e-9)) + 1
    points = [(start + i * step) * anchor for i in range(count)]
    return points, {"from": start, "to": stop, "step": step, "unit": unit}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _write_table(out, meta: dict, header: list[str], rows: list[list]) -> None:
    out.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _emit(args, write_body) -> None:
    if args.output is None:
        write_body(sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_body(fh)


def _moment_orders(l, k, where: str) -> tuple[int, int]:
    """Moment orders from flags or a manifest; bad ones are a usage error."""
    try:
        return _check_moment_orders(l, k)
    except InvalidParams as exc:
        raise _UsageError(f"{where}: {exc}") from None


def _map_grid(task, items: list, workers: int) -> list:
    """Run task over items in order; the pool never outgrows the grid or the CPUs."""
    if workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {workers}")
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers == 1:
        return [task(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(items) // (4 * workers))
        return list(pool.map(task, items, chunksize=chunk))


def _cmd_meanfield_sweep(args) -> int:
    params, anchor, unit = _resolve_params(args)
    omegas, grid = _grid(args, anchor, unit)
    per_point = _map_grid(partial(drive_point_branches, params), omegas, args.workers)
    meta = {"command": "meanfield-sweep", "grid": grid, "params": params.to_dict()}
    rows = [
        [omega, idx, branch.n, branch.a0.real, branch.a0.imag,
         branch.stable, branch.degenerate]
        for omega, branches in zip(omegas, per_point)
        for idx, branch in enumerate(branches)
    ]
    _emit(args, lambda out: _write_table(
        out, meta,
        ["omega", "branch_index", "n", "re_a0", "im_a0", "stable", "degenerate"],
        rows,
    ))
    return 0


def _exact_sweep_row(params: ModelParams, l: int, k: int, omega: float) -> list:
    """One exact-sweep row; a moment other than <a^dag a> adds its value."""
    p = exact_drive_point(params, omega)
    row = [p.omega, p.n, p.amplitude.real, p.amplitude.imag, p.g2]
    if (l, k) != (1, 1):
        extra = correlation_linear(params.replace(omega=p.omega), l, k).value
        row += [extra.real, extra.imag]
    return row


def _cmd_exact_sweep(args) -> int:
    l, k = _moment_orders(args.l, args.k, "--l/--k")
    params, anchor, unit = _resolve_params(args)
    omegas, grid = _grid(args, anchor, unit)
    rows = _map_grid(partial(_exact_sweep_row, params, l, k), omegas, args.workers)
    header = ["omega", "n_exact", "re_a", "im_a", "g2"]
    if (l, k) != (1, 1):
        header += ["value_re", "value_im"]
    meta = {"command": "exact-sweep", "grid": grid, "moment": {"l": l, "k": k},
            "params": params.to_dict()}
    _emit(args, lambda out: _write_table(out, meta, header, rows))
    return 0


def _cmd_resonance_scan(args) -> int:
    params, anchor, unit = _resolve_params(args, inject={"delta_c": 0.0})
    if params.chi == 0.0:
        raise _UsageError("resonance-scan needs a nonzero --chi")
    deltas, grid = _grid(args, anchor, unit)
    pairs = _map_grid(partial(scan_point, params), deltas, args.workers)
    peaks = set(strict_local_maxima([n for n, _ in pairs]))
    rows = [
        [d / params.chi, n, g2, i in peaks]
        for i, (d, (n, g2)) in enumerate(zip(deltas, pairs))
    ]
    meta = {"command": "resonance-scan", "grid": grid, "params": params.to_dict()}
    _emit(args, lambda out: _write_table(
        out, meta, ["delta_c_over_chi", "n_exact", "g2", "is_peak"], rows
    ))
    return 0


def _cmd_residual(args) -> int:
    params, _, _ = _resolve_params(args)
    psi = wavefunction_twophoton(params, truncation=args.cutoff_cl)
    ham = build_generalized_hamiltonian_clq(params, (args.cutoff_cl, args.cutoff_q))
    report = steady_residual(ham, psi, args.interior)
    payload = {
        "residual_norm": report.residual_norm,
        "edge_norm": report.edge_norm,
        "interior_cut": report.interior_cut,
        "cutoffs": [args.cutoff_cl, args.cutoff_q],
    }
    _emit(args, lambda out: out.write(json.dumps(payload, sort_keys=True) + "\n"))
    return 0


def _cmd_validate(args) -> int:
    for flag, tol in (("--tol", args.tol), ("--oracle-tol", args.oracle_tol)):
        if not 0.0 < tol < math.inf:
            raise _UsageError(f"{flag} must be positive and finite, got {tol}")
    manifest = _load_json(args.manifest)
    if not isinstance(manifest, list) or not manifest:
        raise _UsageError("manifest must be a nonempty JSON list of cases")
    rows = []
    all_pass = True
    for idx, case in enumerate(manifest):
        if not isinstance(case, dict) or "params" not in case:
            raise _UsageError(f"case {idx} must be an object with a 'params' entry")
        point_id = str(case.get("id", idx))
        # the table's columns are cut at commas and its rows at line breaks
        if "," in point_id or point_id.splitlines() not in ([], [point_id]):
            raise _UsageError(f"case {idx}: id {point_id!r} holds a comma or a line break")
        params = params_from_dict(case["params"])
        l, k = _moment_orders(case.get("l", 1), case.get("k", 1), f"case {idx}")
        exact = correlation_twophoton(params, l, k).value
        cutoff, oracle = adaptive_cutoff(params, observable=(l, k), tol=args.oracle_tol)
        oracle = complex(oracle)
        diff = abs(exact - oracle)
        rel_err = float(diff / abs(oracle)) if abs(oracle) > 1e-12 else float(diff)
        ok = bool(rel_err <= args.tol)
        all_pass = all_pass and ok
        rows.append(
            [point_id, f"corr_l{l}_k{k}", _fmt_complex(exact), _fmt_complex(oracle),
             rel_err, cutoff, ok]
        )
    meta = {
        "command": "validate",
        "manifest": args.manifest,
        "oracle_tol": args.oracle_tol,
        "tol": args.tol,
    }
    _emit(args, lambda out: _write_table(
        out, meta,
        ["point_id", "observable", "exact", "oracle", "rel_err", "cutoff", "pass"],
        rows,
    ))
    return 0 if all_pass else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kerrsteady",
        description="Exact steady states of driven-dissipative Kerr resonators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, workers: bool = True):
        p.add_argument("-o", "--output", metavar="FILE",
                       help="write here instead of stdout")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="worker processes for grid points (default 1; "
                           "at most one per grid point and per CPU)")

    p = sub.add_parser("meanfield-sweep", help="semiclassical branches across a drive grid")
    _add_param_flags(p, ("delta_c", "chi", "gamma"))
    _add_grid_flags(p, "omega", "omega")
    add_common(p)
    p.set_defaults(run=_cmd_meanfield_sweep)

    p = sub.add_parser("exact-sweep", help="exact response across a drive grid")
    _add_param_flags(p, ("delta_c", "chi", "gamma"))
    _add_grid_flags(p, "omega", "omega")
    p.add_argument("--l", type=int, default=1, help="extra moment order, creation side")
    p.add_argument("--k", type=int, default=1, help="extra moment order, annihilation side")
    add_common(p)
    p.set_defaults(run=_cmd_exact_sweep)

    p = sub.add_parser("resonance-scan", help="photon number across a detuning grid")
    _add_param_flags(p, ("chi", "gamma", "omega", "lambda_re", "lambda_im", "kappa"))
    _add_grid_flags(p, "delta", "detuning")
    add_common(p)
    p.set_defaults(run=_cmd_resonance_scan)

    p = sub.add_parser("residual", help="doubled-space certificate of a closed-form state")
    _add_param_flags(p, ("delta_c", "chi", "gamma", "omega", "lambda_re", "lambda_im", "kappa"))
    p.add_argument("--cutoff-cl", type=int, default=60, help="classical-mode Fock cutoff")
    p.add_argument("--cutoff-q", type=int, default=4, help="quantum-mode Fock cutoff")
    p.add_argument("--interior", type=int, default=50, help="classical-mode interior cut")
    add_common(p, workers=False)
    p.set_defaults(run=_cmd_residual)

    p = sub.add_parser("validate", help="compare exact moments against the oracle")
    p.add_argument("--manifest", required=True, metavar="FILE",
                   help="JSON list of cases: {params, l, k, id}")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative disagreement that fails a case, positive and "
                   "finite (default 1e-6)")
    p.add_argument("--oracle-tol", type=float, default=1e-8,
                   help="oracle cutoff-doubling convergence tolerance, positive "
                   "and finite (default 1e-8)")
    add_common(p, workers=False)
    p.set_defaults(run=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KerrSteadyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
