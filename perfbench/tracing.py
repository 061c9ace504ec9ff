"""In-memory span tracer wrapped around kerrsteady's layers from outside.

Nothing under src/ changes.  The tracer replaces, at every import site
inside the package, each public function of a layer module (and the
public methods of the classes it defines) with a wrapper that records a
span: name, start, end, parent and, for a few calls, a number taken
from the arguments or the return value.  Modules import names directly
(``from .specfun import hyp0f2_ratio``), so patching the defining module
alone would miss most calls.  `uninstall` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("model", "specfun", "meanfield", "exact_linear", "exact_twophoton",
          "lindblad_oracle", "keldysh_ops", "cli")

# Functions that are not public module functions but carry a layer metric.
_EXTRA = {
    "lindblad_oracle": ("splu",),
    "exact_twophoton": ("_spot_check_against_recursion",),
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _relative_gap(args, kwargs, result):
    return result.crosscheck_gap / max(abs(result.value), 1e-300)


# Numbers a span keeps, taken after its clock stops.
_INFO = {
    "specfun.hyp0f2": lambda a, k, r: r.terms_used,
    "specfun.hyp2f1_terminating": lambda a, k, r: _arg(a, k, 0, "m") + 1,
    "exact_linear.wavefunction_linear": lambda a, k, r: r.amplitudes.size,
    "exact_linear.correlation_linear": _relative_gap,
    "exact_twophoton.wavefunction_twophoton":
        lambda a, k, r: r.amplitudes.size if _arg(a, k, 0, "params").is_two_photon else 0,
    "exact_twophoton.correlation_twophoton": _relative_gap,
    # the gap itself is computed after the round, from the kept references
    "exact_twophoton._spot_check_against_recursion": lambda a, k, r: (a[0], a[1]),
    "lindblad_oracle.build_liouvillian": lambda a, k, r: r.matrix.nnz,
    "lindblad_oracle.steady_state":
        lambda a, k, r: (r.cutoff, r.fixed_point_residual, r.herm_defect),
    "lindblad_oracle.adaptive_cutoff": lambda a, k, r: r[0],
    "keldysh_ops.build_generalized_hamiltonian_clq": lambda a, k, r: r.entries.nbytes,
    "keldysh_ops.build_generalized_hamiltonian_pm": lambda a, k, r: r.entries.nbytes,
    "keldysh_ops.convert_basis": lambda a, k, r: r.entries.nbytes,
    "keldysh_ops.mixing_unitary": lambda a, k, r: r.nbytes,
    "keldysh_ops.steady_residual":
        lambda a, k, r: r.residual_norm / float(np.linalg.norm(_arg(a, k, 1, "psi").amplitudes)),
}


class Tracer:
    """Records spans of wrapped calls; install and uninstall are reversible."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, info)
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._targets = self._collect_targets()

    @staticmethod
    def _collect_targets() -> dict[int, tuple[object, str]]:
        """Map id(original callable) -> (original, span name)."""
        targets: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kerrsteady.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not name.startswith("_"):
                    targets[id(obj)] = (obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in vars(obj).items():
                        if inspect.isfunction(member) and not attr.startswith("_"):
                            targets[id(member)] = (member, f"{layer}.{name}.{attr}")
            for name in _EXTRA.get(layer, ()):
                obj = getattr(module, name)
                targets[id(obj)] = (obj, f"{layer}.{name}")
        return targets

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, type(exc).__name__)
                raise
            end = clock()
            stack.pop()
            spans[index] = (name, start, end, parent,
                            info(args, kwargs, result) if info else None)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in self._targets.items()}
        owners = [m for n, m in list(sys.modules.items())
                  if n == "kerrsteady" or n.startswith("kerrsteady.")]
        owners += [obj for m in owners for obj in vars(m).values()
                   if inspect.isclass(obj) and obj.__module__.startswith("kerrsteady")]
        seen = set()
        for owner in owners:
            if id(owner) in seen:
                continue
            seen.add(id(owner))
            for attr, value in list(vars(owner).items()):
                if id(value) in wrappers and value is self._targets[id(value)][0]:
                    self._patches.append((owner, attr, value))
                    setattr(owner, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ------------------------------------------------------- derived metrics


def _spot_gap(params, betas) -> float:
    """Largest relative gap of the closed form's own spot check."""
    from kerrsteady.exact_twophoton import _XCHECK_AMP_FLOOR, _XCHECK_MAX_INDEX, \
        _recursion_amplitudes

    top = min(len(betas) - 1, _XCHECK_MAX_INDEX)
    reference, _ = _recursion_amplitudes(params, 0.0, top, top)
    peak = max(abs(b) for b in betas[: top + 1])
    gap = 0.0
    for m in range(top + 1):
        if abs(betas[m]) < _XCHECK_AMP_FLOOR * peak:
            continue
        scale = max(abs(betas[m]), abs(reference[m]))
        gap = max(gap, abs(betas[m] - reference[m]) / scale)
    return gap


def layer_metrics(spans: list[tuple], first: int, last: int) -> dict:
    """Per-layer numbers of the spans recorded in [first, last).

    busy_s of a function sums its spans that have no ancestor of the same
    name; a layer's busy_s sums its spans with no ancestor in the layer;
    self_s is a span's duration minus its direct children's durations.
    """
    count: dict[str, int] = {}
    busy: dict[str, float] = {}
    info_sum: dict[str, float] = {}
    info_max: dict[str, float] = {}
    layer_busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    child_time = [0.0] * (last - first)
    ancestry: list[frozenset] = []
    for i in range(first, last):
        name, start, end, parent, _ = spans[i]
        if parent >= first:
            child_time[parent - first] += end - start
            pname = spans[parent][0]
            ancestry.append(ancestry[parent - first] | {pname, pname.split(".")[0]})
        else:
            ancestry.append(frozenset())
    solves = useful = 0
    unknowns = nnz = max_cutoff = 0
    fixed_point = herm = solve_self = 0.0
    for i in range(first, last):
        name, start, end, parent, info = spans[i]
        layer = name.split(".")[0]
        duration = end - start
        seen = ancestry[i - first]
        count[name] = count.get(name, 0) + 1
        if name not in seen:
            busy[name] = busy.get(name, 0.0) + duration
        if layer not in seen:
            layer_busy[layer] = layer_busy.get(layer, 0.0) + duration
        self_time[layer] = self_time.get(layer, 0.0) + duration - child_time[i - first]
        if name == "lindblad_oracle.steady_state" and isinstance(info, tuple):
            cutoff, residual, defect = info
            solves += 1
            unknowns += (cutoff + 1) ** 2
            max_cutoff = max(max_cutoff, cutoff)
            fixed_point, herm = max(fixed_point, residual), max(herm, defect)
            useful += _useful_solve(spans, parent, first, cutoff)
            solve_self += duration - child_time[i - first]
        elif name == "lindblad_oracle.build_liouvillian" and isinstance(info, int):
            nnz += info
        elif name == "exact_twophoton._spot_check_against_recursion" and isinstance(info, tuple):
            gap = _spot_gap(*info)
            info_max[name] = max(info_max.get(name, 0.0), gap)
        elif isinstance(info, (int, float)) and not isinstance(info, bool):
            info_sum[name] = info_sum.get(name, 0.0) + info
            info_max[name] = max(info_max.get(name, 0.0), info)

    def c(name):
        return count.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    wavefunctions = c("exact_linear.wavefunction_linear")
    drive_points = c("exact_linear.exact_drive_point")
    dense = sum(info_sum.get(f"keldysh_ops.{n}", 0.0) for n in (
        "build_generalized_hamiltonian_clq", "build_generalized_hamiltonian_pm",
        "convert_basis", "mixing_unitary"))
    return {
        "specfun.hyp0f2.calls": c("specfun.hyp0f2"),
        "specfun.hyp0f2.terms": int(info_sum.get("specfun.hyp0f2", 0)),
        "specfun.hyp0f2.busy_s": b("specfun.hyp0f2"),
        "specfun.hyp0f2_ratio.calls": c("specfun.hyp0f2_ratio"),
        "specfun.hyp0f2_ratio.busy_s": b("specfun.hyp0f2_ratio"),
        "specfun.pochhammer.calls": c("specfun.pochhammer"),
        "specfun.hyp2f1_terminating.calls": c("specfun.hyp2f1_terminating"),
        "specfun.hyp2f1_terminating.terms": int(info_sum.get("specfun.hyp2f1_terminating", 0)),
        "specfun.hyp2f1_terminating.busy_s": b("specfun.hyp2f1_terminating"),
        "exact_linear.wavefunction_linear.calls": wavefunctions,
        "exact_linear.amplitudes": int(info_sum.get("exact_linear.wavefunction_linear", 0)),
        "exact_linear.builds_per_point": wavefunctions / drive_points if drive_points else 0.0,
        "exact_linear.amplitude_moment.calls": c("exact_linear.amplitude_moment"),
        "exact_linear.amplitude_moment.busy_s": b("exact_linear.amplitude_moment"),
        "exact_linear.self_s": self_time.get("exact_linear", 0.0),
        "exact_linear.xcheck_gap_max": info_max.get("exact_linear.correlation_linear", 0.0),
        "exact_twophoton.wavefunction_twophoton.calls": c("exact_twophoton.wavefunction_twophoton"),
        "exact_twophoton.wavefunction_twophoton.busy_s":
            b("exact_twophoton.wavefunction_twophoton"),
        "exact_twophoton.amplitudes":
            int(info_sum.get("exact_twophoton.wavefunction_twophoton", 0)),
        "exact_twophoton.scan_point.busy_s": b("exact_twophoton.scan_point"),
        "exact_twophoton.self_s": self_time.get("exact_twophoton", 0.0),
        "exact_twophoton.xcheck_gap_max": max(
            info_max.get("exact_twophoton.correlation_twophoton", 0.0),
            info_max.get("exact_twophoton._spot_check_against_recursion", 0.0)),
        "meanfield.photon_number_branches.calls": c("meanfield.photon_number_branches"),
        "meanfield.busy_s": layer_busy.get("meanfield", 0.0),
        "model.busy_s": layer_busy.get("model", 0.0),
        "lindblad_oracle.solves": solves,
        "lindblad_oracle.unknowns": unknowns,
        "lindblad_oracle.nnz": nnz,
        "lindblad_oracle.max_cutoff": max_cutoff,
        "lindblad_oracle.build_liouvillian.busy_s": b("lindblad_oracle.build_liouvillian"),
        "lindblad_oracle.splu.busy_s": b("lindblad_oracle.splu"),
        "lindblad_oracle.validate.busy_s": b("lindblad_oracle.DensityMatrix.validate"),
        "lindblad_oracle.steady_state.self_s": solve_self,
        "lindblad_oracle.useful_solve_frac": useful / solves if solves else 0.0,
        "lindblad_oracle.fixed_point_residual_max": fixed_point,
        "lindblad_oracle.herm_defect_max": herm,
        "keldysh_ops.build_clq.busy_s": b("keldysh_ops.build_generalized_hamiltonian_clq"),
        "keldysh_ops.build_pm.busy_s": b("keldysh_ops.build_generalized_hamiltonian_pm"),
        "keldysh_ops.mixing_unitary.busy_s": b("keldysh_ops.mixing_unitary"),
        "keldysh_ops.convert_basis.busy_s": b("keldysh_ops.convert_basis"),
        "keldysh_ops.steady_residual.busy_s": b("keldysh_ops.steady_residual"),
        "keldysh_ops.dense_bytes": int(dense),
        "keldysh_ops.residual_rel_max": info_max.get("keldysh_ops.steady_residual", 0.0),
        "cli.self_s": self_time.get("cli", 0.0),
    }


def _useful_solve(spans, parent: int, first: int, cutoff: int) -> int:
    """1 if this solve was the certified cutoff or its doubling check."""
    while parent >= first:
        name, _, _, grand, info = spans[parent]
        if name == "lindblad_oracle.adaptive_cutoff":
            return int(isinstance(info, int) and cutoff in (info, 2 * info))
        parent = grand
    return 1
