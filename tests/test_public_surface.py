"""The public surface: what the README shows runs, and every name earns its place.

The README's library example is a doctest, so it cannot name a function
the package no longer has.  Every name in `kerrsteady.__all__` must be
used somewhere in the package itself, or be listed below with the reason
it stays; a name only the tests call is test code.
"""

import ast
import doctest
import pathlib

import kerrsteady

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path(kerrsteady.__file__).resolve().parent

# public names with no caller in the package, and why each stays
KEPT = {
    "bistable_window": "ROADMAP item 12: the window of items 5 and 6",
    "photon_number_twophoton": "ROADMAP item 12",
    "resonance_predictions": "ROADMAP item 12: acceptance criterion 3 and item 9",
    "resonance_scan": "ROADMAP item 12: the library form of the command",
    "build_generalized_hamiltonian_pm": "perfbench/workloads.py imports it; item 10 waits on item 7",
    "convert_basis": "perfbench/workloads.py imports it; item 10 waits on item 7",
    "wavefunction_via_three_term": "perfbench/workloads.py imports it; item 10 waits on item 7",
}


def names_used_in_package():
    """Every loaded Name and every Attribute name in the modules, __init__ left out."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_readme_library_example_runs():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_every_public_name_has_a_caller_or_a_reason():
    unused = set(kerrsteady.__all__) - names_used_in_package()
    assert sorted(unused - set(KEPT)) == []


def test_every_kept_name_still_needs_its_reason():
    # a kept name that gained a caller, or left the package, leaves the list
    unused = set(kerrsteady.__all__) - names_used_in_package()
    assert sorted(set(KEPT) - unused) == []
