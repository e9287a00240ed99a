import ast
import dataclasses
import graphlib
import inspect
from pathlib import Path

import pytest

import boundarylab
from boundarylab import GridPlane, ValidationError

_PACKAGE = Path(boundarylab.__file__).parent


def test_star_import_provides_every_export_once():
    namespace = {}
    exec("from boundarylab import *", namespace)
    assert len(set(boundarylab.__all__)) == len(boundarylab.__all__)
    assert set(boundarylab.__all__) <= set(namespace)


def _package_imports(path):
    """(module, inside a function) for each boundarylab module the file imports."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                parts = ("." * child.level + (child.module or "")).split(".")
                if child.level == 1 or parts[0] == "boundarylab":
                    rest = [p for p in parts[1:] if p]
                    names = rest[:1] or [alias.name for alias in child.names]
                    found.extend((name, in_function) for name in names)
            elif isinstance(child, ast.Import):
                found.extend((alias.name.split(".")[1], in_function) for alias in child.names
                             if alias.name.startswith("boundarylab."))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                             ast.Lambda)))

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


_IMPORTS = {path.stem: _package_imports(path) for path in sorted(_PACKAGE.glob("*.py"))}


def test_the_evaluation_layers_do_not_import_each_other():
    assert {"herglotz", "series"}.isdisjoint(name for name, _ in _IMPORTS["blaschke"])
    assert {"blaschke", "series"}.isdisjoint(name for name, _ in _IMPORTS["herglotz"])


def test_only_cli_defers_an_import_and_the_rest_form_a_dag():
    deferred = {(module, name) for module, found in _IMPORTS.items()
                for name, in_function in found if in_function}
    assert deferred == {("cli", "acceptance")}
    graph = {module: {name for name, _ in found if name != module}
             for module, found in _IMPORTS.items()}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_probes_and_hole_checks_take_no_family_or_strictness_knob():
    for name in ("ApproachPath", "standard_paths", "frostman_terms"):
        assert not hasattr(boundarylab, name) and name not in boundarylab.__all__
    for fn in (boundarylab.limit_probe, boundarylab.is_arakeljan, boundarylab.union_check,
               boundarylab.radial_trace):
        assert {"paths", "probes", "strict"}.isdisjoint(inspect.signature(fn).parameters)
    grid = GridPlane.parse_text("grid 3 3 1\n...\n.#.\n...\n")
    with pytest.raises(ValidationError, match="unknown subject selector"):
        boundarylab.label_components(grid, [grid.subject_mask("F")])


def test_products_certify_against_their_own_tolerance_only():
    assert not hasattr(boundarylab.BlaschkeProduct, "eval_truncated")
    assert "tol" not in inspect.signature(boundarylab.BlaschkeProduct.eval_many).parameters
    assert not hasattr(boundarylab.ZeroSequence, "zeros")
    assert not hasattr(boundarylab.BoundaryFunction, "evaluate")
    fields = {f.name for f in dataclasses.fields(boundarylab.BoundaryScan)}
    assert fields == {"angles", "samples", "modulus_min", "modulus_max"}
