"""Every public name of the package is read by something.

A public module-level function or class, or a public method of one, is
reached when package code outside its own definition names it: as a
name, an attribute or an import.  Only the syntax tree counts, so a
mention in a string or docstring reaches nothing.  A method counts as
reached when any package code reads an attribute of its name, whatever
the object.  The names nothing in the package reaches are those the
command line cannot run; each must be listed in KEPT with the reason it
stays public, and a helper only unit tests call belongs in
`tests/_support.py` instead.
"""

import ast
from collections import Counter
from pathlib import Path

import brwre

KEPT = {
    "environment.EnvironmentField.from_index_function":
        "test fake: an environment from any site -> law index function",
    "environment.is_delta_aperiodic":
        "awaiting its CLI path: the shape theorem's delta-aperiodicity",
    "expectation.check_anderson_equation": "acceptance criterion 09",
    "expectation.read_layer_binary": "reads back the layer `solve` writes",
    "expectation.read_layer_csv": "reads back the layer `solve` writes",
    "growth.beta_estimate": "acceptance criteria 01 and 04",
    "montecarlo.induced_walk_step": "acceptance criterion 12",
    "montecarlo.sample_induced_direct": "acceptance criterion 12",
    "shape.PassageTimeMap.reached": "W(n) of the shape theorem",
    "shape.hausdorff_l1": "acceptance criterion 08",
}


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under `node`."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.split(".")[-1]] += 1
    return out


def _public_definitions(tree: ast.Module):
    """The public functions and classes of a module, and the public
    methods of its public classes, as (dotted name, node)."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                and not top.name.startswith("_"):
            yield top.name, top
            for sub in top.body if isinstance(top, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{top.name}.{sub.name}", sub


def _unreached() -> set[str]:
    package = Path(brwre.__file__).parent
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(package.glob("*.py"))}
    reads = sum(map(_reads, modules.values()), Counter())
    # reached: read more often in the package than inside its own definition
    return {f"{mod}.{dotted}" for mod, tree in modules.items()
            for dotted, node in _public_definitions(tree)
            if reads[node.name] == _reads(node)[node.name]}


def test_every_unreached_public_name_has_a_reason():
    assert _unreached() == set(KEPT)
    assert all(reason.strip() for reason in KEPT.values())
