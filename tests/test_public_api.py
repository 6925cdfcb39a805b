"""The package's public surface: every exported name resolves, the package
exports exactly what its __init__ imports, the call sites the benchmark's
tracer wraps stay where it looks them up, and README's examples run."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import divergeflow

# every module that declares __all__ (cli exports only its entry point)
MODULES = (
    "divergeflow",
    "divergeflow.config",
    "divergeflow.ctm",
    "divergeflow.fundamental_diagram",
    "divergeflow.harness",
    "divergeflow.oracle",
    "divergeflow.riemann",
    "divergeflow.supply_demand",
    "divergeflow.waves",
)

# (module, class or None, attribute) that perfbench/spans.py replaces through
# owner.__dict__[attr]: each must be the owner's own attribute, or a traced
# run fails with a KeyError.
TRACED = (
    ("divergeflow.fundamental_diagram", "FundamentalDiagram", "demand"),
    ("divergeflow.fundamental_diagram", "FundamentalDiagram", "supply"),
    ("divergeflow.fundamental_diagram", "FundamentalDiagram", "density_from_state"),
    ("divergeflow.fundamental_diagram", "FundamentalDiagram", "__post_init__"),
    ("divergeflow.ctm", None, "junction_fluxes"),
    ("divergeflow.ctm", None, "run"),
    ("divergeflow.ctm", None, "solution_difference"),
    ("divergeflow.harness", None, "solve"),
    ("divergeflow.harness", None, "solve_fluxes"),
    ("divergeflow.harness", None, "brute_force_fluxes"),
    ("divergeflow.waves", None, "link_waves"),
    ("divergeflow.cli", None, "riemann_verify"),
    ("divergeflow.cli", None, "convergence_study"),
    ("divergeflow.cli", None, "flux_map"),
    ("divergeflow.cli", None, "property_suite"),
)


@pytest.mark.parametrize("module, owner, attr", TRACED, ids=lambda v: v or "module")
def test_traced_call_sites_are_their_owners_own_attributes(module, owner, attr):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    assert attr in vars(target)
    assert callable(vars(target)[attr])


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names)), "a name is listed twice"
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse(Path(divergeflow.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert sorted(imported) == sorted(divergeflow.__all__)


def test_readme_examples_run_and_give_the_values_their_comments_state():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    assert namespace["sol"].fluxes == pytest.approx((0.2804, 0.1963, 0.0841), abs=1e-4)
    assert namespace["traj"].densities[-1, 0, -1] == pytest.approx(0.8555, abs=1e-4)
    assert namespace["batch"].row(0) == namespace["solve"](namespace["lebacque"]((0.7, 0.3)), namespace["inp"])
