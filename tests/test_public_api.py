"""The package's top-level API is exactly what the README's quick start uses,
plus the result and error types; every other name comes from its submodule.
Every exported name resolves, the benchmark's self-test, which hooks the
package's functions by module attribute, still finds what it needs, and the
package imports nothing outside the standard library."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import iterbayes

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SUBMODULES = ["conjugate", "exact", "identities", "risk", "triangle", "types"]
PYPROJECT = ROOT / "pyproject.toml"


def quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    namespace = {}
    exec(compile(quick_start_code(), str(README), "exec"), namespace)
    assert namespace["est"].method == "bisection"
    assert abs(namespace["est"].value - 0.6180339887498949) < 1e-13


def test_top_level_names():
    assert set(iterbayes.__all__) == {
        "__version__",
        "BetaPrior",
        "BinomialObs",
        "Characteristic",
        "Estimate",
        "EstimationError",
        "characteristic_limit",
        "fixed_point_iterate",
        "iterate_binomial_characteristic",
        "solve_iterative_bayes",
        "triangle_posterior_mean",
    }
    assert all(hasattr(iterbayes, name) for name in iterbayes.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"iterbayes.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


def test_no_runtime_dependencies():
    # Every import in the package is relative or from the standard library,
    # and the project declares no dependencies.
    outside = []
    for path in sorted((ROOT / "src" / "iterbayes").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
    assert re.search(r"^dependencies = \[\]$", PYPROJECT.read_text(encoding="utf-8"), re.M)


def test_no_unused_imports():
    # Every name a module imports is read in that module or listed in its
    # __all__, so a deletion cannot leave an import behind.
    unused = []
    for path in sorted((ROOT / "src" / "iterbayes").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{path.name}:{node.lineno}: {name}" for name in
                           (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                           if name not in read]
    assert unused == []


def test_every_private_name_is_read():
    # Every private top-level function, class and constant is read somewhere
    # in the package: in its own module outside its own body, by name where
    # a module imports it, or as an attribute of its module; so a deletion
    # cannot leave a dead helper behind.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "iterbayes").glob("*.py"))}
    private, read = set(), set()
    for module, tree in trees.items():
        owner = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
                owner.update((id(inner), node.name) for inner in ast.walk(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            private |= {(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")}
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    read.add(imported[node.id])
                elif owner.get(id(node)) != node.id:
                    read.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                read.add((node.value.id, node.attr))
    assert len(private) > 20
    assert sorted(private - read) == []


# Names kept only because the benchmark wraps or calls them by module
# attribute (ROADMAP item 1 drops them with its hooks), by module.
TRACER_ALIASES = {"risk": {"solve_iterative_bayes"}, "identities": {"sign_at"},
                  "exact": {"sign_at", "eval_rational"}}


def test_tracer_only_aliases_are_never_read():
    # No package function reads a tracer-only name: not by its bare name in
    # its own module or where a module imports it by name, nor as an
    # attribute of its module elsewhere.
    from iterbayes import exact, identities, risk, triangle
    assert risk.solve_iterative_bayes is triangle.solve_iterative_bayes
    assert identities.sign_at is exact.sign_at
    reads = []
    for path in sorted((ROOT / "src" / "iterbayes").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bare = set(TRACER_ALIASES.get(path.stem, ()))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                bare |= {alias.asname or alias.name for alias in node.names
                         if alias.name in TRACER_ALIASES.get(node.module, ())}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    hit = node.id in bare
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    hit = node.attr in TRACER_ALIASES.get(node.value.id, ())
                else:
                    continue
                if hit:
                    reads.append(f"{path.name}:{node.lineno}")
    assert reads == []
