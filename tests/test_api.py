"""The package exports only what its commands, scripts and documented API run.

Every name in ``delayedpa.__all__`` and in each module's ``__all__`` must be
read somewhere in ``src/delayedpa`` outside its own definition and outside
the re-exports of ``__init__``, or be named in a fenced code block of
README.md or read by a script under ``scripts/``.  A name that only tests
call belongs in ``tests/oracles.py``, which no package file may mention.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

import delayedpa

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "delayedpa"
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _statements(path):
    """(name defined, names read) for each top-level statement of a file."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        defined = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        read = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        out.append((defined, read))
    return out


def _exports():
    """(module, name) for every name in the package's and its modules' ``__all__``."""
    pairs = [("delayedpa", name) for name in delayedpa.__all__]
    for path in MODULES:
        module = importlib.import_module(f"delayedpa.{path.stem}")
        pairs += [(module.__name__, name) for name in getattr(module, "__all__", ())]
    return pairs


def test_every_exported_name_is_run_outside_the_tests():
    package = [s for path in MODULES for s in _statements(path)]
    scripts = set().union(*(read for p in ROOT.glob("scripts/*.py") for _, read in _statements(p)))
    readme = (ROOT / "README.md").read_text()
    fenced = "\n".join(re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S))

    def used(name):
        return (
            any(name in read for defined, read in package if defined != name)
            or name in scripts
            or re.search(rf"\b{re.escape(name)}\b", fenced) is not None
        )

    unused = sorted({f"{module}.{name}" for module, name in _exports() if not used(name)})
    assert unused == [], f"exported, but only tests reach them (move them to tests/oracles.py): {unused}"


def test_only_the_ledger_module_calls_binary_entropy():
    # the key is priced in one module, so no run grows its own pricing term
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "ledger.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "binary_entropy":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_every_seeded_draw_comes_from_the_stream():
    # NEP 19 keeps PCG64's raw words stable but not Generator's methods, and
    # a second generator type is a second stream: np.random is reached only
    # in stream.py, for PCG64 and the one Generator whose normal it calls,
    # and the random module only for cli's fresh seed
    allowed = {
        "stream.py": {"np.random.PCG64", "np.random.Generator"},
        "cli.py": {"random", "random.SystemRandom"},
    }
    generator_methods = {m for m in dir(np.random.Generator) if not m.startswith("_")} - {"normal"}
    found, normals = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        ok = allowed.get(path.name, set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name in ("random", "numpy.random")]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names
                         if node.module in ("random", "numpy.random") or f"{node.module}.{a.name}" == "numpy.random"]
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("random", "np.random", "numpy.random"):
                names = [f"{ast.unparse(node.value)}.{node.attr}".replace("numpy.", "np.")]
            elif path.name == "stream.py" and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                names = [f"Generator.{node.func.attr}"] if node.func.attr in generator_methods else []
                normals += node.func.attr == "normal"
            else:
                names = []
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name not in ok]
    assert found == []
    assert normals == 1


def test_no_package_file_mentions_the_test_oracles():
    files = [
        p for p in sorted((ROOT / "src").rglob("*"))
        if p.is_file() and "__pycache__" not in p.parts and not any(s.endswith(".egg-info") for s in p.parts)
    ]
    assert files
    assert [str(p.relative_to(ROOT)) for p in files if "oracles" in p.read_text()] == []
