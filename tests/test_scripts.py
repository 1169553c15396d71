"""Smoke tests for the tooling around the package.

Each script in scripts/ runs on small arguments and prints its summary,
every name the benchmark's traced run wraps still exists in src/, no
module in src/ relies on a bare assert, and every name the package exports
has a reader outside the tests.
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, last_line",
    [
        (
            "theta_kernel_probe.py",
            ["--q", "7", "--p", "3", "--r", "5"],
            "least k with exponent | n^k  = 1  (n^k = 15)",
        ),
    ],
)
def test_script_runs(script, args, last_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line


def test_benchmark_trace_targets_exist():
    # perfbench/tracer.py is loaded by path and only read: a rename in src/
    # would otherwise break nothing but `perfbench/run.py --trace 1`
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr in tracer.FUNCTIONS.values():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, cls_name, methods in tracer.METHODS.values():
        cls = getattr(importlib.import_module(module), cls_name)
        for meth in methods:
            assert callable(getattr(cls, meth)), (cls_name, meth)
    for module, attr in [
        ("cyclokit.cyclotomic", "cyclotomic"),
        ("cyclokit.finitefield", "make_ext_field"),
        ("cyclokit.torus", "_embedding"),
    ]:
        assert callable(getattr(importlib.import_module(module), attr).cache_info)


def test_no_bare_assert_in_src():
    # invariants raise explicitly, so they still hold under python -O
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "cyclokit").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def _readers(path: pathlib.Path) -> set[str]:
    """Names a module reads by Name or Attribute, outside the definition of the same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        if isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return found


def test_public_api_has_a_reader_outside_tests():
    # no public API that only the tests use: every name the package exports
    # is read in src/, scripts/ or perfbench/, or imported by the README example
    init = ROOT / "src" / "cyclokit" / "__init__.py"
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = [p for p in (ROOT / "src" / "cyclokit").rglob("*.py") if p != init]
    sources += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    read = set().union(*map(_readers, sources))
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    for node in ast.walk(ast.parse(example)):
        if isinstance(node, ast.ImportFrom) and node.module == "cyclokit":
            read.update(alias.name for alias in node.names)
    assert exported, "no names found in cyclokit/__init__.py"
    assert sorted(exported - read) == []
