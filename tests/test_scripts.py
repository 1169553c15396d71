"""Smoke tests for the tooling around the package.

Every name the benchmark's traced run wraps still exists in src/, no
module in src/ relies on a bare assert or reads __debug__, every name the
package exports and every public attribute of an exported class has a
reader outside the tests, and the README's library example runs.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


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
    # invariants raise explicitly, and nothing reads __debug__, so python -O runs the same
    # code: the pinned commands run under -O only
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "cyclokit").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert not found, found


def _readers(source: str) -> set[str]:
    """Names a source text reads by Name or Attribute, outside the definition of the same name."""
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

    visit(ast.parse(source), frozenset())
    return found


def _readme_example() -> str:
    readme = (ROOT / "README.md").read_text()
    return readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    exec(compile(_readme_example(), "README.md", "exec"), {})


# the package's public names; cyclokit resolves each on first use from its export table
PUBLIC_NAMES = {
    "BezoutExponents", "ExtField", "ExtFieldElement", "IntPoly", "InverseReport", "KernelReport",
    "NotCoprimeError", "PrimePair", "ScaledPoly", "TorusComponents", "TorusMembershipError",
    "TorusParams", "closed_form_i", "closed_form_ii", "closed_form_iii", "closed_form_iv",
    "composite_exponents", "decompose", "derive_exponent_polys", "derive_params",
    "difference_inverse", "divisors", "divrem_exact", "euler_phi", "factorize", "inverse_mod",
    "is_prime", "kernel_annihilator", "lam_leung_phi_pr", "lam_leung_split", "make_ext_field",
    "moebius", "nontrivial_resultant", "primes_upto", "random_nonzero", "recombine", "resultant",
    "resultant_apostol", "subfield_embed", "subfield_extract", "theta", "theta_dimensions",
    "theta_reverse", "torus_membership", "verify_closed_forms", "xgcd_rational",
}


def _exported() -> set[str]:
    return set(importlib.import_module("cyclokit")._EXPORTS)


def _read_outside_tests() -> set[str]:
    """Names read in src/ outside __init__.py, in perfbench/, or by the README example,
    which also reads every name it imports from cyclokit."""
    sources = [p for p in (ROOT / "src" / "cyclokit").rglob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").rglob("*.py")
    example = _readme_example()
    read = set().union(_readers(example), *(_readers(p.read_text()) for p in sources))
    for node in ast.walk(ast.parse(example)):
        if isinstance(node, ast.ImportFrom) and node.module == "cyclokit":
            read.update(alias.name for alias in node.names)
    return read


def test_public_api_has_a_reader_outside_tests():
    # no public API that only the tests use: every name the package exports
    # is read in src/ or perfbench/, or imported by the README example
    exported = _exported()
    assert exported == PUBLIC_NAMES and len(exported) == 46
    assert sorted(exported - _read_outside_tests()) == []


def test_public_class_attributes_have_a_reader_outside_tests():
    # the same rule one level down: every public attribute that an exported
    # class defines (method, property or class attribute) is read by name there
    package = importlib.import_module("cyclokit")  # its __dict__ holds no exported name
    classes = [obj for name in _exported() if isinstance(obj := getattr(package, name), type)]
    assert classes, "no classes among the exported names"
    read = _read_outside_tests()
    unread = {
        f"{cls.__name__}.{attr}"
        for cls in classes
        for attr in vars(cls)
        if not attr.startswith("_") and attr not in read
    }
    assert sorted(unread) == []
