"""The package's immutable records: frozen fields, construction by position and by name,
value or identity equality, pickling; and fresh imports that load only the submodules they use, and
neither dataclasses nor inspect."""

import ast
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

import cyclokit
from cyclokit import torus
from cyclokit.cyclotomic import PrimePair
from cyclokit.finitefield import make_ext_field, random_nonzero
from cyclokit.intpoly import IntPoly, ScaledPoly
from cyclokit.inverses import verify_closed_forms

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _params():
    return torus.derive_params(5, 2, 3)


def _components():
    x = random_nonzero(make_ext_field(5, 6), random.Random(3))
    return torus.decompose(x, _params())


# one instance of each record class, built through the public paths, and a field of it
RECORDS = {
    "IntPoly": (lambda: IntPoly((1, 2)), "coeffs"),
    "ScaledPoly": (lambda: ScaledPoly(IntPoly((1, 2)), 3), "den"),
    "PrimePair": (lambda: PrimePair(3, 5), "p"),
    "InverseReport": (lambda: verify_closed_forms(PrimePair(2, 3))[0], "case_id"),
    "ExtFieldElement": (lambda: make_ext_field(5, 2).element((1,)), "packed"),
    "BezoutExponents": (lambda: torus.derive_exponent_polys(2, 3), "v1"),
    "TorusParams": (_params, "orders"),
    "TorusComponents": (_components, "tpr"),
    "KernelReport": (lambda: torus.kernel_annihilator(_params()), "power"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    build, field = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize(
    "name", ["IntPoly", "ScaledPoly", "PrimePair", "ExtFieldElement", "TorusComponents", "KernelReport"]
)
def test_value_equality_and_hash(name):
    build, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object()


def test_equality_needs_the_same_class():
    assert IntPoly((1,)) != ScaledPoly(IntPoly((1,)))
    assert ScaledPoly(IntPoly((1,))) != IntPoly((1,))
    assert IntPoly((1, 2)) != IntPoly((1, 3))
    assert PrimePair(3, 5) != PrimePair(5, 3)
    assert IntPoly((1,)).__eq__((1,)) is NotImplemented


def test_torus_params_compare_by_identity():
    a, b = _params(), _params()
    assert a != b and a == a
    assert (a.q, a.pair, a.exps, a.orders) == (b.q, b.pair, b.exps, b.orders)
    assert len({a, b}) == 2


@pytest.mark.parametrize("name", ["IntPoly", "ScaledPoly", "PrimePair"])
def test_pickle_round_trip(name):
    build, _ = RECORDS[name]
    record = build()
    again = pickle.loads(pickle.dumps(record))
    assert again == record and type(again) is type(record)


def test_repr_names_the_fields():
    assert repr(PrimePair(3, 5)) == "PrimePair(p=3, r=5)"
    assert repr(ScaledPoly(IntPoly((1, 1)), 3)) == "ScaledPoly(num=IntPoly(coeffs=(1, 1)), den=3)"


def test_constructors_keep_their_parameters():
    assert IntPoly() == IntPoly(()) == IntPoly(coeffs=[0, 0])
    assert ScaledPoly(IntPoly((2,))) == ScaledPoly(num=IntPoly((2,)), den=1)
    assert ScaledPoly(IntPoly((2, 4)), -6) == ScaledPoly(IntPoly((-1, -2)), 3)
    assert PrimePair(p=2, r=3) == PrimePair.of(2, 3)
    with pytest.raises(ValueError):
        PrimePair(3, 3)
    # the records without a constructor of their own take _Record's: by position, then by name
    for name in ("InverseReport", "ExtFieldElement", "BezoutExponents", "TorusParams", "TorusComponents",
                 "KernelReport"):
        record = RECORDS[name][0]()
        cls, fields = type(record), vars(record)
        values = list(fields.values())
        by_position, by_name = cls(*values), cls(**fields)
        assert list(fields) == list(cls._fields), name
        assert vars(by_position) == vars(by_name) == fields, name
        for args, named in (
            (values[:-1], {}),  # the last field missing
            ((), dict(list(fields.items())[1:])),  # the first field missing, the rest by name
            (values, {"not_a_field": 1}),  # an unknown field
            (values[:1], fields),  # the first field by position and by name
            (values + [1], {}),  # a value past the last field
        ):
            with pytest.raises(TypeError):
                cls(*args, **named)
    # the constructors that write the instance dict themselves: the fields in order, and the
    # value and hash of the same record built through the public constructor
    for built, public in (
        (IntPoly._of([1, 2, 0]), IntPoly((1, 2))),
        (IntPoly.one(), IntPoly((1,))),
        (IntPoly.monomial(3), IntPoly((0, 0, 0, 1))),
        (ScaledPoly(IntPoly((2, 4)), -6), ScaledPoly(num=IntPoly((-1, -2)), den=3)),
        (PrimePair(3, 5), PrimePair(p=3, r=5)),
    ):
        assert list(vars(built)) == list(type(built)._fields), built
        assert built == public and hash(built) == hash(public), built


# submodule -> the submodules that importing it loads: a cold command pays for each
LOADS = {
    "intpoly": {"intpoly"},
    "cyclotomic": {"cyclotomic", "intpoly"},
    "finitefield": {"finitefield", "cyclotomic", "intpoly"},
    "inverses": {"inverses", "cyclotomic", "intpoly"},
    "torus": {"torus", "finitefield", "inverses", "cyclotomic", "intpoly"},
    "cli": {"cli", "cyclotomic", "intpoly"},  # the rest load in the commands that run them
}


def _import_cases():
    """(statement, submodules it loads): the package alone, the CLI, each library module
    by name, as an attribute of the package, and through its exported names."""
    yield "import cyclokit", set()
    yield "import cyclokit.cli", LOADS["cli"]
    yield "import cyclokit.cyclotomic", LOADS["cyclotomic"]
    for module in sorted(set(cyclokit._EXPORTS.values())):
        yield f"import cyclokit; cyclokit.{module}", LOADS[module]
        names = ", ".join(name for name, home in cyclokit._EXPORTS.items() if home == module)
        yield f"from cyclokit import {names}", LOADS[module]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for statement, expected in _import_cases():
        proc = subprocess.run(
            [sys.executable, "-c", f"{statement}; import sys; print(sorted(sys.modules))"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, (statement, proc.stderr)
        loaded = set(ast.literal_eval(proc.stdout))
        package = {name for name in loaded if name.partition(".")[0] == "cyclokit"}
        assert package == {"cyclokit", *(f"cyclokit.{m}" for m in expected)}, statement
        assert not loaded & {"dataclasses", "inspect"}, statement


def test_no_dataclass_in_src():
    found = [
        path.name
        for path in sorted((ROOT / "src" / "cyclokit").glob("*.py"))
        if "dataclass" in path.read_text()
    ]
    assert found == []
