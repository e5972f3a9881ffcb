"""Floats never decide a result: the package source calls no float, complex
or round and holds no float or complex literal."""

import ast
import glob
import os

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "src", "qclifford", "*.py")))
BANNED_CALLS = {"float", "complex", "round"}


def _inexact(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in BANNED_CALLS):
            yield node.lineno, f"{node.func.id}()"
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, repr(node.value)


def test_sources_found():
    assert any(path.endswith("poly.py") for path in SOURCES)


def test_no_float_in_the_package():
    found = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        found += [f"{os.path.basename(path)}:{line}: {what}" for line, what in _inexact(tree)]
    assert found == []


def test_the_check_sees_floats():
    tree = ast.parse("x = round(float(y), 9) + complex(1, 2) * 0.5 + 2j")
    assert sorted(what for _, what in _inexact(tree)) == \
        ["0.5", "2j", "complex()", "float()", "round()"]
