"""No process-global counters in the simulator.

A counter at module or class level numbers things across every run in
the process, so what a run prints or stores would depend on what ran
before it.  Whatever a run numbers (threads, labels, connections) is
numbered by the object that creates it: a counter built in a function
body — ``self._ids = itertools.count(1)`` in an ``__init__`` — is
legal; one built at module or class level is not.
"""

import ast
import pathlib

import repro

SOURCE_ROOT = pathlib.Path(repro.__file__).parent


def _is_count_call(node, count_names):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (func.attr == "count" and isinstance(func.value, ast.Name)
                and func.value.id == "itertools")
    return isinstance(func, ast.Name) and func.id in count_names


def _count_names(tree):
    """Local names bound to ``itertools.count`` by ``from`` imports."""
    return {alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for alias in node.names if alias.name == "count"}


def _static_nodes(node):
    """Every node evaluated at import time: module and class bodies,
    decorators and argument defaults, but no function or lambda body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts = child.decorator_list + [child.args]
        elif isinstance(child, ast.Lambda):
            parts = [child.args]
        else:
            parts = [child]
        for part in parts:
            yield part
            yield from _static_nodes(part)


def process_counters(root=SOURCE_ROOT):
    """``path:line`` of every module- or class-level ``itertools.count``."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = _count_names(tree)
        for node in _static_nodes(tree):
            if _is_count_call(node, names):
                sites.append("%s:%d" % (path.relative_to(root.parent),
                                        node.lineno))
    return sites


def test_no_module_or_class_level_counters():
    assert process_counters() == []


def test_the_scan_finds_each_kind_of_site(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "bad.py").write_text(
        "import itertools\n"
        "from itertools import count as tick\n"
        "_ids = itertools.count(1)\n"
        "class C:\n"
        "    _ids = tick()\n"
        "def f(n=itertools.count()):\n"
        "    return itertools.count()\n"
        "class D:\n"
        "    def __init__(self):\n"
        "        self._ids = itertools.count(1)\n")
    assert process_counters(package) == [
        "pkg/bad.py:3", "pkg/bad.py:5", "pkg/bad.py:6"]
