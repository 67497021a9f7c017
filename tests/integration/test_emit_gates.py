"""Every emit site tests its own kind.

An instrumentation site builds its event's payload only when somebody
wants that kind (:mod:`repro.obs.events`): ``bus.active`` is the set of
wanted kinds, so the site reads ::

    if bus.active and EventKind.X in bus.active:
        bus.emit(EventKind.X, ...)

A site gated on plain ``bus.active`` would build its payload whenever
anybody subscribes to anything — a flight recorder watching for a few
kinds, say — and cost the run the work nobody reads.  This scan
fails, naming the site, on any ``emit`` of ``EventKind.X`` in the
package that is not in the body of an ``if`` whose test is
``EventKind.X in <...>.active`` (alone or as an ``and`` operand).
"""

import ast
import pathlib

import repro
from repro.obs.events import EventKind

SOURCE_ROOT = pathlib.Path(repro.__file__).parent


def _kind(node):
    """``X`` for an ``EventKind.X`` expression, else ``None``."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "EventKind"):
        return node.attr
    return None


def _is_emit(node):
    """A call of ``<bus>.emit`` (a receiver named ``bus``/``events``, or
    any ``.emit`` whose first argument is an ``EventKind``)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"):
        return False
    receiver = node.func.value
    name = getattr(receiver, "id", getattr(receiver, "attr", None))
    return (name in ("bus", "events")
            or bool(node.args) and _kind(node.args[0]) is not None)


def _gates(test):
    """The kinds an ``if`` test requires wanted: ``EventKind.X in
    <...>.active``, the whole test or an operand of its ``and``."""
    terms = (test.values if isinstance(test, ast.BoolOp)
             and isinstance(test.op, ast.And) else [test])
    return {_kind(term.left) for term in terms
            if isinstance(term, ast.Compare) and len(term.ops) == 1
            and isinstance(term.ops[0], ast.In)
            and _kind(term.left) is not None
            and isinstance(term.comparators[0], ast.Attribute)
            and term.comparators[0].attr == "active"}


def emit_sites(root=SOURCE_ROOT):
    """``(site, kind, gated)`` for every emit call under ``root``;
    ``site`` is ``path:line`` and ``kind`` the ``EventKind`` member
    name (``None`` when the first argument is not ``EventKind.X``)."""
    sites = []

    def visit(node, gates, path):
        for field, value in ast.iter_fields(node):
            inner = gates
            if isinstance(node, ast.If) and field == "body":
                inner = gates | _gates(node.test)
            for child in value if isinstance(value, list) else [value]:
                if not isinstance(child, ast.AST):
                    continue
                if _is_emit(child):
                    kind = _kind(child.args[0]) if child.args else None
                    sites.append(("%s:%d" % (path, child.lineno), kind,
                                  kind is not None and kind in inner))
                visit(child, inner, path)

    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        visit(tree, frozenset(), path.relative_to(root.parent))
    return sites


def ungated_emits(root=SOURCE_ROOT):
    """``path:line EventKind.X`` of every emit not under its own test
    (``path:line computed kind`` when no test can name it)."""
    return ["%s %s" % (site, "EventKind." + kind if kind else "computed kind")
            for site, kind, gated in emit_sites(root) if not gated]


def test_every_emit_tests_its_own_kind():
    assert ungated_emits() == []


def test_the_scan_sees_a_site_for_every_kind():
    kinds = {kind for _, kind, _ in emit_sites()}
    assert kinds == {kind.name for kind in EventKind}


def test_the_scan_names_each_kind_of_bad_site(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "sites.py").write_text(
        "def sites(bus, cpu, events):\n"
        "    if bus.active and EventKind.TRAP_ENTER in bus.active:\n"
        "        bus.emit(EventKind.TRAP_ENTER, 0, 0)\n"          # good
        "    if bus.active:\n"
        "        if EventKind.NET_SEND in bus.active:\n"
        "            bus.emit(EventKind.NET_SEND, 0, 0)\n"        # good
        "        bus.emit(EventKind.NET_DELIVER, 0, 0)\n"         # 7
        "    if EventKind.TRAP_EXIT in bus.active:\n"
        "        cpu.events.emit(EventKind.THREAD_LOAD, 0, 0)\n"  # 9
        "    else:\n"
        "        bus.emit(EventKind.TRAP_EXIT, 0, 0)\n"           # 11
        "    if bus.active or EventKind.THREAD_EXIT in bus.active:\n"
        "        bus.emit(EventKind.THREAD_EXIT, 0, 0)\n"         # 13
        "    if EventKind.THREAD_WAKE in bus.active:\n"
        "        events.emit(kind, 0, 0)\n"                       # 15
        "    self.emit('nop')\n")                                 # not one
    assert ungated_emits(package) == [
        "pkg/sites.py:7 EventKind.NET_DELIVER",
        "pkg/sites.py:9 EventKind.THREAD_LOAD",
        "pkg/sites.py:11 EventKind.TRAP_EXIT",
        "pkg/sites.py:13 EventKind.THREAD_EXIT",
        "pkg/sites.py:15 computed kind"]
