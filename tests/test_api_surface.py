"""Every definition under ``src/palrich/`` is reachable from a command,
and every field it stores is read.

The roots are ``palrich.cli.main`` and every identifier-shaped string
constant of ``perfbench/tracing.py``, which binds package functions by
name.  Module-level statements and dunder methods count as live.  A live
name makes live every top-level definition and every method of that name,
and the names read inside a live definition (``ast.Name`` ids and
``ast.Attribute`` attributes) are live in turn, up to a fixed point.

Matching by name over-approximates liveness: a name that is used anywhere
live keeps every definition of that name.  So the test never flags code that
a command runs; what it flags is an API that nothing calls.

A field is a record field (an annotated name in the body of a dataclass or
of a ``NamedTuple`` class) or an attribute that a method stores on
``self``.  It is read when ``.name`` appears in load context somewhere in
``src/palrich/`` or ``perfbench/tracing.py``; a field that is only stored
is state that no command reads.  Matching by name over-approximates here
too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "palrich"
TRACING = ROOT / "perfbench" / "tracing.py"


def _names_in(nodes) -> set[str]:
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _definitions():
    """(qualified name, name, names read) per top-level definition and method.

    A class reads the names of its body apart from its methods, which are
    definitions of their own.  Also returns the names read by module-level
    statements and by dunder methods, which are live whatever calls them.
    """
    defs = []
    always_live: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not _is_def(node):
                always_live |= _names_in([node])
                continue
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if _is_def(n)]
                rest = [n for n in node.body if not _is_def(n)]
                defs.append((f"{module}.{node.name}", node.name,
                             _names_in(rest + node.bases + node.decorator_list)))
                for m in methods:
                    qualified = f"{module}.{node.name}.{m.name}"
                    if m.name.startswith("__") and m.name.endswith("__"):
                        always_live |= _names_in([m])
                    else:
                        defs.append((qualified, m.name, _names_in([m])))
            else:
                defs.append((f"{module}.{node.name}", node.name, _names_in([node])))
    return defs, always_live


def _tracer_names() -> set[str]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    }


def unreachable_definitions() -> list[str]:
    defs, always_live = _definitions()
    live = {"main"} | _tracer_names() | always_live
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qualified, name, reads in defs:
            if qualified not in reached and name in live:
                reached.add(qualified)
                live |= reads
                grew = True
    return sorted(q for q, _, _ in defs if q not in reached)


def test_every_definition_is_reachable_from_a_command():
    unreachable = unreachable_definitions()
    assert not unreachable, (
        f"{len(unreachable)} definitions under src/palrich/ are reachable "
        "neither from palrich.cli.main nor from a name that "
        "perfbench/tracing.py binds: " + ", ".join(unreachable)
    )


def test_the_scan_sees_the_command_routes():
    # A scan that reached nothing would pass vacuously; the command entry
    # point and a tracer-bound name must both be found as definitions.
    defs, _ = _definitions()
    qualified = {q for q, _, _ in defs}
    assert {"cli.main", "factors.stabilized_prefix", "rauzy.build_rauzy"} <= qualified


# Fields that only the tests read.  The last one stays in src/ because
# perfbench/tracing.py binds stabilized_prefix by name; it leaves src/ with
# stabilized_prefix under ROADMAP item 3's benchmark change.
UNREAD_ALLOWED = {
    "factors.StabilizedPrefix.stable_lengths",
}


def _name(node) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass, or a class whose bases include ``NamedTuple``."""
    for dec in node.decorator_list:
        if _name(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass":
            return True
    return any(_name(base) == "NamedTuple" for base in node.bases)


def _fields(module: str, node: ast.ClassDef) -> set[str]:
    """Qualified names of the fields of one class."""
    names = set()
    if _is_record(node):
        names |= {
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        }
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            names.add(sub.attr)
    return {f"{module}.{node.name}.{name}" for name in names}


def unread_fields() -> list[str]:
    fields = set()
    read = set()
    for path in [*sorted(PACKAGE.glob("*.py")), TRACING]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent == PACKAGE:
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    fields |= _fields(path.stem, node)
        read |= {
            sub.attr
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        }
    return sorted(q for q in fields if q.rsplit(".", 1)[1] not in read)


def test_every_field_is_read():
    unread = [q for q in unread_fields() if q not in UNREAD_ALLOWED]
    assert not unread, (
        f"{len(unread)} fields under src/palrich/ are stored but never read "
        "in src/palrich/ or perfbench/tracing.py: " + ", ".join(unread)
    )


def test_the_field_scan_sees_fields():
    # The allowlisted fields are unread, so a scan that found no fields (or
    # read every name) would fail here instead of passing vacuously.
    assert UNREAD_ALLOWED <= set(unread_fields())
