"""Guards over ``src/evcop``, read from the syntax tree only.

An import nothing reads, or a private module-level name nothing refers to,
is code that no caller runs.  A field read by a builtin converter, or a
``.get`` read through ``bool``, takes ``true`` for 1 and ``"false"`` for
true: every outside value is read by a reader of ``evcop.errors``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "evcop"


def _modules():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        yield path, text.splitlines(), ast.parse(text)


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _referenced(tree) -> set[str]:
    """Names read anywhere in a module, as names, attributes or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_import_is_used():
    unused = []
    for path, lines, tree in _modules():
        if path.name == "__init__.py":
            continue  # the package namespace re-exports by import
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}: {name}")
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_private_module_name_is_referenced():
    modules = list(_modules())
    referenced = set().union(*(_referenced(tree) for _, _, tree in modules))
    dead = []
    for path, _, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [(node.name, node.lineno)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                defined = [(n.id, node.lineno) for t in targets
                           for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{path.name}:{line}: {name}" for name, line in defined
                     if name.startswith("_") and not name.startswith("__")
                     and name not in referenced]
    assert not dead, "unreferenced private names: " + ", ".join(dead)


def _calls(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def test_fields_are_read_by_the_input_readers():
    loose = []
    for path, _, tree in _modules():
        for call in _calls(tree, "read_field"):
            convert = call.args[2:3] + [k.value for k in call.keywords
                                        if k.arg == "convert"]
            if any(isinstance(c, ast.Name) and c.id in ("float", "int", "bool")
                   for c in convert):
                loose.append(f"{path.name}:{call.lineno}: read_field "
                             f"through {convert[0].id}")
        for call in _calls(tree, "bool"):
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "get"
                   for arg in call.args for n in ast.walk(arg)):
                loose.append(f"{path.name}:{call.lineno}: bool of a .get")
    assert not loose, "fields read without their reader: " + ", ".join(loose)
