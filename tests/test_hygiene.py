"""Dead-code guards over ``src/evcop``, read from the syntax tree only.

An import nothing reads, or a private module-level name nothing refers to,
is code that no caller runs.
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
