"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rankcrypt"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_unreferenced_private_definitions():
    """Every private function, method or class defined in the package is
    referenced somewhere in it, by name, attribute or import."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
    assert not unused, "private definitions never referenced: " + ", ".join(unused)


def test_no_unreferenced_module_imports():
    """Every name a module imports at module level is used in that module
    (or listed in its __all__); __future__ imports are exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported: dict[str, int] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:  # names re-exported through __all__
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, "module-level imports never used: " + ", ".join(sorted(unused))


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Public definitions that nothing in the package calls, each kept for the
# section of the README or the acceptance criterion named beside it.
_PUBLIC_API = {
    "closure": "criterion 9 (closure identities); README, Public API",
    "LinPoly.evaluate": "criterion 9 (skew ring); README, Public API",
    "LinPoly.monomial": "README, Public API (the LinPoly ring)",
    "FieldCtx.power": "README, Public API",
    "Code.contains": "README, Public API (codeword membership)",
    "solve_left": "perfbench/spans.py wraps it for --trace 1; "
    "test_plan_readout_matches_solve_left checks plans against it",
}


def test_no_unreferenced_public_definitions():
    """Every public top-level function or class, and every public method,
    is referenced somewhere in the package other than by its own
    definition, or is listed in _PUBLIC_API with the reason it stays."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for qualname, sub in [(node.name, node)] + [
                (f"{node.name}.{m.name}", m) for m in members if isinstance(m, _DEFS)
            ]:
                if not sub.name.startswith("_"):
                    defined[qualname] = f"{path.name}:{sub.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = sorted(
        f"{where} {qualname}" for qualname, where in defined.items()
        if qualname.rsplit(".", 1)[-1] not in used and qualname not in _PUBLIC_API
    )
    assert not unused, "public definitions never referenced: " + ", ".join(unused)
