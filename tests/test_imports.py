"""No dead imports: every name a module imports is used by it or exported in
its `__all__`; `from __future__ import annotations` is exempt."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names imported by `source` that it never reads as a name or an
    attribute base and does not list in `__all__`, in import order."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_scanner_finds_dead_imports():
    source = ("from __future__ import annotations\nimport os, numpy.linalg\n"
              "from a import b as c, d, e\n__all__ = ['d']\nprint(c, numpy.pi)\n")
    assert unused_imports(source) == ["os", "e"]


def test_no_dead_imports():
    files = sorted([*ROOT.glob("src/qclone/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert len(files) > 10
    dead = [(str(f.relative_to(ROOT)), name) for f in files
            for name in unused_imports(f.read_text(encoding="utf-8"))]
    assert dead == []
