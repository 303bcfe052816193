"""Every module-level function and class of the package has a use.

A name defined at module level in ``src/driftflow`` must appear, as a whole
word, at least twice across the package sources, the demos and the benchmark
harness: once for its definition and at least once more.  ``__init__.py``
is skipped on both sides, since re-exporting a name is not a use of it, and
tests do not count, since a name only tests reach is dead program code."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "driftflow"


def _sources():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return files + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_module_level_definition_is_used():
    texts = [p.read_text() for p in _sources()]
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                word = re.compile(rf"\b{re.escape(node.name)}\b")
                if sum(len(word.findall(t)) for t in texts) < 2:
                    dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert dead == [], f"defined but never used: {dead}"
