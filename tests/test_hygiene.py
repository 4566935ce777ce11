"""Code that only its own unit test calls is deleted, or kept with a
stated reason: every module-level function, class and constant of
src/gradcodec must be named somewhere outside its own definition in
src, scripts or perfbench."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradcodec"
USERS = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
         *sorted((ROOT / "perfbench").glob("*.py"))]

WORD = re.compile(r"\w+")

# name -> why it stays although no program file names it
KEPT = {
    "serialize_libsvm": "the reference writer of the LIBSVM parser round-trip tests",
}


def _definitions(tree):
    """(name, first line, last line) of each module-level def, class and
    assignment target, decorators included; dunders are protocol names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, first, node.end_lineno


def unused_names():
    """'module.py:name' of each definition named nowhere else; a name
    counts as a whole word (a regex \\b...\\b match), so every word of
    every file is counted once and the definition's own words subtracted."""
    texts = {path: path.read_text(encoding="utf-8") for path in USERS}
    uses = Counter(word for text in texts.values() for word in WORD.findall(text))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = texts[path].splitlines()
        for name, first, last in _definitions(ast.parse(texts[path])):
            own = sum(WORD.findall(line).count(name) for line in lines[first - 1:last])
            if uses[name] == own:
                unused.append(f"{path.name}:{name}")
    return unused


def test_every_module_level_name_is_used_or_kept():
    unused = [entry for entry in unused_names() if entry.split(":")[1] not in KEPT]
    assert unused == []


def test_every_kept_name_still_exists_unused():
    assert sorted(entry.split(":")[1] for entry in unused_names()) == sorted(KEPT)
