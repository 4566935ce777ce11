"""Code that only its own unit test calls is deleted, or kept with a
stated reason: every module-level function, class and constant of
src/gradcodec must be named somewhere outside its own definition in
src, scripts or perfbench.  Likewise no module-level function only
restates another: none may just pass its own parameters, in order, to
one other callable.  rng.py is the one module that builds a random
generator, so every draw is keyed through its streams.  compressors sums
only through its _dot, so no output depends on the BLAS thread count.
And the package needs numpy alone at run time."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gradcodec"
USERS = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
         *sorted((ROOT / "perfbench").glob("*.py"))]

WORD = re.compile(r"\w+")
# a call that builds a numpy Generator or bit generator
GENERATOR_CALL = re.compile(r"\b(Generator|default_rng|Philox|PCG64|PCG64DXSM|SFC64|MT19937)\(")
# a numpy call whose sum BLAS may order by its thread count
BLAS_SUM_CALL = re.compile(r"\bnp\.(dot|vdot|inner|vecdot|linalg\.norm)\(")

# name -> why it stays although no program file names it
KEPT = {
    "serialize_libsvm": "the reference writer of the LIBSVM parser round-trip tests",
}


# function name -> why it stays although it only forwards its parameters
FORWARDERS_KEPT = {
    "make_operator": "the entry point that the README and perfbench call",
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


def _forwards(node):
    """Whether a def's body, past its docstring, is one call that passes
    the def's own parameters, in order and unchanged, and nothing else."""
    body = node.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], (ast.Return, ast.Expr)):
        return False
    call = body[0].value
    if not isinstance(call, ast.Call):
        return False
    a = node.args
    args = [p.arg for p in a.posonlyargs + a.args] + ([f"*{a.vararg.arg}"] if a.vararg else [])
    keywords = [(p.arg, p.arg) for p in a.kwonlyargs] + ([(None, a.kwarg.arg)] if a.kwarg else [])
    return ([ast.unparse(v) for v in call.args] == args
            and [(k.arg, ast.unparse(k.value)) for k in call.keywords] == keywords)


def forwarders():
    """'module.py:name' of each module-level function that only forwards."""
    return [f"{path.name}:{node.name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and _forwards(node)]


def test_no_function_only_forwards_its_parameters():
    assert [entry for entry in forwarders() if entry.split(":")[1] not in FORWARDERS_KEPT] == []


def test_every_kept_forwarder_still_forwards():
    assert sorted(entry.split(":")[1] for entry in forwarders()) == sorted(FORWARDERS_KEPT)


def generator_builders():
    """'module.py:line' of each generator construction outside rng.py."""
    return [f"{path.name}:{number}"
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "rng.py"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if GENERATOR_CALL.search(line)]


def test_only_rng_builds_a_generator():
    assert generator_builders() == []
    # the pattern still matches the one construction the rule allows
    assert GENERATOR_CALL.search((PACKAGE / "rng.py").read_text(encoding="utf-8"))


def blas_sums():
    """'compressors.py:line' of each BLAS sum call outside compressors._dot."""
    path = PACKAGE / "compressors.py"
    text = path.read_text(encoding="utf-8")
    dot = next(node for node in ast.parse(text).body
               if isinstance(node, ast.FunctionDef) and node.name == "_dot")
    return [f"{path.name}:{number}"
            for number, line in enumerate(text.splitlines(), 1)
            if BLAS_SUM_CALL.search(line) and not dot.lineno <= number <= dot.end_lineno]


def test_compressors_sum_only_through_dot():
    assert blas_sums() == []
    # the pattern still matches each call the rule forbids
    for call in ("np.dot(x, x)", "np.vdot(a, b)", "np.inner(a, b)", "np.vecdot(a, b)",
                 "w / np.linalg.norm(w)"):
        assert BLAS_SUM_CALL.search(call)


def runtime_imports():
    """'module.py:name' of each absolute import in src/gradcodec, at any
    depth, whose top-level package is neither numpy nor the standard
    library."""
    allowed = {"numpy", *sys.stdlib_module_names}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{name}" for name in names
                      if name.split(".")[0] not in allowed]
    return found


def test_src_imports_numpy_and_the_standard_library_only():
    assert runtime_imports() == []


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency; every gradcodec command imports cli
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("import sys, gradcodec.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
