"""Package-wide properties: the package exports each module's public names,
no state outlives a call, no environment variable changes behaviour, no
function calls itself, no module imports a name it never reads, the layers
above duality and search use only the public API,
the README names every fixture and shows true values in its Library block,
and the benchmark's own corruption checks still run."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import shellcert
from shellcert import complexes, facts, generators, homology, hunt, orders
from shellcert.catalog import FIXTURES

ROOT = Path(__file__).resolve().parent.parent


def _submodules():
    for info in pkgutil.walk_packages(shellcert.__path__, "shellcert."):
        if info.name != "shellcert.__main__":  # importing it runs the CLI
            yield importlib.import_module(info.name)


def test_the_package_exports_each_modules_public_names():
    # each module's __all__ is the one list of its public names: the package
    # re-exports them in import order, once each, as the module's own objects
    modules = [complexes, facts, generators, homology, hunt, orders]
    assert shellcert.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    assert len(set(shellcert.__all__)) == len(shellcert.__all__)
    assert [n for m in modules for n in m.__all__ if getattr(shellcert, n) is not getattr(m, n)] == []


def test_no_module_level_cache():
    # a functools cache keeps every argument and result for the life of the process
    cached = []
    for module in _submodules():
        for name, obj in vars(module).items():
            if callable(obj) and hasattr(obj, "cache_info"):
                cached.append("%s.%s" % (module.__name__, name))
    assert cached == []


def test_no_environment_knobs():
    # behaviour is set by arguments and module constants, never by the environment
    knobs = [p.name for p in sorted((ROOT / "src" / "shellcert").glob("*.py"))
             if re.search(r"os\.environ|os\.getenv", p.read_text(encoding="utf-8"))]
    assert knobs == []


def test_no_function_calls_itself():
    # recursion depth is bounded by the interpreter, not by the input: loops
    # with explicit stacks run as deep as the input needs
    recursive = []
    for path in sorted((ROOT / "src" / "shellcert").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                recursive += ["%s: %s" % (path.name, fn.name) for node in ast.walk(fn)
                              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                              and node.func.id == fn.name]
    assert recursive == []


def test_upper_layers_use_only_public_names():
    # facts, verify, cli and hunt reach duality and search the way any user does
    private = []
    for module in ("facts", "verify", "cli", "hunt"):
        path = ROOT / "src" / "shellcert" / (module + ".py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    if alias.name.startswith("_"):
                        private.append("%s: %s" % (module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and node.attr.startswith("_")):
                private.append("%s: %s.%s" % (module, node.value.id, node.attr))
    assert private == []


def test_no_unused_import():
    # an import that nothing reads is dead weight and hides the real dependencies;
    # a star import is read only in __init__.py, where `__all__ += m.__all__`
    # re-exports what `from .m import *` binds
    unused = []
    for path in sorted((ROOT / "src" / "shellcert").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        reexported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
            if (path.name == "__init__.py" and isinstance(node, ast.AugAssign)
                    and getattr(node.target, "id", None) == "__all__"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "__all__"):
                reexported.add(getattr(node.value.value, "id", None))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    if alias.name == "*":
                        if not (node.level == 1 and node.module in reexported):
                            unused.append("%s: %s.*" % (path.name, node.module))
                        continue
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append("%s: %s" % (path.name, name))
    assert unused == []


def test_every_export_resolves():
    # a public name deleted from a module must not linger in an __all__
    missing = []
    for module in [shellcert, *_submodules()]:
        missing += ["%s.%s" % (module.__name__, n) for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec("from shellcert import *", namespace)
    assert set(shellcert.__all__) <= set(namespace)


def test_readme_names_every_fixture():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [k for k in FIXTURES if "`%s`" % k not in readme]
    assert missing == []


def test_readme_library_block_shows_true_values():
    # each commented line of the README's Library block shows the repr of its
    # value, up to spaces (a comment on a line of its own belongs to the line above)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code:
            lines.append([code, comment])
        elif comment:
            lines[-1][1] = comment
    namespace = {}
    checked = 0
    for code, comment in lines:
        if comment:
            shown = comment.split(": ", 1)[0]
            assert repr(eval(code, namespace)).replace(" ", "") == shown.replace(" ", ""), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 5


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
