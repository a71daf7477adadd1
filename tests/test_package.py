"""Package-wide properties: no state outlives a call, the README names every
fixture, and the benchmark's own corruption checks still run."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import shellcert
from shellcert.catalog import FIXTURES

ROOT = Path(__file__).resolve().parent.parent


def test_no_module_level_cache():
    # a functools cache keeps every argument and result for the life of the process
    cached = []
    for info in pkgutil.walk_packages(shellcert.__path__, "shellcert."):
        if info.name == "shellcert.__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if callable(obj) and hasattr(obj, "cache_info"):
                cached.append("%s.%s" % (info.name, name))
    assert cached == []


def test_readme_names_every_fixture():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [k for k in FIXTURES if "`%s`" % k not in readme]
    assert missing == []


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
