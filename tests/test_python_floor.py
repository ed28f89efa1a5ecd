"""Every source and test file parses under the Python 3.10 grammar.

Python 3.10 is the declared minimum (pyproject's requires-python), but the
suite may run on a newer interpreter.  ast.parse with feature_version
rejects syntax newer than 3.10, such as `except*` or type parameter lists.
This checks grammar only: a stdlib function or type added after 3.10 still
passes here.  The numpy floor is declared once, in pyproject, which the CI
install step reads by installing the package, and which one CI job reads
back to install numpy at exactly that version.  CI also runs the installed
package outside the checkout, since every test here imports src/.  The names the benchmark's
tracer (perfbench/spans.py) wraps must exist, or only a benchmark run
would notice.  Every module-level import of a package or test module is
used in that module (the package's __init__ imports to re-export), and
the package's __all__ lists each name that __init__ imports, once.
Importing the CLI builds no argument parser: that waits for the first
main() call, so the import stays cheap.  Nor does it load numpy: only the
batch kernel behind `exact`, `mc` and `classify` does, on its first call,
so the closed-form commands run without it.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from test_cli import _child_command

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "orientcorr").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_numpy_floor_is_the_same_in_pyproject_and_ci():
    # CI installs the package itself, so pyproject holds the one numpy floor
    # and the workflow pins none of its own.
    assert len(re.findall(r'"numpy>=[0-9.]+"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))) == 1
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert 'run: python -m pip install ".[test]"' in [line.strip() for line in workflow.splitlines()]
    # No version number of its own: the floor job reads it from pyproject.
    assert not re.search(r"numpy[<>=!~]=[0-9]", workflow)


def test_ci_installs_numpy_at_the_floor_it_reads_from_pyproject():
    [floor] = re.findall(r'"numpy>=([0-9.]+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    job = workflow["jobs"]["tier1"]
    assert {"python-version": "3.10", "numpy": "floor"} in job["strategy"]["matrix"]["include"]
    [step] = [step for step in job["steps"] if step.get("if") == "matrix.numpy == 'floor'"]
    # The pinned version is a command substitution over pyproject.toml;
    # run that command and check it prints the floor.
    [command] = re.fullmatch(r'python -m pip install "numpy==\$\((.+)\)"', step["run"].strip()).groups()
    assert "pyproject.toml" in command
    printed = subprocess.run(["sh", "-c", command], cwd=ROOT, capture_output=True, text=True, check=True)
    assert printed.stdout == floor + "\n"


def test_ci_runs_the_installed_package_outside_the_checkout():
    # Every test imports src/, so only a step that runs the installed
    # package from elsewhere, with no PYTHONPATH, catches a wheel that lacks a module.
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    steps = workflow["jobs"]["tier1"]["steps"]
    names = [step.get("name") for step in steps]
    [step] = [step for step in steps if "orientcorr.__file__" in step.get("run", "")]
    assert names.index(step["name"]) > names.index("Tier-1 tests")
    assert step["working-directory"] == "${{ runner.temp }}"
    assert "PYTHONPATH" not in step["run"] and "PYTHONPATH" not in step.get("env", {})
    commands = step["run"].strip().splitlines()
    assert "site-packages" in commands[0]
    assert commands[1:] == ["orientcorr kn --n 5", "python -m orientcorr classify --graph6 'D~{'"]


def test_perfbench_traces_names_that_exist():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(modname, attr) for modname, attr, _, _ in spans._FUNCTIONS
               if not callable(getattr(importlib.import_module(modname), attr, None))]
    missing += [(modname, f"{clsname}.{attr}") for modname, clsname, attr, _ in spans._CLASSMETHODS
                if not isinstance(vars(getattr(importlib.import_module(modname), clsname)).get(attr),
                                  classmethod)]
    complete = importlib.import_module("orientcorr.complete")
    missing += [("orientcorr.complete", attr) for attr in spans._RECURSIONS
                if not all(hasattr(getattr(complete, attr, None), cache)
                           for cache in ("cache_info", "cache_clear"))]
    assert missing == []


MODULES = sorted([*(path for path in (ROOT / "src" / "orientcorr").glob("*.py") if path.name != "__init__.py"),
                  *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_all_lists_each_public_import_once():
    import orientcorr
    tree = ast.parse((ROOT / "src" / "orientcorr" / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not (alias.asname or alias.name).startswith("_")]
    assert [name for name in orientcorr.__all__ if not hasattr(orientcorr, name)] == []
    assert len(set(orientcorr.__all__)) == len(orientcorr.__all__)
    assert sorted(orientcorr.__all__) == sorted(imported)


def test_importing_the_cli_builds_no_parser():
    # A fresh interpreter, so no earlier test has called main() yet.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = "import orientcorr.cli as cli; print(cli.build_parser.cache_info().currsize)"
    printed = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
    assert printed.stdout == "0\n"


# Each closed-form subcommand once, in and out of JSON mode.
CLOSED_FORMS = [["kn", "--n", "12"], ["--json", "table", "--max-n", "30"],
                ["bounds", "--max-n", "12"], ["cycle", "--n", "12", "--a", "0", "--s", "3", "--b", "7"],
                ["--json", "forest", "--graph6", "Ch", "--a", "0", "--s", "1", "--b", "2"]]


def test_closed_form_commands_load_no_numpy():
    # A fresh interpreter, so no earlier test has loaded numpy.  The one
    # exact run at the end shows that the probe sees numpy once it loads.
    probe = f"""
import contextlib, io, sys
import orientcorr, orientcorr.cli, orientcorr.montecarlo

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "numpy")

with contextlib.redirect_stdout(io.StringIO()):
    codes = [orientcorr.cli.main(argv) for argv in {CLOSED_FORMS!r}]
    before = loaded()
    orientcorr.cli.main(["exact", "--graph6", "C~", "--a", "0", "--s", "1", "--b", "2"])
print(codes, before, "numpy" in loaded())
"""
    _, env = _child_command()
    printed = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
    assert printed.stdout == "[0, 0, 0, 0, 0] [] True\n"


@pytest.mark.parametrize("argv, numpy", [
    (["cycle", "--n", "12", "--a", "0", "--s", "3", "--b", "7"], False),
    (["exact", "--graph6", "C~", "--a", "0", "--s", "1", "--b", "2"], True),
], ids=["cycle", "exact"])
def test_whole_command_imports_numpy_only_for_the_kernel(argv, numpy):
    # The installed wrapper where there is one, as CI runs it; the import
    # time report (stderr) names every module the process imported.
    command, env = _child_command()
    env["PYTHONPROFILEIMPORTTIME"] = "1"
    proc = subprocess.run(command + argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "orientcorr.closed_form" in imported
    assert ("numpy" in imported) is numpy
