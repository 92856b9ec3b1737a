"""The package namespace: what `import recycled_mzi` loads, and what each
public name resolves to."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recycled_mzi

SRC = Path(recycled_mzi.__file__).resolve().parents[1]
PUBLIC = [
    "ConvergenceError", "LoopParameters", "MeritReport", "ModelError", "OptimumRecord",
    "ParameterError", "RecycledCoefficients", "ResonantPoleError", "SweepGrid", "cascade",
    "closed_form", "lambda1_values", "lambda2_values", "lambda3_values", "loss_curve",
    "maximize", "merit_report", "mzi_entries", "sweep",
]


def fresh_python(code: str, **variables):
    """Run `code` in a new interpreter that imports this copy of the package;
    return the JSON it prints.  Each keyword sets an environment variable of
    that interpreter, or unsets it when None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return json.loads(result.stdout)


def test_import_loads_neither_numpy_nor_the_model():
    loaded = fresh_python(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import recycled_mzi\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert [name for name in loaded if name.split(".")[0] == "numpy"] == []
    # None of cli, landscape, loop, metrology, optics or verification.
    assert [name for name in loaded if name.startswith("recycled_mzi")] == [
        "recycled_mzi", "recycled_mzi.errors"]


# What `import recycled_mzi.cli` loads, and what each command then adds.
CLI_MODULES = ["recycled_mzi", "recycled_mzi.cli", "recycled_mzi.errors",
               "recycled_mzi.landscape", "recycled_mzi.metrology", "recycled_mzi.optics"]
LOADED_BY_COMMAND = (
    "import contextlib, io, json, sys\n"
    "def ours():\n"
    "    return {{name for name in sys.modules if name.split('.')[0] == 'recycled_mzi'}}\n"
    "import recycled_mzi.cli\n"
    "before = ours()\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = recycled_mzi.cli.main({argv!r})\n"
    "print(json.dumps([code, sorted(before), sorted(ours() - before)]))\n")


@pytest.mark.parametrize("argv,added", [
    (["--help"], []),
    (["sweep", "--metric", "lambda1", "--loss", "0.1", "--n", "4"], []),
    (["optimize", "--metric", "lambda3", "--losses", "0.1"], []),
    (["point", "--phi", "1", "--theta0", "0.5", "--loss", "0.1"], ["recycled_mzi.loop"]),
    (["verify", "--points", "20", "--grid", "5"],
     ["recycled_mzi.loop", "recycled_mzi.verification"]),
])
def test_each_command_loads_only_what_it_calls(argv, added):
    code, before, loaded = fresh_python(LOADED_BY_COMMAND.format(argv=argv))
    assert code == 0
    assert before == CLI_MODULES
    assert loaded == added


def test_submodule_is_an_attribute_after_a_bare_import():
    name, sweep_home = fresh_python(
        "import json, recycled_mzi\n"
        "print(json.dumps([recycled_mzi.landscape.__name__,"
        " recycled_mzi.landscape.sweep.__module__]))\n")
    assert name == sweep_home == "recycled_mzi.landscape"


def test_all_lists_the_public_names():
    assert recycled_mzi.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_the_object_its_module_defines(name):
    value = getattr(recycled_mzi, name)
    assert value.__module__ != "recycled_mzi"
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert vars(recycled_mzi)[name] is value


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from recycled_mzi import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_dir_lists_all():
    assert dir(recycled_mzi) == PUBLIC


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        recycled_mzi.no_such_name
    assert not hasattr(recycled_mzi, "numpy")


THREADS_AFTER_NUMPY = (
    "import json, os\n"
    "import {module}\n"
    "import numpy\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))\n")


def test_cli_entry_runs_openblas_on_one_thread():
    value, tasks = fresh_python(THREADS_AFTER_NUMPY.format(module="recycled_mzi.__main__"),
                                OPENBLAS_NUM_THREADS=None)
    assert value == "1"
    if tasks is None:
        pytest.skip("no /proc/self/task to count threads")
    assert tasks == 1


def test_cli_entry_keeps_a_thread_count_the_caller_set():
    value, _ = fresh_python(THREADS_AFTER_NUMPY.format(module="recycled_mzi.__main__"),
                            OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_library_import_leaves_the_environment_alone():
    value, _ = fresh_python(THREADS_AFTER_NUMPY.format(module="recycled_mzi.cli"),
                            OPENBLAS_NUM_THREADS=None)
    assert value is None
