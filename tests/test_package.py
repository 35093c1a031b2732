"""The package's export list, resolved lazily, and what each command loads."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import collatzpath

MODULES = (
    "catalog", "checkpoint", "cli", "engine", "errors", "expressions", "heuristics", "survey",
)


def test_all_is_every_public_name():
    assert len(set(collatzpath.__all__)) == len(collatzpath.__all__) == 53
    public = {
        name for name in dir(collatzpath)
        if not name.startswith("_") and not isinstance(getattr(collatzpath, name), types.ModuleType)
    }
    assert public == set(collatzpath.__all__)


def test_every_export_is_its_home_modules_object():
    for name, home in collatzpath._HOME.items():
        module = importlib.import_module(f"collatzpath.{home}")
        assert getattr(collatzpath, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from collatzpath import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(collatzpath.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        collatzpath.no_such_name


def modules_after(code):
    # A fresh interpreter without site, so only the package and what it
    # imports are loaded; the last line of stdout lists sys.modules.
    package_root = os.path.dirname(os.path.dirname(collatzpath.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    code += "\nimport sys\nprint()\nprint(' '.join(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def command_modules(*argv):
    return modules_after(f"import collatzpath.cli\ncollatzpath.cli.main({list(argv)!r})")


def test_pathlen_loads_neither_the_survey_the_heuristics_nor_the_checkpoint():
    loaded = command_modules("pathlen", "M7")
    assert "collatzpath.cli" in loaded
    for name in ("collatzpath.survey", "collatzpath.heuristics", "collatzpath.checkpoint",
                 "dataclasses", "inspect"):
        assert name not in loaded, name


def test_verify_loads_the_survey_alone():
    loaded = command_modules("verify", "--ranks", "1..3", "--jobs", "1")
    assert "collatzpath.survey" in loaded
    for name in ("collatzpath.heuristics", "collatzpath.checkpoint", "dataclasses"):
        assert name not in loaded, name


def test_a_checkpointed_pathlen_loads_the_checkpoint(tmp_path):
    loaded = command_modules("pathlen", "M7", "--checkpoint", str(tmp_path / "m7.ckpt"))
    assert "collatzpath.checkpoint" in loaded


def test_no_module_of_the_package_loads_dataclasses():
    loaded = modules_after("\n".join(f"import collatzpath.{name}" for name in MODULES))
    assert {f"collatzpath.{name}" for name in MODULES} <= loaded
    assert "dataclasses" not in loaded
