"""The package's export list, resolved lazily, and what each command loads."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

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


def test_pathlen_loads_neither_the_survey_the_heuristics_the_checkpoint_nor_typing():
    loaded = command_modules("pathlen", "M7")
    assert "collatzpath.cli" in loaded
    for name in ("collatzpath.survey", "collatzpath.heuristics", "collatzpath.checkpoint",
                 "dataclasses", "inspect", "typing"):
        assert name not in loaded, name


def test_verify_loads_the_survey_alone():
    loaded = command_modules("verify", "--ranks", "1..3", "--jobs", "1")
    assert "collatzpath.survey" in loaded
    for name in ("collatzpath.heuristics", "collatzpath.checkpoint", "dataclasses"):
        assert name not in loaded, name


def test_a_checkpointed_pathlen_loads_the_checkpoint(tmp_path):
    loaded = command_modules("pathlen", "M7", "--checkpoint", str(tmp_path / "m7.ckpt"))
    assert "collatzpath.checkpoint" in loaded


def test_no_module_of_the_package_loads_dataclasses_or_typing():
    loaded = modules_after("\n".join(f"import collatzpath.{name}" for name in MODULES))
    assert {f"collatzpath.{name}" for name in MODULES} <= loaded
    assert "dataclasses" not in loaded
    assert "typing" not in loaded


def package_process(*argv):
    package_root = os.path.dirname(os.path.dirname(collatzpath.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=60)


def test_the_cli_module_runs_as_the_package_does():
    by_module = package_process("-m", "collatzpath.cli", "catalog", "--csv")
    by_package = package_process("-m", "collatzpath", "catalog", "--csv")
    assert by_module.returncode == by_package.returncode == 0
    assert by_module.stdout == by_package.stdout
    assert by_module.stdout.startswith(b"rank,exponent,reference_d,reference_ratio\n")


CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def test_code_lines_counts_only_the_lines_that_hold_code(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""A module docstring\nover two lines."""\n'
        "# a comment\n"
        "\n"
        "def double(x):\n"
        '    """A function docstring."""\n'
        "    return (x +\n"
        "            x)  # a comment after code\n"
    )
    done = subprocess.run([sys.executable, str(CODE_LINES), str(source)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["3", str(source)]


# Readable files that are not Python: prose, a NUL byte, a UTF-16 byte order mark.
NOT_PYTHON = {
    "README.md": b"# collatzpath\n\nThe 3x+1 path length of 2^n - 1.\n",
    "nul.py": b"x = 1\x00\n",
    "utf16.py": b"\xff\xfex = 1\n",
}


@pytest.mark.parametrize("name", [".", "missing.py", *NOT_PYTHON])
def test_code_lines_reports_a_path_it_cannot_read_in_one_line(tmp_path, name):
    # A readable file before it prints nothing either: no count is partial.
    (tmp_path / "sample.py").write_text("x = 1\n")
    path = tmp_path / name
    if name in NOT_PYTHON:
        path.write_bytes(NOT_PYTHON[name])
    done = subprocess.run([sys.executable, str(CODE_LINES), str(tmp_path / "sample.py"), str(path)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.count("\n") == 1 and str(path) in done.stderr, done.stderr
    verb = "parse" if name in NOT_PYTHON else "read"
    assert done.stderr.startswith(f"code_lines: cannot {verb} "), done.stderr
