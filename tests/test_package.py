"""The package's export list."""

import types

import collatzpath


def test_all_is_every_public_name():
    public = {
        name for name, value in vars(collatzpath).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(collatzpath.__all__)) == len(collatzpath.__all__)
    assert set(collatzpath.__all__) == public
