"""The package's export list names only what the package binds."""

import outerspine


def test_every_exported_name_resolves():
    assert [name for name in outerspine.__all__ if not hasattr(outerspine, name)] == []
