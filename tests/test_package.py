"""The package's public surface."""

import conic_newton


def test_all_has_no_duplicates():
    names = conic_newton.__all__
    assert len(set(names)) == len(names)


def test_every_exported_name_resolves():
    missing = [name for name in conic_newton.__all__ if not hasattr(conic_newton, name)]
    assert missing == []
