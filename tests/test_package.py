"""The package's public surface is the union of its modules' `__all__` lists."""

from __future__ import annotations

import sublap
from sublap import algebra, bounds, connection, curvature, spectral

MODULES = (algebra, connection, curvature, bounds, spectral)


def test_public_names_are_unique():
    assert len(sublap.__all__) == len(set(sublap.__all__))


def test_public_names_are_the_modules_lists():
    assert sublap.__all__ == [n for m in MODULES for n in m.__all__]


def test_each_public_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sublap, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from sublap import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sublap.__all__)
