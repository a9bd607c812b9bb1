"""Lazy package exports: a name's defining module loads on first access.

A package lists its public names once, by defining module, and binds
:func:`lazy_exports` as its module ``__getattr__`` (PEP 562).  Importing
the package then imports none of those modules: a process that only
compiles never loads NumPy, the fuzz stack or the worker pool.  The first
access of a name imports its module and binds the object on the package,
so every later access is a plain attribute read and ``from package import
name`` returns the very object the defining module exports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, sources: Mapping[str, Sequence[str]]
) -> Callable[[str], object]:
    """The module ``__getattr__`` of ``package``.

    ``sources`` maps each defining module to the public names it exports.
    Any other name raises :class:`AttributeError`, as an ordinary module
    does, so ``from package import submodule`` still imports the submodule.
    """
    origin = {name: module for module, names in sources.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
