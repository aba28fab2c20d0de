"""PEP 562 package roots: a name costs nothing until it is used.

Every ``repro`` package root keeps its public ``__all__`` but binds no
name at import time.  Instead it declares one ``name -> (module, attr)``
table and installs the two hooks built here::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "GPUscout": ("repro.core.engine", "GPUscout"),
        ...
    })

so ``from repro.core import GPUscout`` imports ``repro.core.engine`` —
and nothing else — the first time it runs, and a one-shot CLI call
loads only the modules its subcommand executes (DESIGN "Start-up").
"""

from __future__ import annotations

from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict, table: dict[str, tuple[str, str]]):
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    ``namespace``: a first access to a name in ``table`` imports its
    module and caches the attribute in ``namespace`` (later accesses
    never reach the hook); any other name raises ``AttributeError``, so
    ``hasattr`` and ``from package import submodule`` behave as on an
    eager root."""

    def __getattr__(name: str):
        try:
            module, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), attr)
        return value

    def __dir__() -> list[str]:
        return list(namespace["__all__"])

    return __getattr__, __dir__
