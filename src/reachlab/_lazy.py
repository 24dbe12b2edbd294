"""PEP 562 lazy package namespaces: nothing loads until it is looked up."""

import sys


def _load(module):
    # the import statement's machinery, not importlib.import_module, so that
    # ``python -X importtime`` still reports the module
    __import__(module)
    return sys.modules[module]


def namespace(package, submodules, reexports):
    """A module ``__getattr__`` for ``package``.

    ``submodules`` are names of its modules; ``reexports`` maps a name
    to the submodule that defines it.  Each is imported on first access.
    """

    def __getattr__(name):
        if name in submodules:
            return _load(f"{package}.{name}")
        if name in reexports:
            return getattr(_load(f"{package}.{reexports[name]}"), name)
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    return __getattr__
