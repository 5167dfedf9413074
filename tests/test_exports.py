import importlib
import pkgutil

import pytest

import coeffopt

MODULES = ["coeffopt"] + [
    f"coeffopt.{info.name}" for info in pkgutil.iter_modules(coeffopt.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    # a name left in __all__ after its definition is gone fails here,
    # not at a user's ``import *``
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    missing = [n for n in getattr(module, "__all__", ()) if n not in namespace]
    assert missing == []
