import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_leaves_out_scipy_sparse_linalg():
    # the solver's CG loop and V-cycle are the package's own, so the
    # import and its memory stay free of scipy.sparse.linalg
    code = ("import sys, coeffopt; "
            "print('scipy.sparse.linalg' in sys.modules)")
    src = os.path.dirname(coeffopt.__path__[0])  # this coeffopt's
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
