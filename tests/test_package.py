"""The package namespace: one table of public names, each imported from
its home module on first use."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import veechlab


def _fresh(statement):
    # stdout of statement run in a fresh interpreter on this test's sys.path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    return subprocess.run([sys.executable, "-c", statement], env=env, capture_output=True,
                          text=True, check=True).stdout.split()


@pytest.mark.parametrize("name", veechlab.__all__)
def test_every_public_name_is_its_home_modules_object(name):
    obj = getattr(veechlab, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("veechlab.")
    assert vars(home)[name] is obj


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from veechlab import *", namespace)
    assert set(veechlab.__all__) <= namespace.keys()
    assert len(set(veechlab.__all__)) == len(veechlab.__all__)
    listed = dir(veechlab)
    assert set(veechlab.__all__) <= set(listed) and "__version__" in listed
    assert {"field", "covering", "certificates", "perms"} <= set(listed)


@pytest.mark.parametrize("name", ["nosuch", "Mat2", "_QQ", "sign"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(veechlab, name)
    assert not hasattr(veechlab, name)


def test_the_package_loads_a_module_only_when_a_name_needs_it():
    loaded = "print(*sorted(m for m in sys.modules if m.startswith('veechlab')))"
    assert _fresh("import sys, veechlab\n" + loaded) == ["veechlab"]
    # a name loads its home module and what that imports, nothing else
    assert _fresh("import sys, veechlab\nveechlab.Word\n" + loaded) == ["veechlab",
                                                                        "veechlab.words"]
    # a submodule resolves as an attribute, as it did when the package imported them all
    assert _fresh("import sys, veechlab\n"
                  "print(veechlab.quotient is sys.modules['veechlab.quotient'])") == ["True"]


def test_every_package_error_is_public():
    # every VeechLabError subclass that a module of the package defines
    errors = set()
    for info in pkgutil.iter_modules(veechlab.__path__):
        module = importlib.import_module("veechlab." + info.name)
        errors.update(name for name, obj in vars(module).items()
                      if isinstance(obj, type) and issubclass(obj, veechlab.VeechLabError)
                      and obj.__module__ == module.__name__)
    assert {"QuotientBookkeepingError", "SignUndetermined"} <= errors
    assert errors <= set(veechlab.__all__)
