"""Every name a ``repro`` module lists in ``__all__`` exists: a deletion
that leaves a stale export fails here."""
import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(m.name for m in pkgutil.walk_packages(repro.__path__, "repro."))


def test_walks_every_package():
    assert {"repro.core.pipeline", "repro.local_emd.base", "repro.session"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
