"""Each module's ``__all__`` names what it defines or imports, once."""

import importlib
import pkgutil

import kernelcomp


def test_every_export_resolves_once():
    names = [name for _, name, _ in pkgutil.iter_modules(kernelcomp.__path__)
             if name != "__main__"]
    assert "operators" in names
    for name in names:
        module = importlib.import_module(f"kernelcomp.{name}")
        assert [e for e in module.__all__ if not hasattr(module, e)] == [], name
        assert len(set(module.__all__)) == len(module.__all__), name
