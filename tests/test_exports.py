"""The public export surface: every listed name resolves, and the package
re-exports its submodules' objects rather than copies."""

import importlib
import pkgutil

import raman_pairs

SUBMODULES = [
    importlib.import_module(f"raman_pairs.{info.name}")
    for info in pkgutil.iter_modules(raman_pairs.__path__)
]


def test_every_export_resolves_to_its_submodule_object():
    homes = {}
    for module in SUBMODULES:
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"
            homes.setdefault(name, []).append(module)
    for name in raman_pairs.__all__:
        value = getattr(raman_pairs, name, None)
        assert value is not None, f"raman_pairs.{name}"
        if name == "__version__":  # defined by the package itself
            continue
        assert len(homes.get(name, ())) == 1, f"{name} is exported by {homes.get(name)}"
        assert value is getattr(homes[name][0], name), name


def test_dir_lists_every_export_before_its_first_use(monkeypatch):
    for name in set(raman_pairs.__all__) - {"__version__"}:  # as if none had been imported
        monkeypatch.delitem(vars(raman_pairs), name, raising=False)
    listed = dir(raman_pairs)
    assert listed == sorted(listed)
    assert set(raman_pairs.__all__) <= set(listed)
