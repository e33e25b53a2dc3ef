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


def test_exit_code_2_has_one_exception_class():
    # every input error is an InputDomainError itself: no subclass splits them
    from raman_pairs import errors

    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert [c for c in classes if issubclass(c, errors.InputDomainError)] == [errors.InputDomainError]


def test_exit_code_3_has_one_exception_class():
    # every physics error is a PhysicsError itself: its message, not a subclass, says why
    from raman_pairs import errors

    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert [c for c in classes if issubclass(c, errors.PhysicsError)] == [errors.PhysicsError]


def test_exit_codes_2_and_3_have_one_root_each():
    # every error is an InputDomainError (exit 2) or a PhysicsError (exit 3),
    # never both, and the two roots share no base of the package
    from raman_pairs import errors

    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    for cls in classes:
        assert issubclass(cls, errors.InputDomainError) != issubclass(cls, errors.PhysicsError), cls
    shared = set(errors.InputDomainError.__mro__) & set(errors.PhysicsError.__mro__)
    assert {c.__module__ for c in shared} == {"builtins"}
