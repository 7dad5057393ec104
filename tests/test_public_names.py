"""Every public name a module of the package lists resolves."""
import importlib
import pkgutil

import dfl


def test_every_name_in_each_all_resolves():
    modules = [dfl] + [importlib.import_module(f"dfl.{info.name}")
                       for info in pkgutil.iter_modules(dfl.__path__)
                       if info.name != "__main__"]  # that one runs the CLI
    listed = [module for module in modules if hasattr(module, "__all__")]
    assert len(listed) == 8  # dfl.cli lists none
    for module in listed:
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        namespace: dict = {}
        exec(f"from {module.__name__} import *", namespace)
        assert set(module.__all__) <= set(namespace), module.__name__
