"""Every `__all__` names only what exists, and each layer module's lists
all its public functions.

`from tricalib import *` and the benchmark's span tracer
(`perfbench/tracing.py`) both go by `__all__`: the tracer wraps exactly
the functions a layer module lists, so a public function missing from
the list is never timed, and a stale name breaks the tracer.
"""

import importlib
import inspect

import pytest

import tricalib


def test_package_names_exist():
    assert [name for name in tricalib.__all__ if not hasattr(tricalib, name)] == []


@pytest.mark.parametrize("layer", ["config", "device", "data", "net", "metrics",
                                   "experiments"])
def test_layer_all_lists_every_public_function(layer):
    module = importlib.import_module(f"tricalib.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    public = {name for name, fn in vars(module).items()
              if inspect.isfunction(fn) and fn.__module__ == module.__name__
              and not name.startswith("_")}
    assert sorted(public - set(module.__all__)) == []
