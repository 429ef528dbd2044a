"""Every name the benchmark tracer wraps still exists in the library.

`perfbench/tracer.py` looks up the functions in its `FUNCTIONS` table with
`getattr` and the methods in `METHODS` in their class's own `__dict__`, so a
library change that deletes or renames one of them breaks every traced
benchmark run.  The tracer is read as a file and never installed here.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in TRACER["FUNCTIONS"]])
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("cls, attr", [entry[:2] for entry in TRACER["METHODS"]],
                         ids=[f"{cls.__name__}.{attr}" for cls, attr, *_ in TRACER["METHODS"]])
def test_traced_method_resolves(cls, attr):
    assert callable(getattr(cls, attr)) and attr in vars(cls)
