"""Every layer the benchmark's tracer wraps still exists where it looks.

``bench/layertrace.py`` silently skips a method that a class inherits or
that moved to another module, and its layer then reads 0 calls.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"
_spec = importlib.util.spec_from_file_location("bench_layertrace", LAYERTRACE)
layertrace = sys.modules["bench_layertrace"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)  # its dataclasses look their module up by name


@pytest.mark.parametrize("mod_name, attr", [t[:2] for t in layertrace.TARGETS],
                         ids=[t[2] for t in layertrace.TARGETS])
def test_traced_name_resolves(mod_name, attr):
    home = importlib.import_module(f"{layertrace.PACKAGE}.{mod_name}")
    if "." not in attr:
        assert callable(getattr(home, attr, None))
        return
    cls_name, meth = attr.split(".")
    if cls_name == "*":
        classes = [c for c in vars(home).values()
                   if isinstance(c, type) and c.__module__ == home.__name__]
        assert any(meth in vars(cls) for cls in classes)
    else:
        assert meth in vars(getattr(home, cls_name))
