"""The benchmark's tracer (``perfbench/tracing.py``) wraps relalg's functions
and methods by name, so a rename in relalg breaks it.  This test reads the
tracer's list of targets and fails on a name relalg no longer defines."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


class _Modules(dict):
    """relalg's modules by short name, imported on first use."""

    def __missing__(self, name):
        return importlib.import_module(f"relalg.{name}")


def test_every_function_the_tracer_wraps_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets(_Modules())
    # the tracer reads each original from the owner's own namespace
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets if attr not in vars(owner)]
    assert targets
    assert missing == []
