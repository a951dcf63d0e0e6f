"""The benchmark's traced functions must exist in the library.

perfbench/run.py --trace 1 stops with LookupError when a name in its TARGETS
no longer resolves; this test makes such a rename fail the test suite first.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name: str):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    run = _load("run")
    for module in run.MODULES:
        importlib.import_module(f"{run.PACKAGE}.{module}")
    tracer = run.tracing
    undo = tracer.install(tracer.Tracer(), run.PACKAGE, run.TARGETS)
    try:
        assert len(undo) >= len(run.TARGETS)
    finally:
        tracer.uninstall(undo)
