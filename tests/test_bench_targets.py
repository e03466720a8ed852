"""The public names and the benchmark's span targets must exist.

perfbench/spans.py wraps each entry of its TARGETS tuple by module and
attribute path.  Reading that tuple here makes a rename or deletion in
src/ fail the test suite, not only a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import apolarkit

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    assert apolarkit.__all__
    for name in apolarkit.__all__:
        assert hasattr(apolarkit, name), name


def test_every_span_target_resolves():
    targets = _spans_module().TARGETS
    assert targets
    for metric, module_name, path in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            # own attributes only: a method inherited from a shared base
            # class would be wrapped for every subclass at once
            assert part in vars(owner), (metric, module_name, path)
            owner = vars(owner)[part]
        assert callable(owner), (metric, module_name, path)
