"""The benchmark's span targets must name functions the package still has.

perfbench/spans.py wraps each entry of its TARGETS tuple by module and
attribute path.  Reading that tuple here makes a rename in src/ fail the
test suite, not only a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS tuple in %s" % SPANS)


def test_every_span_target_resolves():
    targets = _targets()
    assert targets
    for metric, module_name, path in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            # own attributes only: a method inherited from a shared base
            # class would be wrapped for every subclass at once
            assert part in vars(owner), (metric, module_name, path)
            owner = vars(owner)[part]
        assert callable(owner), (metric, module_name, path)
