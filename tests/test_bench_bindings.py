"""The benchmark harness's patch points resolve in the library.

``perfbench/spans.py`` wraps library functions by module and name during
traced runs.  Its own tests run outside this suite, so a renamed function
would break traced runs unseen; this test reads the harness's ``BINDINGS``
(without importing the harness) and resolves each entry the way the
harness does.
"""

import ast
import importlib
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def bindings():
    """The literal BINDINGS list of spans.py, or None when there is none."""
    if not os.path.exists(SPANS):
        return None
    with open(SPANS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_every_harness_binding_resolves():
    entries = bindings()
    if entries is None:
        pytest.skip("perfbench/spans.py has no BINDINGS list")
    missing = []
    for module, attr, span in entries:
        owner = importlib.import_module(module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls, None)
            found = isinstance(owner, type) and attr in vars(owner)
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module}.{attr} ({span})")
    assert missing == []
