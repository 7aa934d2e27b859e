"""Every call that perfbench's traced run wraps still exists in the library.

perfbench reports a traced name it cannot find as absent, and only its own
tests fail on that.  This test makes such a removal fail here as well.  It
reads ``TARGETS`` from the source of ``perfbench/layers.py``, so it neither
imports nor runs anything under ``perfbench/``.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def traced_targets():
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERS} assigns no TARGETS")


def resolves(module_name, qualname):
    """The tracer's lookup: the owner by attribute, the name in its own namespace."""
    owner_name, _, attr = qualname.rpartition(".")
    module = importlib.import_module(f"qkdauth.{module_name}")
    owner = getattr(module, owner_name, None) if owner_name else module
    return owner is not None and vars(owner).get(attr) is not None


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    absent = [f"{m}.{q}" for m, q in targets if not resolves(m, q)]
    assert absent == []
