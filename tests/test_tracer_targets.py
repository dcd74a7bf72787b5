"""Every name the benchmark tracer patches still exists where it looks.

`perfbench/tracer.py` wraps the functions and methods listed in its TARGETS
and LEAVES tables.  A refactor that renames a traced name, or leaves it only
inherited, would otherwise be noticed only by a hand-run traced benchmark
pass.  The tracer module is loaded from its file and not modified.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not os.path.isfile(TRACER), reason="no perfbench tracer")
def test_every_traced_name_resolves_as_the_tracer_patches_it():
    tracer = _tracer()
    missing = []
    for layer, attr, _ in tracer.TARGETS + tracer.LEAVES:
        module = importlib.import_module(f"orbifunctor.{layer}")
        if "." in attr:
            # Tracer._patch reads cls.__dict__[meth]: an inherited method
            # would raise KeyError there
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{layer}.{attr}")
    assert missing == []
