import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_run_bindings_resolve():
    # the traced benchmark run replaces each listed (module, attr) binding;
    # a name deleted or renamed in the library would break that run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bindings = spans.COARSE + spans.LEAVES + spans.LEAF_ITERATORS
    missing = [(mod, attr) for mod, attr, _layer, _name in bindings
               if not hasattr(importlib.import_module("syrtree." + mod), attr)]
    assert bindings
    assert missing == []
