"""Every name the benchmark's tracer wraps still exists where it looks.

``bench/layers.py`` patches functions by attribute name on their owning
module or class; a refactor that moves or renames one breaks the
benchmark, which runs outside these tests.  The tracer module is loaded
from its file as it stands, without ``bench`` on the import path.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_traced_name_is_defined_on_its_owner():
    targets = load_tracer().targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []
