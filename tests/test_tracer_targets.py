"""Every name the benchmark tracer wraps still exists where it looks.

The tracer (bench/tracer.py) patches package attributes by (module,
qualified name); a rename breaks it.  This check fails fast instead of
waiting for a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    targets = [pair for table in (tracer.SPANS, tracer.COUNTS)
               for pairs in table.values() for pair in pairs]
    targets.append(tracer.PAIRING_FACTORY)
    missing = []
    for module_name, qualname in targets:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = vars(owner).get(part) if owner is not None else None
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{qualname}")
    assert not missing, f"tracer targets gone: {missing}"
