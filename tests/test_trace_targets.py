"""The traced benchmark (`perfbench/run.py --trace 1`) wraps library
functions by name; every name it wraps must exist in the library."""

import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = _load_spans()
    targets = [t for names, _ in spans.SPANS.values() for t in names]
    targets += list(spans.COUNTED.values())
    assert targets
    missing = []
    for target in targets:
        try:
            owner, attr = spans._resolve(target)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{target}: {exc}")
            continue
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{target}: no callable {attr!r}")
    assert missing == []
