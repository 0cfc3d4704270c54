"""The benchmark's span table names functions that exist.

bench/spans.py wraps package functions by (module, attribute path).  A
refactor that renames or deletes one of them would pass the rest of the
suite and crash only `bench/run.py --trace 1`; this test catches it here.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("name", SPANS.SPANS)
def test_every_span_resolves_to_a_package_callable(name):
    owner, attr = SPANS._resolve(*SPANS.SPANS[name])
    assert callable(getattr(owner, attr))
