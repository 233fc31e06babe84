"""Guard for the benchmark's instrumentation table.

``perfbench/layers.py`` names the calls ``perfbench/run.py --trace 1``
wraps (``CALLS``): a module-level function is patched in the namespace
of the module that calls it, a method on its class.  A refactor that
renames, inlines or stops calling one of them breaks tracing with a
``KeyError`` — or, worse, silently reports a zero layer.  These tests
read ``CALLS`` as it is and check that every entry still resolves to a
plain function, and that the Generalized-Jaccard chain (kernel, pair
cache, Jaro–Winkler misses) still runs through the wrapped names.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import pytest

from repro.similarity.engine import SimilarityEngine

_PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """``(layers, spans)`` imported the way ``perfbench/run.py`` does."""
    if str(_PERFBENCH) not in sys.path:
        sys.path.insert(0, str(_PERFBENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


def _owner_and_name(call):
    owner = importlib.import_module(call.module)
    *path, name = call.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def test_every_call_resolves_to_a_plain_function(perfbench):
    layers, _ = perfbench
    assert layers.CALLS
    for call in layers.CALLS:
        owner, name = _owner_and_name(call)
        assert name in owner.__dict__, f"{call.module}.{call.attr} is gone"
        assert isinstance(owner.__dict__[name], types.FunctionType), (
            f"{call.module}.{call.attr} is not a plain function"
        )


def test_generalized_jaccard_chain_records_its_spans(perfbench):
    layers, spans = perfbench
    wanted = {"similarity.gj", "similarity.gj_cache", "similarity.jw"}
    calls = [call for call in layers.CALLS if call.span in wanted]
    assert {call.span for call in calls} == wanted
    engine = SimilarityEngine(
        [
            "sandisk ultra 32gb",
            "sandisc ultra 64gb",
            "soniq tranquil",
            "soniq tranquill",
        ]
    )
    recorder = spans.SpanRecorder()
    patches = spans.instrument(recorder, calls)
    recorder.enabled = True
    try:
        engine.generalized_jaccard_pairs([0, 2, 0], [1, 3, 1])
    finally:
        recorder.enabled = False
        patches.undo()
    assert [s.attrs for s in recorder.named("similarity.gj")] == [{"n": 3}]
    assert [s.attrs for s in recorder.named("similarity.gj_cache")] == [
        {"keys": 2, "hits": 0}
    ]
    assert sum(s.attrs["n"] for s in recorder.named("similarity.jw")) > 0
