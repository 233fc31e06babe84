"""Tests of the benchmark's own machinery (no workload is run here).

Run with ``python -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402
from spans import (  # noqa: E402
    Call,
    Span,
    SpanRecorder,
    instrument,
    self_times,
    write_chrome_trace,
)
from stats import tail  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TestSchedule:
    def test_same_seed_same_schedule(self):
        first = loadgen.schedule(7, 300.0, 500, 40, loadgen.MIXED_CYCLE)
        second = loadgen.schedule(7, 300.0, 500, 40, loadgen.MIXED_CYCLE)
        assert first == second

    def test_other_seed_other_schedule(self):
        first = loadgen.schedule(7, 300.0, 500, 40)
        second = loadgen.schedule(8, 300.0, 500, 40)
        assert [op.due for op in first] != [op.due for op in second]

    def test_poisson_rate(self):
        ops = loadgen.schedule(1, 200.0, 4000, 10)
        assert 4000 / ops[-1].due == pytest.approx(200.0, rel=0.05)
        assert all(a.due < b.due for a, b in zip(ops, ops[1:]))

    def test_mixed_cycle_shares_and_retire_order(self):
        ops = loadgen.schedule(3, 100.0, 1600, 25, loadgen.MIXED_CYCLE)
        kinds = [op.kind for op in ops]
        assert kinds.count("append") == 200  # 1 in 8
        assert kinds.count("retire") == 100  # 1 in 16
        appends = 0
        for op in ops:
            if op.kind == "append":
                appends += 1
            elif op.kind == "retire":
                assert op.item < appends  # undoes an earlier append


class TestTail:
    def test_p99_with_enough_samples(self):
        measured = tail([float(i) for i in range(1, 1001)])
        assert measured.percentile == 99.0
        assert measured.value == 990.0
        assert (measured.n, measured.beyond) == (1000, 10)

    def test_percentile_lowered_to_keep_ten_beyond(self):
        measured = tail([float(i) for i in range(1, 501)])
        assert measured.percentile == 98.0
        assert measured.value == 490.0
        assert measured.beyond == 10

    def test_odd_sizes_keep_at_least_ten_beyond(self):
        for n in range(11, 1500, 37):
            measured = tail([float(i) for i in range(n)])
            assert measured.beyond >= 10
            assert measured.percentile <= 99.0
            assert measured.n == n

    def test_too_few_samples_report_maximum(self):
        measured = tail([3.0, 1.0, 2.0])
        assert (measured.percentile, measured.value) == (100.0, 3.0)
        assert (measured.n, measured.beyond) == (3, 0)


def _span(id, start, end, parent=None, name="x.y", thread=1):
    return Span(id, name, start, end, parent, thread)


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            _span(0, 0.0, 10.0),  # root
            _span(1, 1.0, 4.0, parent=0),
            _span(2, 3.0, 6.0, parent=0),  # overlaps its sibling
            _span(3, 8.0, 12.0, parent=0),  # runs past the root's end
            _span(4, 1.5, 2.0, parent=1),
        ]
        own = self_times(spans)
        assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
        assert own[1] == pytest.approx(3.0 - 0.5)
        assert own[2] == pytest.approx(3.0)
        assert own[3] == pytest.approx(4.0)
        assert own[4] == pytest.approx(0.5)


class TestInstrument:
    @pytest.fixture()
    def module(self, monkeypatch):
        module = types.ModuleType("perfbench_fake_layer")

        def leaf(n):
            return list(range(n))

        def outer(n):
            return len(module.leaf(n))

        class Thing:
            def work(self, n):
                return module.outer(n)

        module.leaf, module.outer, module.Thing = leaf, outer, Thing
        monkeypatch.setitem(sys.modules, module.__name__, module)
        return module

    def test_spans_nest_and_patches_undo(self, module):
        original = (module.leaf, module.outer, module.Thing.work)
        recorder = SpanRecorder()
        patches = instrument(
            recorder,
            [
                Call(module.__name__, "leaf", "layer.leaf",
                     lambda a, k, r: {"n": len(r)}),
                Call(module.__name__, "outer", "layer.outer"),
                Call(module.__name__, "Thing.work", "top.work"),
            ],
        )
        module.Thing().work(3)  # disabled: nothing recorded
        assert recorder.spans == []
        recorder.enabled = True
        assert module.Thing().work(4) == 4
        patches.undo()
        assert (module.leaf, module.outer, module.Thing.work) == original
        by_name = {span.name: span for span in recorder.spans}
        assert by_name["top.work"].parent is None
        assert by_name["layer.outer"].parent == by_name["top.work"].id
        assert by_name["layer.leaf"].parent == by_name["layer.outer"].id
        assert by_name["layer.leaf"].attrs == {"n": 4}

    def test_chrome_trace_is_loadable(self, module, tmp_path):
        recorder = SpanRecorder()
        patches = instrument(recorder, [Call(module.__name__, "leaf", "a.leaf")])
        recorder.enabled = True
        module.leaf(2)
        patches.undo()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, recorder, {"seed": 1})
        payload = json.loads(path.read_text())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["a.leaf"]
        assert complete[0]["dur"] >= 0 and "ts" in complete[0]
        assert payload["otherData"] == {"seed": 1}


class TestOpenLoop:
    def test_latency_counts_from_due_time(self):
        """A stall delays later ops; their latency includes the wait."""
        ops = [loadgen.Op(0.0, "match", 0), loadgen.Op(0.001, "match", 1)]

        async def issue(op, record):
            if op.item == 0:
                time.sleep(0.05)  # blocks the loop, as a GIL-bound stall would
            record.ok = True

        result = asyncio.run(loadgen.drive(ops, issue))
        second = result.records[1]
        assert second.latency >= 0.045
        assert result.lags[1] >= 0.045
        assert result.failed == 0

    def test_failed_ops_are_counted(self):
        async def issue(op, record):
            raise RuntimeError("boom")

        result = asyncio.run(loadgen.drive([loadgen.Op(0.0, "match", 0)], issue))
        assert result.failed == 1
        assert "boom" in result.records[0].error

    def test_max_rate_bisects_to_precision(self):
        capacity = 1234.0

        def probe(rate, index):
            latency = 0.001 if rate <= capacity else 1.0
            records = []
            for i in range(200):
                record = loadgen.Record(loadgen.Op(0.0, "match", i), 0.0)
                record.done, record.ok = latency, True
                records.append(record)
            return loadgen.OpenLoopResult(records, [0.0], 0, (0.0, 1.0))

        found, probes = loadgen.find_max_rate(
            probe, start=100.0, limit_ms=25.0, cap=99.0
        )
        assert found <= capacity
        assert capacity / found <= 1.05
        assert not probes[-1].passed or probes[-1].rate == found


class TestCatalogue:
    def test_metric_names_and_units(self):
        names = [metric.name for metric in END_TO_END + PER_LAYER]
        assert len(names) == len(set(names))
        for metric in END_TO_END + PER_LAYER:
            assert NAME.fullmatch(metric.name), metric.name
            assert UNIT.fullmatch(metric.unit), metric.unit
            assert metric.better in ("higher", "lower")

    def test_every_layer_metric_names_what_it_should_move(self):
        for metric in PER_LAYER:
            assert metric.moves, metric.name

    def test_benchmark_json_matches_catalogue(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert [m["name"] for m in spec["end_to_end"]] == [
            m.name for m in END_TO_END
        ]
        assert [m["name"] for m in spec["per_layer"]] == [
            m.name for m in PER_LAYER
        ]
        for entry, metric in zip(spec["end_to_end"], END_TO_END):
            assert (entry["unit"], entry["better"], entry["bound"]) == (
                metric.unit,
                metric.better,
                metric.bound,
            )
        for entry, metric in zip(spec["per_layer"], PER_LAYER):
            assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
        assert any(
            m["name"] == "setup_s" and m["bound"] == max(
                e["bound"] for e in spec["end_to_end"]
            )
            for m in spec["end_to_end"]
        )

