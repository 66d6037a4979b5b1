"""Self-time arithmetic, span nesting and wrapper installation."""

import itertools

import pytest

import spans


def _span(name, start, end, parent=-1, op=0, **counts):
    return {"name": name, "op": op, "parent": parent, "start": start, "end": end,
            "counts": counts}


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("cli", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),    # overlaps a: [1, 6) is covered once
        _span("c", 2.0, 3.0, parent=1),
        _span("d", 9.0, 12.0, parent=0),   # runs past its parent: clipped to [9, 10)
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_nested_self_times_add_up_to_the_root():
    tree = [
        _span("cli", 0.0, 8.0),
        _span("a", 0.5, 3.0, parent=0),
        _span("b", 1.0, 2.0, parent=1),
        _span("c", 4.0, 7.5, parent=0),
    ]
    assert sum(spans.self_times(tree)) == pytest.approx(8.0)


def test_recorder_links_parents_and_operations():
    clock = itertools.count().__next__
    recorder = spans.Recorder(lambda: float(clock()))
    for op in (0, 1):
        with recorder.operation(op):
            with recorder.span("graph.walk"):
                with recorder.span("graph.assign"):
                    recorder.tally("sequence.decode")
                with recorder.span("graph.assign"):
                    pass
    recorded = recorder.to_json()
    groups = spans.split_operations(recorded["spans"])
    assert sorted(groups) == [0, 1]
    for group in groups.values():
        assert [s["parent"] for s in group] == [-1, 0, 1, 1]
        root = group[0]
        assert sum(spans.self_times(group)) == pytest.approx(root["end"] - root["start"])
    assert recorded["tallies"] == {"0": {"sequence.decode": 1}, "1": {"sequence.decode": 1}}
    metrics = spans.layer_metrics(recorded["spans"], recorded["tallies"])
    assert metrics["graph.assignments"] == 2
    assert metrics["sequence.decode_calls"] == 1
    assert metrics["graph.assign_s"] == 2.0


def test_operation_metrics_count_only_the_top_level_split():
    group = [
        _span("cli", 0.0, 10.0),
        _span("graph.components", 1.0, 2.0, parent=0, components=3),
        _span("graph.walk", 2.0, 9.0, parent=0, units=4, walk_edges=12, edges=10),
        _span("graph.components", 3.0, 4.0, parent=2, components=1),
        _span("simulate.correct", 9.0, 9.5, parent=0, reads_in=8, reads_kept=6),
    ]
    metrics = spans.operation_metrics(group, {})
    assert metrics["graph.components"] == 3
    assert metrics["graph.components_s"] == pytest.approx(2.0)
    assert metrics["graph.walk_ratio"] == pytest.approx(1.2)
    assert metrics["simulate.keep_ratio"] == pytest.approx(0.75)
    assert metrics["cli.self_s"] == pytest.approx(10.0 - 1.0 - 7.0 - 0.5)


def test_missing_function_is_reported_absent_and_others_still_wrap(monkeypatch):
    import asmlab.graph

    original_build = asmlab.graph.build
    monkeypatch.delattr(asmlab.graph, "linear_sum_assignment")
    restore, absent = spans.install(spans.Recorder(lambda: 0.0))
    try:
        assert "graph.assign" in absent
        assert asmlab.graph.build is not original_build
    finally:
        spans.uninstall(restore)
    assert asmlab.graph.build is original_build
    assert {"graph.assign_s", "graph.assignments"} <= set(spans.absent_metrics(absent))
    assert "graph.walk_s" not in spans.absent_metrics(absent)
