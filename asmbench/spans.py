"""Span recording for traced benchmark runs, and the per-layer metrics
computed from the spans.

Wrappers are installed where the CLI's call path binds each public
function (a module attribute or a class method), so the program is not
edited. A wrapper records a span: name, start, end, parent span and
operation id. Hot functions get count-only wrappers. Spans stay in memory
until the worker writes them out once, at the end of the run.

Every per-layer time is a self time: a span's duration minus the part of
it that its child spans cover. The self times of one operation's spans
therefore add up to the operation's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable

ROOT_SPAN = "cli"


@dataclass
class Span:
    name: str
    op: int
    parent: int  # index of the enclosing span in the recorder, -1 for a root
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Recorder:
    """Spans and per-operation call tallies of one traced run."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.spans: list[Span] = []
        self.tallies: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def operation(self, op: int):
        """The root span of one operation; every span inside belongs to it."""
        self._op = op
        self.tallies[op] = {}
        with self.span(ROOT_SPAN) as root:
            yield root

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self._op, parent, self.clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def tally(self, name: str) -> None:
        counts = self.tallies[self._op]
        counts[name] = counts.get(name, 0) + 1

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "tallies": {str(op): t for op, t in self.tallies.items()}}


# -- wrapping ---------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _file_size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _bytes_in(args, kwargs, result):
    return {"bytes": _file_size(_arg(args, kwargs, 0, "source"))}


def _bytes_out(args, kwargs, result):
    return {"bytes": _file_size(_arg(args, kwargs, 1, "sink"))}


def _spectrum(args, kwargs, result):
    return {"occurrences": sum(result.counts.values()), "distinct": len(result.counts)}


def _graph_size(args, kwargs, result):
    return {"vertices": len(result.vertices), "edges": result.num_edges}


def _walk(args, kwargs, result):
    graph = _arg(args, kwargs, 0, "graph")
    units = sum(max(0, graph.out_degree(v) - graph.in_degree(v)) for v in graph.vertices)
    return {"units": units, "walk_edges": len(result.edges), "edges": graph.num_edges}


def _correction(args, kwargs, result):
    return {"reads_in": len(_arg(args, kwargs, 0, "reads")), "reads_kept": len(result)}


# (module, class or None, attribute, span name, counter or None)
SPANNED = [
    ("asmlab.cli", None, "read_reads", "formats.read", _bytes_in),
    ("asmlab.evaluate", None, "read_fasta", "formats.read", _bytes_in),
    ("asmlab.cli", None, "write_fasta", "formats.write", _bytes_out),
    ("asmlab.evaluate", None, "write_fasta", "formats.write", _bytes_out),
    ("asmlab.graph", None, "spectrum_of_set", "sequence.spectrum", _spectrum),
    ("asmlab.simulate", None, "spectrum_of_set", "sequence.spectrum", _spectrum),
    ("asmlab.evaluate", None, "spectrum", "sequence.spectrum", _spectrum),
    ("asmlab.graph", None, "build", "graph.build", _graph_size),
    ("asmlab.graph", "DeBruijnGraph", "weakly_connected_components", "graph.components",
     lambda args, kwargs, result: {"components": len(result)}),
    ("asmlab.graph", "DeBruijnGraph", "subgraph", "graph.subgraph", None),
    ("asmlab.graph", None, "export_dot", "graph.dot", None),
    ("asmlab.graph", None, "shortest_edge_covering_walk", "graph.walk", _walk),
    ("asmlab.graph", None, "linear_sum_assignment", "graph.assign", None),
    ("asmlab.simulate", None, "uniform_reads", "simulate.reads", None),
    ("asmlab.simulate", None, "idealized_reads", "simulate.reads", None),
    ("asmlab.simulate", None, "correct_reads", "simulate.correct", _correction),
    ("asmlab.evaluate", None, "unitig_contigs", "unitig.unitigs",
     lambda args, kwargs, result: {"unitigs": len(result)}),
    ("asmlab.evaluate", None, "evaluate", "evaluate.eval",
     lambda args, kwargs, result: {"contigs": result.contig_count}),
    ("asmlab.cli", None, "run_stage", "evaluate.stage", None),
]

# Called once per k-mer, so counted without a span.
TALLIED = [
    ("asmlab.graph", None, "decode_kmer", "sequence.decode"),
    ("asmlab.sequence", None, "decode_kmer", "sequence.decode"),
]


def _spanned(recorder: Recorder, original, name: str, counter):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = original(*args, **kwargs)
        if counter is not None:
            span.counts.update(counter(args, kwargs, result))
        return result
    return wrapper


def _tallied(recorder: Recorder, original, name: str):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.tally(name)
        return original(*args, **kwargs)
    return wrapper


def install(recorder: Recorder) -> tuple[list, set[str]]:
    """Wrap every binding that exists; return what to restore and the span
    or tally names none of whose bindings exist any more."""
    restore = []
    wanted, found = set(), set()
    sites = [(m, c, a, n, False, f) for m, c, a, n, f in SPANNED]
    sites += [(m, c, a, n, True, None) for m, c, a, n in TALLIED]
    for module, cls, attr, name, tally, counter in sites:
        wanted.add(name)
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            continue
        wrapper = (_tallied(recorder, original, name) if tally
                   else _spanned(recorder, original, name, counter))
        setattr(owner, attr, wrapper)
        restore.append((owner, attr, original))
        found.add(name)
    return restore, wanted - found


def uninstall(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


# -- self time and per-layer metrics ------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for start, end in sorted((spans[c]["start"], spans[c]["end"])
                                 for c in children.get(i, ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(s["end"] - s["start"] - covered)
    return out


# metric -> span name whose self times it sums, per operation
TIME_METRICS = {
    "formats.read_s": "formats.read",
    "formats.write_s": "formats.write",
    "sequence.spectrum_s": "sequence.spectrum",
    "graph.build_s": "graph.build",
    "graph.components_s": "graph.components",
    "graph.subgraph_s": "graph.subgraph",
    "graph.dot_s": "graph.dot",
    "graph.walk_s": "graph.walk",
    "graph.assign_s": "graph.assign",
    "simulate.reads_s": "simulate.reads",
    "simulate.correct_s": "simulate.correct",
    "unitig.unitigs_s": "unitig.unitigs",
    "evaluate.eval_s": "evaluate.eval",
    "evaluate.stage_self_s": "evaluate.stage",
    "cli.self_s": ROOT_SPAN,
}

# metric -> (span name, count key) summed per operation
COUNT_METRICS = {
    "formats.bytes_in": ("formats.read", "bytes"),
    "formats.bytes_out": ("formats.write", "bytes"),
    "sequence.kmer_occurrences": ("sequence.spectrum", "occurrences"),
    "sequence.kmers_distinct": ("sequence.spectrum", "distinct"),
    "graph.vertices": ("graph.build", "vertices"),
    "graph.edges": ("graph.build", "edges"),
    "graph.imbalance_units": ("graph.walk", "units"),
    "graph.walk_edges": ("graph.walk", "walk_edges"),
    "simulate.reads_in": ("simulate.correct", "reads_in"),
    "simulate.reads_kept": ("simulate.correct", "reads_kept"),
    "unitig.unitigs": ("unitig.unitigs", "unitigs"),
    "evaluate.contigs": ("evaluate.eval", "contigs"),
}

# metric -> the span or tally names it is made from
SOURCES = {
    **{m: (n,) for m, n in TIME_METRICS.items()},
    **{m: (n,) for m, (n, _) in COUNT_METRICS.items()},
    "sequence.decode_calls": ("sequence.decode",),
    "graph.components": ("graph.components",),
    "graph.assignments": ("graph.assign",),
    "graph.walk_ratio": ("graph.walk",),
    "simulate.keep_ratio": ("simulate.correct",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def operation_metrics(spans: list[dict], tallies: dict[str, int]) -> dict[str, float]:
    """Per-layer values of one operation from its spans and tallies."""
    selfs = self_times(spans)
    names = [s["name"] for s in spans]
    out: dict[str, float] = {}
    for metric, name in TIME_METRICS.items():
        out[metric] = sum(t for n, t in zip(names, selfs) if n == name)
    for metric, (name, key) in COUNT_METRICS.items():
        out[metric] = sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)
    out["sequence.decode_calls"] = tallies.get("sequence.decode", 0)
    # the solver re-checks each component it is handed; count the split only
    out["graph.components"] = sum(
        s["counts"].get("components", 0) for s in spans
        if s["name"] == "graph.components"
        and (s["parent"] < 0 or spans[s["parent"]]["name"] != "graph.walk"))
    out["graph.assignments"] = names.count("graph.assign")
    walked = sum(s["counts"].get("edges", 0) for s in spans if s["name"] == "graph.walk")
    out["graph.walk_ratio"] = _ratio(out["graph.walk_edges"], walked)
    out["simulate.keep_ratio"] = _ratio(out["simulate.reads_kept"], out["simulate.reads_in"])
    return out


def split_operations(spans: list[dict]) -> dict[int, list[dict]]:
    """Each operation's spans, with parents re-indexed into its own list."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        groups.setdefault(s["op"], []).append(i)
    out = {}
    for op, members in groups.items():
        position = {g: j for j, g in enumerate(members)}
        out[op] = [dict(spans[g], parent=position.get(spans[g]["parent"], -1))
                   for g in members]
    return out


def layer_metrics(spans: list[dict], tallies: dict[str, dict[str, int]]
                  ) -> dict[str, float]:
    """Median per-layer values over the traced operations."""
    per_op = [operation_metrics(group, tallies.get(str(op), {}))
              for op, group in sorted(split_operations(spans).items())]
    return {m: statistics.median(v[m] for v in per_op) for m in per_op[0]}


def absent_metrics(absent_names: set[str]) -> list[str]:
    """Metrics none of whose source bindings exist in the program."""
    return sorted(m for m, names in SOURCES.items() if set(names) <= absent_names)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.startswith("formats.bytes"):
        return "bytes"
    return "count"
