"""Per-layer spans for the traced benchmark run, installed from outside ``src/``.

``Probe.install()`` replaces the names through which the pipeline reaches each
layer -- module attributes in every module that imported them, the
``CallGraph``/``CheckpointStore`` methods and the Java grammar adapter --
with wrappers that record one span per call: name, start, end and the
span that was open when it started.  Spans stay in memory until the run
ends; a layer's self time is its spans' durations minus their child spans.
A few observers count or keep call results (parsed texts, fetched changes,
edit-script lengths) where the work happens; they are summed once the run
is over.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from collections import Counter

# (module, attribute, span name): the binding the program calls through.
MODULE_TARGETS = (
    ("pipeline", "open_repository", "repo.open_repository"),
    ("pipeline", "walk_commits", "repo.walk_commits"),
    ("pipeline", "first_parent_children", "repo.first_parent_children"),
    ("pipeline", "changed_files", "repo.changed_files"),
    ("pipeline", "extract_functions", "syntax.extract_functions"),
    ("syntax", "extract_functions", "syntax.extract_functions"),
    ("callgraph", "extract_functions", "syntax.extract_functions"),
    ("pipeline", "diff_file_pair", "astdiff.diff_file_pair"),
    ("astdiff", "map_trees", "astdiff.map_trees"),
    ("astdiff", "edit_script", "astdiff.edit_script"),
    ("astdiff", "group_by_function", "astdiff.group_by_function"),
    ("pipeline", "delta_ast", "astdiff.delta_ast"),
    ("pipeline", "compute_raw", "complexity.compute_raw"),
    ("pipeline", "build_pdg", "pdg.build_pdg"),
    ("pipeline", "changed_pdg_nodes", "pdg.changed_nodes"),
    ("pipeline", "ddg_impact", "pdg.impact"),
    ("pipeline", "cdg_impact", "pdg.impact"),
    ("pipeline", "impact_range", "pdg.impact"),
    ("pipeline", "pagerank", "callgraph.pagerank"),
    ("pipeline", "backward_propagate", "callgraph.backward_propagate"),
    ("pipeline", "inter_impact", "callgraph.inter_impact"),
    ("pipeline", "fit_boxcox", "scoring.fit_boxcox"),
    ("pipeline", "normalize", "scoring.fuse"),
    ("pipeline", "combine_complexity", "scoring.fuse"),
    ("pipeline", "function_score", "scoring.fuse"),
    ("pipeline", "commit_cvalue", "scoring.fuse"),
    ("report", "aggregate_by_developer", "report.aggregate"),
)

# (class, method, span name)
METHOD_TARGETS = (
    ("CallGraph", "update", "callgraph.update"),
    ("CallGraph", "resolve_file", "callgraph.resolve_file"),
    ("CallGraph", "reresolve_names", "callgraph.reresolve_names"),
    ("CheckpointStore", "checkpoint", "callgraph.checkpoint"),
    ("CheckpointStore", "restore", "callgraph.restore"),
    ("CheckpointStore", "discard", "callgraph.discard"),
)

PARSE_SPAN = "syntax.parse"

SPANS = tuple(dict.fromkeys(
    ["repo.open_repository", "repo.walk_commits", "repo.first_parent_children",
     "repo.changed_files", PARSE_SPAN]
    + [span for _, _, span in MODULE_TARGETS + METHOD_TARGETS]))

# Derived per-layer metrics besides ``<span>_s`` (self time) and ``<span>_calls``.
DERIVED_UNITS = {
    "repo.blobs_fetched": "count",
    "repo.blob_kb": "KB",
    "repo.binary_blobs": "count",
    "syntax.parse_unique_texts": "count",
    "syntax.parse_useful_ratio": "ratio",
    "syntax.parse_errors": "count",
    "syntax.parse_kb_per_s": "KB/s",
    "syntax.extract_functions_useful_ratio": "ratio",
    "astdiff.actions": "count",
    "astdiff.empty_diff_ratio": "ratio",
    "callgraph.nodes_final": "count",
    "callgraph.edges_final": "count",
    "callgraph.checkpoints_live_peak": "count",
    "pipeline.records": "count",
    "pipeline.save_s": "s",
    "pipeline.traced_analyze_s": "s",
    "pipeline.self_s": "s",
    "pipeline.trace_overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span in SPANS:
        units[span + "_s"] = "s"
        units[span + "_calls"] = "count"
    units.update(DERIVED_UNITS)
    return units


class Tracer:
    """Span store: parallel lists indexed by span id, parent -1 at top level."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.errors: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        names, starts, ends, parents, open_ = (self.names, self.starts, self.ends,
                                               self.parents, self._open)
        errors, clock = self.errors, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            starts.append(0.0)
            ends.append(0.0)
            open_.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                ends[idx] = clock()
                open_.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def self_times(self) -> tuple[dict[str, float], Counter, float]:
        """(self seconds per span name, calls per span name, top-level seconds)."""
        child = [0.0] * len(self.names)
        top = 0.0
        for i, parent in enumerate(self.parents):
            duration = self.ends[i] - self.starts[i]
            if parent >= 0:
                child[parent] += duration
            else:
                top += duration
        self_s = dict.fromkeys(SPANS, 0.0)
        calls = Counter(self.names)
        for i, name in enumerate(self.names):
            self_s[name] += self.ends[i] - self.starts[i] - child[i]
        return self_s, calls, top


class Probe:
    """Wrappers plus the observations the derived metrics need."""

    def __init__(self):
        self.tracer = Tracer()
        self.texts: list[str] = []
        self.trees = weakref.WeakSet()
        self.distinct_trees = 0
        self.change_lists: dict[int, list] = {}
        self.actions = 0
        self.empty_diffs = 0
        self.graph = None
        self.live_checkpoints = 0
        self.peak_checkpoints = 0

    # -- observers -------------------------------------------------------------

    def _extracted(self, args, result):
        tree = args[0]
        if tree not in self.trees:
            self.trees.add(tree)
            self.distinct_trees += 1

    def _changes(self, args, result):
        self.change_lists[id(result)] = result

    def _script(self, args, result):
        self.actions += len(result)

    def _diffed(self, args, result):
        self.empty_diffs += not result[2]

    def _updated(self, args, result):
        self.graph = args[0]

    def _checkpointed(self, args, result):
        self.live_checkpoints += 1
        self.peak_checkpoints = max(self.peak_checkpoints, self.live_checkpoints)

    def _discarded(self, args, result):
        self.live_checkpoints -= 1

    # -- installation ----------------------------------------------------------------

    def install(self):
        """Wrap every target that exists; absent ones simply record no spans."""
        from devcontrib import callgraph, syntax

        observers = {
            "repo.changed_files": self._changes,
            "syntax.extract_functions": self._extracted,
            "astdiff.diff_file_pair": self._diffed,
            "astdiff.edit_script": self._script,
            "callgraph.update": self._updated,
            "callgraph.checkpoint": self._checkpointed,
            "callgraph.discard": self._discarded,
        }
        for module_name, attr, span in MODULE_TARGETS:
            module = importlib.import_module(f"devcontrib.{module_name}")
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.tracer.wrap(span, fn, observers.get(span)))
        for cls_name, attr, span in METHOD_TARGETS:
            cls = getattr(callgraph, cls_name)
            fn = getattr(cls, attr, None)
            if fn is not None:
                setattr(cls, attr, self.tracer.wrap(span, fn, observers.get(span)))
        java = syntax._ADAPTERS["java"]

        def parse(text, path=None):
            self.texts.append(text)
            return java(text, path)

        syntax.register_adapter("java", self.tracer.wrap(PARSE_SPAN, parse), (".java",))
        return self

    # -- results ------------------------------------------------------------------------

    def metrics(self, run, traced_s: float, save_s: float) -> dict:
        """Per-layer metrics of a finished traced run, except the overhead
        ratio, which needs the untraced run of another process."""
        self_s, calls, top = self.tracer.self_times()
        out = {}
        for span in SPANS:
            out[span + "_s"] = self_s[span]
            out[span + "_calls"] = calls[span]

        blobs = binary = text_bytes = 0
        for changes in self.change_lists.values():
            for change in changes:
                for blob, content in ((change.before_blob, change.before_content),
                                      (change.after_blob, change.after_content)):
                    if not blob:
                        continue
                    blobs += 1
                    if content is None:
                        binary += 1
                    else:
                        text_bytes += len(content.encode("utf-8"))
        parsed_kb = sum(len(t.encode("utf-8")) for t in self.texts) / 1024
        parse_calls, parse_s = calls[PARSE_SPAN], self_s[PARSE_SPAN]
        unique = len(set(self.texts))
        extract_calls = calls["syntax.extract_functions"]
        diff_calls = calls["astdiff.diff_file_pair"]
        out.update({
            "repo.blobs_fetched": blobs,
            "repo.blob_kb": text_bytes / 1024,
            "repo.binary_blobs": binary,
            "syntax.parse_unique_texts": unique,
            "syntax.parse_useful_ratio": unique / parse_calls if parse_calls else 0.0,
            "syntax.parse_errors": self.tracer.errors[PARSE_SPAN],
            "syntax.parse_kb_per_s": parsed_kb / parse_s if parse_s else 0.0,
            "syntax.extract_functions_useful_ratio":
                self.distinct_trees / extract_calls if extract_calls else 0.0,
            "astdiff.actions": self.actions,
            "astdiff.empty_diff_ratio": self.empty_diffs / diff_calls if diff_calls else 0.0,
            "callgraph.nodes_final": len(self.graph.nodes) if self.graph is not None else 0,
            "callgraph.edges_final": len(self.graph.edges) if self.graph is not None else 0,
            "callgraph.checkpoints_live_peak": self.peak_checkpoints,
            "pipeline.records": sum(len(c.records) for c in run.commits),
            "pipeline.save_s": save_s,
            "pipeline.traced_analyze_s": traced_s,
            "pipeline.self_s": traced_s - top,
        })
        return out
