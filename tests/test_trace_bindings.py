"""The names the traced benchmark run wraps still exist in ``devcontrib``.

``benchmarks/tracing.py`` installs its per-layer spans from outside ``src/``
and skips a name that is gone without a word, so a deleted or renamed
binding would silently drop its span from the per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

from devcontrib import callgraph, report, syntax
from devcontrib.pipeline import analyze_repository

_spec = importlib.util.spec_from_file_location(
    "benchmark_tracing", Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# Listed by the benchmark but gone since each tree caches its function units
# (``SyntaxTree.functions``): every call goes through ``syntax.extract_functions``,
# which carries the same span.
UNBOUND = {("pipeline", "extract_functions"), ("callgraph", "extract_functions")}


def test_every_module_span_has_a_binding():
    missing = {(module, attr) for module, attr, _ in tracing.MODULE_TARGETS
               if not hasattr(importlib.import_module(f"devcontrib.{module}"), attr)}
    assert missing <= UNBOUND
    bound = {span for module, attr, span in tracing.MODULE_TARGETS
             if (module, attr) not in missing}
    assert bound == {span for _, _, span in tracing.MODULE_TARGETS}


def test_every_method_target_resolves():
    for cls, method, _ in tracing.METHOD_TARGETS:
        assert callable(getattr(getattr(callgraph, cls), method)), (cls, method)


def test_parse_span_hooks_exist():
    assert callable(syntax._ADAPTERS["java"])
    assert callable(syntax.register_adapter)
    # the benchmark's wrapper calls the adapter as ``java(text, path)``
    assert isinstance(syntax._ADAPTERS["java"]("class A { }", None), syntax.SyntaxTree)


def test_final_graph_counts_are_sets():
    # the traced run reports len(graph.nodes) and len(graph.edges) of the last graph
    graph = callgraph.build_call_graph(
        {"A.java": "class A { void f() { g(); h(); g(); } void g() { } }"})
    assert isinstance(graph.nodes, set) and len(graph.nodes) == 3  # f, g, external:h
    assert isinstance(graph.edges, set) and len(graph.edges) == 2


def test_pipeline_reaches_aggregate_through_the_report_module(make_repo, monkeypatch):
    # the benchmark wraps ``report.aggregate_by_developer`` after ``pipeline`` is
    # imported; a name bound in ``pipeline`` at import time would bypass the wrapper
    calls = []
    aggregate = report.aggregate_by_developer

    def counting(run):
        calls.append(run)
        return aggregate(run)

    monkeypatch.setattr(report, "aggregate_by_developer", counting)
    repo = make_repo()
    repo.commit("init", 1000, {"A.java": "class A { int f() { return 1; } }"})
    repo.commit("edit", 2000, {"A.java": "class A { int f() { return 2; } }"})
    run = analyze_repository(repo.path)
    assert calls == [run]
