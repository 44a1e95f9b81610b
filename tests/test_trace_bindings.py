"""The names the traced benchmark run wraps still exist in ``devcontrib``,
and a traced run records spans through them.

``benchmarks/tracing.py`` installs its per-layer spans from outside ``src/``
and skips a name that is gone without a word, so a deleted or renamed
binding, or one the pipeline no longer calls through, would silently drop
its span from the per-layer metrics.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import devcontrib
from devcontrib import callgraph, report, syntax
from devcontrib.pipeline import analyze_repository
from oracles import build_call_graph

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
_spec = importlib.util.spec_from_file_location("benchmark_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# Listed by the benchmark but gone since each tree carries its function units
# (``SyntaxTree.functions``), which the parse builds.
UNBOUND = {("pipeline", "extract_functions"), ("callgraph", "extract_functions"),
           ("syntax", "extract_functions")}


def test_every_module_span_has_a_binding():
    missing = {(module, attr) for module, attr, _ in tracing.MODULE_TARGETS
               if not hasattr(importlib.import_module(f"devcontrib.{module}"), attr)}
    assert missing <= UNBOUND
    bound = {span for module, attr, span in tracing.MODULE_TARGETS
             if (module, attr) not in missing}
    # every span but the extraction one, which records nothing (see below)
    assert bound == {span for _, _, span in tracing.MODULE_TARGETS} - {
        "syntax.extract_functions"}


def test_every_method_target_resolves():
    for cls, method, _ in tracing.METHOD_TARGETS:
        assert callable(getattr(getattr(callgraph, cls), method)), (cls, method)


def test_parse_span_hooks_exist():
    assert callable(syntax._ADAPTERS["java"])
    assert callable(syntax.register_adapter)
    # the benchmark's wrapper calls the adapter as ``java(text, path)``
    assert isinstance(syntax._ADAPTERS["java"]("class A { }", None), syntax.SyntaxTree)


def test_the_adapter_takes_the_previous_tree_as_its_second_positional_argument():
    # the benchmark's wrapper forwards it as ``java(text, path)``, so each
    # parse against a previous tree is still timed in the parse span
    java = syntax._ADAPTERS["java"]
    before = "class A { int f() { return 1; } int g() { return 2; } }"
    after = before.replace("return 1;", "return 10;")
    reparsed = java(after, java(before, None))
    fresh = java(after, None)
    assert (reparsed.reused_members, fresh.reused_members) == (1, 0)
    assert [(n.kind, n.label, n.start, n.end, n.height) for n in reparsed.root.walk()] == \
        [(n.kind, n.label, n.start, n.end, n.height) for n in fresh.root.walk()]
    assert [(u.qualified_name, u.span, u.calls) for u in reparsed.functions] == \
        [(u.qualified_name, u.span, u.calls) for u in fresh.functions]


def test_final_graph_counts_are_sets():
    # the traced run reports len(graph.nodes) and len(graph.edges) of the last graph
    graph = build_call_graph(
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


# Run in a fresh interpreter: ``Probe.install`` rebinds module attributes and
# methods for the rest of the process.
_TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("benchmark_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
probe = tracing.Probe().install()
from devcontrib.pipeline import analyze_repository
run = analyze_repository(sys.argv[2])
print(json.dumps(probe.metrics(run, traced_s=1.0, save_s=0.0)))
"""


def test_traced_run_records_parse_update_and_diff_spans(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"A.java": "class A { int f() { return g(); } int g() { return 1; } }",
                               "B.java": "class B { int k() { return h(); } }"})
    repo.commit("move", 2000, rename={"A.java": "src/A.java"})
    repo.commit("edit", 3000, {"src/A.java": "class A { int f() { return g() + 1; } "
                                             "int g() { return 1; } }"})
    # adds A.h(), which B's call to h() now resolves to
    repo.commit("add", 4000, {"src/A.java": "class A { int f() { return g() + 1; } "
                                            "int g() { return 1; } int h() { return 2; } }"})
    env = dict(os.environ, PYTHONPATH=str(Path(devcontrib.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(_TRACING), repo.path],
                          env=env, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout)
    for name in ("syntax.parse_calls", "callgraph.update_calls",
                 "callgraph.resolve_file_calls", "callgraph.reresolve_names_calls",
                 "astdiff.diff_file_pair_calls", "pdg.build_pdg_calls",
                 "pdg.changed_nodes_calls"):
        assert metrics[name] > 0, name
    # the units are built inside the ``syntax.parse`` span, and no layer
    # derives them again, so the extraction span records nothing
    assert metrics["syntax.extract_functions_calls"] == 0


def test_traced_run_discards_every_checkpoint_it_takes(make_repo):
    # base is a fork, restored for main1: it is checkpointed once and
    # discarded after its last read; side1, a merge parent, is not kept
    repo = make_repo()
    a = "class A { int f() { return g(); } int g() { return 1; } }"
    repo.commit("base", 1000, {"A.java": a})
    repo.branch("side")
    repo.commit("side1", 2000, {"B.java": "class B { int k() { return f(); } }"})
    repo.checkout("main")
    repo.commit("main1", 3000, {"A.java": a.replace("return 1;", "return 2;")})
    repo.merge("side", 4000)
    env = dict(os.environ, PYTHONPATH=str(Path(devcontrib.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(_TRACING), repo.path],
                          env=env, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout)
    assert metrics["callgraph.checkpoint_calls"] == metrics["callgraph.discard_calls"] == 1
    assert metrics["callgraph.restore_calls"] == 1
    assert metrics["callgraph.checkpoints_live_peak"] >= 1
