import hashlib
import logging
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devcontrib import syntax
from devcontrib.callgraph import (
    EXTERNAL_PREFIX,
    Adjacency,
    CallGraph,
    CheckpointStore,
    FunctionId,
    backward_propagate,
    call_units,
    inter_impact,
    pagerank,
)
from devcontrib.config import AnalysisConfig
from devcontrib.errors import UnknownCheckpoint
from devcontrib.pipeline import AnalysisRun, PipelineState, current_impact, parse_changes
from devcontrib.repo import FileChange
from oracles import (
    build_call_graph,
    reference_adjacency,
    reference_backward_propagate,
    reference_call_sites,
    reference_pagerank,
    reference_rank_propagation,
    reference_targets,
    reference_units,
)

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "Idioms.java"


def _change(path, kind, before_content=None, after_content=None, old_path=None):
    """A ``FileChange`` whose blob ids are content hashes, as git's are."""
    def blob(text):
        return None if text is None else hashlib.sha1(text.encode()).hexdigest()

    return FileChange(path=path, kind=kind, before_content=before_content,
                      after_content=after_content, old_path=old_path,
                      before_blob=blob(before_content), after_blob=blob(after_content))


def _update(graph, changes):
    """Advance ``graph`` the way the pipeline does: parse, then update."""
    return graph.update(parse_changes(changes, AnalysisRun("", {})))


def test_single_file_call_edge():
    g = build_call_graph({"X.java": "class X { void f() { g(); } void g() { } }"})
    nodes, edges = g.structure()
    assert FunctionId("X.f()", "X.java") in nodes
    assert (FunctionId("X.f()", "X.java"), FunctionId("X.g()", "X.java")) in edges


def test_unresolved_call_becomes_external_node():
    g = build_call_graph({"X.java": "class X { void f() { h(1); } }"})
    nodes, edges = g.structure()
    external = FunctionId("external:h", "")
    assert external in nodes
    assert (FunctionId("X.f()", "X.java"), external) in edges


def test_dollar_lambda_in_a_name_is_still_a_method():
    # "$" is legal in Java names: only a lambda expression is a lambda unit
    g = build_call_graph({
        "A.java": "class A { void f() { run$lambda(); } void run$lambda() { } }",
        "B.java": "class Foo$lambdaX { void g() { Runnable r = () -> h(); } void h() { } }",
    })
    nodes, edges = g.structure()
    f, run = FunctionId("A.f()", "A.java"), FunctionId("A.run$lambda()", "A.java")
    g_, h = FunctionId("Foo$lambdaX.g()", "B.java"), FunctionId("Foo$lambdaX.h()", "B.java")
    assert {f, run, g_, h} <= set(nodes)
    assert FunctionId("external:run$lambda", "") not in nodes
    assert (f, run) in edges
    assert (g_, h) in edges  # the lambda's call belongs to its enclosing method


def test_anonymous_class_methods_are_their_own_units():
    g = build_call_graph({"A.java": """class A {
        void f() { new Object() { public String toString() { return g(); } }; }
        public String toString() { return "a"; }
        void g() { }
    }"""})
    names = [fid.name for fid in g.files["A.java"].functions]
    assert sorted(names) == ["A$1.toString()", "A.f()", "A.g()", "A.toString()"]
    anonymous, a_g = FunctionId("A$1.toString()", "A.java"), FunctionId("A.g()", "A.java")
    assert (anonymous, a_g) in g.edges
    assert (FunctionId("A.toString()", "A.java"), a_g) not in g.edges


# Each source pins one corner of the call-site rule.
_SITE_CASES = {
    "anonymous_class_in_arguments": """class A {
        void f() { run(new Base() { int x = g(); void m() { h(); } }); }
    }""",
    "lambda_in_a_field_initializer": """class A {
        Runnable r = () -> g();
        void f() { }
    }""",
    "member_class_inside_an_anonymous_class": """class A {
        void f() {
            Object o = new Object() { class In { int x = g(); void m() { h(); } } };
        }
    }""",
    "this_super_and_call_result_callees": """class A {
        A() { this(1); }
        A(int x) { super(x); }
        void f() { this.g(); super.h(); a().b(); this.c.d(); p.q.r(); }
    }""",
    "generic_and_array_types": """class A {
        void f() { new Foo<Bar>(); new p.Baz<Q<R>>(1); int[] xs = new int[3]; }
    }""",
}

_SITE_EXPECTED = {
    "anonymous_class_in_arguments": [("A.f()", "run"), ("A.f()", "Base"),
                                     ("A.f()", "g"), ("A$1.m()", "h")],
    "lambda_in_a_field_initializer": [],
    "member_class_inside_an_anonymous_class": [("A.f()", "Object"), ("A.f()", "g"),
                                               ("A$1.In.m()", "h")],
    "this_super_and_call_result_callees": [("A.f()", "g"), ("A.f()", "h"), ("A.f()", "b"),
                                           ("A.f()", "a"), ("A.f()", "c.d"),
                                           ("A.f()", "p.q.r")],
    "generic_and_array_types": [("A.f()", "Foo"), ("A.f()", "p.Baz")],
}


def _sites(path, text):
    graph = CallGraph()
    tree = syntax.parse_source(text, "java")
    # the parse's units are those of the walk over the finished tree
    assert tree.functions == reference_units(tree)
    graph._add_file(path, call_units(tree))
    return graph.files[path].sites, reference_call_sites(path, tree.functions)


@pytest.mark.parametrize("case", sorted(_SITE_CASES))
def test_call_sites_follow_the_rule(case):
    sites, reference = _sites("A.java", _SITE_CASES[case])
    assert sites == reference
    assert [(site.caller.name, site.dotted) for site in sites] == _SITE_EXPECTED[case]
    assert all(site.simple == site.dotted.rsplit(".", 1)[-1] for site in sites)


def test_fixture_call_sites_equal_the_reference():
    sites, reference = _sites("Idioms.java", FIXTURE.read_text())
    assert len(sites) > 10
    assert sites == reference


def test_fixture_project_with_scripted_call_count():
    files = {
        "A.java": """class A {
            void start() { stepOne(); stepTwo(); }
            void stepOne() { helperB(); helperC(); }
            void stepTwo() { helperB(); }
        }""",
        "B.java": """class B {
            void helperB() { common(); }
            void common() { }
        }""",
        "C.java": """class C {
            void helperC() { common(); finish(); }
            void finish() { }
        }""",
        "D.java": """class D {
            void driver() { start(); finish(); }
        }""",
        "E.java": """class E {
            void probe() { driver(); start(); }
        }""",
    }
    g = build_call_graph(files)
    # scripted call sites: 2+2+1 +1 +2 +2 +2 = 12, all resolving uniquely
    assert len(g.structure()[1]) == 12
    assert all(not n.external for n in g.structure()[0])


def test_update_with_no_source_change_is_identity():
    files = {"A.java": "class A { void f() { g(); } void g() { } }"}
    g = build_call_graph(files)
    before = g.structure()
    _update(g, [_change(path="README.md", kind="modified",
                         before_content="a", after_content="b")])
    assert g.structure() == before


def test_delete_file_rewires_to_external():
    files = {
        "A.java": "class A { void f() { g(); } }",
        "B.java": "class B { void g() { } }",
    }
    g = build_call_graph(files)
    _update(g, [_change(path="B.java", kind="deleted")])
    expected = build_call_graph({"A.java": files["A.java"]})
    assert g.structure() == expected.structure()
    assert (FunctionId("A.f()", "A.java"), FunctionId("external:g", "")) in g.edges


def test_parse_error_removes_nodes_until_fixed():
    files = {"A.java": "class A { void f() { } }"}
    broken = "class A { void f( {"
    g = build_call_graph(files)
    _update(g, [_change(path="A.java", kind="modified",
                         before_content=files["A.java"], after_content=broken)])
    assert "A.java" not in g.files
    fixed = "class A { void f() { g(); } void g() { } }"
    _update(g, [_change(path="A.java", kind="modified",
                         before_content=broken, after_content=fixed)])
    assert g.structure() == build_call_graph({"A.java": fixed}).structure()


def _random_edit_sequence(rng, steps=25, body_edits=False):
    """Yields (changes, snapshot) pairs for a scripted evolution; with
    ``body_edits`` some steps add a call-free statement to one method."""
    bodies = ["{ }", "{ alpha(); }", "{ beta(); gamma(); }", "{ delta(1); }"]

    def file_text(seed, names):
        methods = "\n".join(
            f"    void {name}() {bodies[(seed + i) % len(bodies)]}"
            for i, name in enumerate(names))
        return "class F%d {\n%s\n}" % (seed, methods)

    state = {}
    for i in range(4):
        state[f"F{i}.java"] = file_text(i, [f"m{i}_{j}" for j in range(3)]
                                        + ["alpha", "beta"][: i % 3])
    yield None, dict(state)

    for step in range(steps):
        op = rng.randint(5 if body_edits else 4)
        changes = []
        if op == 4 and state:  # edit a method body, keeping every call
            path = sorted(state)[rng.randint(len(state))]
            before = state[path]
            state[path] = before.replace("() {", f"() {{ int v{step} = {step};", 1)
            changes.append(_change(path=path, kind="modified",
                                      before_content=before,
                                      after_content=state[path]))
        elif op == 0 and len(state) > 2:  # delete a file
            path = sorted(state)[rng.randint(len(state))]
            changes.append(_change(path=path, kind="deleted",
                                      before_content=state.pop(path)))
        elif op == 1:  # add a file
            path = f"G{step}.java"
            text = file_text(step, [f"n{step}_{j}" for j in range(rng.randint(1, 4))])
            state[path] = text
            changes.append(_change(path=path, kind="added", after_content=text))
        elif op == 2 and state:  # rename a file
            old = sorted(state)[rng.randint(len(state))]
            new = "R" + old
            text = state.pop(old)
            state[new] = text
            changes.append(_change(path=new, kind="renamed", old_path=old,
                                      before_content=text, after_content=text))
        else:  # edit a file
            path = sorted(state)[rng.randint(len(state))]
            text = file_text(step + 17, [f"e{step}_{j}"
                                         for j in range(rng.randint(1, 5))]
                             + ["alpha"])
            state[path] = text
            changes.append(_change(path=path, kind="modified",
                                      after_content=text))
        yield changes, dict(state)


def test_incremental_equals_full_rebuild_over_random_edits():
    rng = np.random.RandomState(3)
    it = _random_edit_sequence(rng)
    _, snapshot = next(it)
    graph = build_call_graph(snapshot)
    for changes, snapshot in it:
        _update(graph, changes)
        rebuilt = build_call_graph(snapshot)
        assert graph.structure() == rebuilt.structure()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_update_from_shared_trees_equals_rebuild(seed):
    it = _random_edit_sequence(np.random.RandomState(seed), steps=12, body_edits=True)
    _, snapshot = next(it)
    graph = build_call_graph(snapshot)
    java = syntax._ADAPTERS["java"]
    for changes, snapshot in it:
        parsed = []

        def recording(text, path=None):
            parsed.append(text)
            return java(text, path)

        with mock.patch.dict(syntax._ADAPTERS, {"java": recording}):
            run = AnalysisRun("", {})
            sources = list(parse_changes(changes, run))
            # no text is parsed twice, not even a renamed file's one blob
            assert len(parsed) == len(set(parsed)) == run.parses
            graph.update(sources)
            assert len(parsed) == run.parses
        assert graph.structure() == build_call_graph(snapshot).structure()


def _by_id(graph, impact):
    """``impact``'s scores by ``FunctionId``, read with ``graph``'s node ids."""
    return dict(zip(graph.structure()[0], impact.scores.tolist()))


def _fresh_impact(files, cfg):
    graph = build_call_graph(files)
    adjacency = graph.adjacency()
    ranked = pagerank(adjacency, damping=cfg.graph_damping, tol=cfg.graph_tol,
                      max_iter=cfg.graph_max_iter)
    return _by_id(graph, backward_propagate(adjacency, ranked.rank, decay=cfg.graph_decay))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_structure_change_clears_ranks_and_reused_ranks_equal_fresh(seed):
    it = _random_edit_sequence(np.random.RandomState(seed), steps=12,
                               body_edits=True)
    _, snapshot = next(it)
    cfg = AnalysisConfig()
    state = PipelineState(tree=None, config=cfg, run=AnalysisRun("", {}),
                          graph=build_call_graph(snapshot))
    store = CheckpointStore()
    for step, (changes, snapshot) in enumerate(it):
        structure = state.graph.structure()
        _update(state.graph, changes)
        if state.graph.structure() != structure:
            assert state.graph.impact is None
        impact = current_impact(state)
        assert _by_id(state.graph, impact) == _fresh_impact(snapshot, cfg)
        if step == 5:  # go on from a restored copy, as a sibling branch does
            store.checkpoint(state.graph, "fork")
            state.graph = store.restore("fork")
            assert state.graph.impact is impact
    assert state.run.rank_computations + state.run.rank_reuses == 12


def test_restored_sibling_is_ranked_afresh():
    main = {"A.java": "class A { void f() { g(); } void g() { } }"}
    side = {**main, "B.java": "class B { void h() { g(); } }"}
    store = CheckpointStore()
    store.checkpoint(build_call_graph(side), "side")
    store.checkpoint(build_call_graph(main), "main")
    cfg = AnalysisConfig()
    state = PipelineState(tree=None, config=cfg, run=AnalysisRun("", {}),
                          graph=store.restore("side"))
    current_impact(state)
    state.graph = store.restore("main")  # the sibling's ranks stay on its own graph
    assert _by_id(state.graph, current_impact(state)) == _fresh_impact(main, cfg)
    assert (state.run.rank_computations, state.run.rank_reuses) == (2, 0)


def test_body_only_update_keeps_ranks():
    files = {"A.java": "class A { void f() { g(); } void g() { } }"}
    g = build_call_graph(files)
    assert g.impact is None
    state = PipelineState(tree=None, config=AnalysisConfig(), run=AnalysisRun("", {}),
                          graph=g)
    ranks = current_impact(state)
    assert g.impact is ranks
    _update(g, [_change(path="A.java", kind="modified",
                         before_content=files["A.java"],
                         after_content="class A { void f() { g(); } void g() { int x = 1; } }")])
    assert g.impact is ranks
    _update(g, [_change(path="A.java", kind="modified",
                         after_content="class A { void f() { } void g() { } }")])
    assert g.impact is None


def test_a_condensation_holds_by_position_when_the_numbers_change():
    """Renaming ``g`` to ``g2`` gives it a new interner number but leaves
    every node's sorted position and every edge as they were, so the next
    ranking reuses the condensation, and scores as one that finds the SCCs
    afresh."""
    text = "class A {{ void f() {{ {0}(); }} void {0}() {{ f(); h(); }} void h() {{ }} }}"
    files = {"A.java": text.format("g")}
    g = build_call_graph(files)
    cfg = AnalysisConfig()
    state = PipelineState(tree=None, config=cfg, run=AnalysisRun("", {}), graph=g)
    kept = current_impact(state).condensation
    numbers = g.adjacency().numbers.tolist()
    _update(g, [_change("A.java", "modified", files["A.java"], text.format("g2"))])
    adjacency = g.adjacency()
    assert adjacency.numbers.tolist() != numbers
    impact = current_impact(state)
    assert impact.condensation is kept and state.run.condensation_reuses == 1
    fresh = backward_propagate(adjacency, pagerank(adjacency, damping=cfg.graph_damping,
                                                   tol=cfg.graph_tol,
                                                   max_iter=cfg.graph_max_iter).rank,
                               decay=cfg.graph_decay)
    assert fresh.condensation is not kept
    assert fresh.condensation.label.tolist() == kept.label.tolist() == [1, 1, 0]
    assert impact.scores.tolist() == fresh.scores.tolist()


def test_a_second_call_to_a_callee_already_called_keeps_ranks():
    files = {"A.java": "class A { void f() { g(); } void g() { } }"}
    g = build_call_graph(files)
    state = PipelineState(tree=None, config=AnalysisConfig(), run=AnalysisRun("", {}),
                          graph=g)
    ranks = current_impact(state)
    # f's sites go from one call of g to two: the distinct edges stay f -> g
    _update(g, [_change(path="A.java", kind="modified",
                         before_content=files["A.java"],
                         after_content="class A { void f() { g(); g(); } void g() { } }")])
    assert g.impact is ranks
    assert current_impact(state) is ranks
    assert (state.run.rank_computations, state.run.rank_reuses) == (1, 1)


def test_update_resolves_only_sites_a_change_can_move(monkeypatch):
    files = {"A.java": "class A { void f() { g(); h(); } void h() { } }",
             "B.java": "class B { void k() { g(); h(); A.g(); } }",
             "C.java": "class C { void c() { k(); g(); } }"}
    g = build_call_graph(files)
    resolved = []
    resolve_site = CallGraph._resolve_site

    def recording(self, site, local):
        resolved.append(site)
        return resolve_site(self, site, local)

    monkeypatch.setattr(CallGraph, "_resolve_site", recording)
    body_edit = "class A { void f() { g(); h(); } void h() { int x = 1; } }"
    _update(g, [_change(path="A.java", kind="modified",
                         before_content=files["A.java"], after_content=body_edit)])
    assert [site.caller.file for site in resolved] == ["A.java", "A.java"]

    resolved.clear()
    with_g = "class A { void f() { g(); h(); } void h() { int x = 1; } void g() { } }"
    _update(g, [_change(path="A.java", kind="modified",
                         before_content=body_edit, after_content=with_g)])
    outside = [(site.caller.file, site.dotted) for site in resolved
               if site.caller.file != "A.java"]
    assert sorted(outside) == [("B.java", "A.g"), ("B.java", "g"), ("C.java", "g")]
    files["A.java"] = with_g
    assert g.structure() == build_call_graph(files).structure()


def test_copies_carry_ranks_and_each_is_ranked_alone():
    files = {"A.java": "class A { void f() { g(); } void g() { } }"}
    cfg = AnalysisConfig()
    g = build_call_graph(files)
    store = CheckpointStore()
    store.checkpoint(g, "c1")
    first, second = store.restore("c1"), store.restore("c1")
    state = PipelineState(tree=None, config=cfg, run=AnalysisRun("", {}), graph=first)
    ranks = current_impact(state)
    assert first.impact is ranks and _by_id(first, ranks) == _fresh_impact(files, cfg)
    # ranking one restore leaves the original, the checkpoint and the other
    # restore unranked
    assert g.impact is None and second.impact is None
    assert store.restore("c1").impact is None

    copy = first.copy()
    assert copy.impact is ranks
    store.checkpoint(first, "c2")
    assert store.restore("c2").impact is ranks
    # a structural change to the copy clears its ranks only
    _update(copy, [_change(path="A.java", kind="modified",
                            after_content="class A { void f() { } void g() { } }")])
    assert copy.impact is None and first.impact is ranks


def test_checkpoint_restore_roundtrip_and_unknown():
    g = build_call_graph({"A.java": "class A { void f() { g(); } void g() { } }"})
    store = CheckpointStore()
    store.checkpoint(g, "c1")
    restored = store.restore("c1")
    assert restored.structure() == g.structure()
    with pytest.raises(UnknownCheckpoint):
        store.restore("nope")


def test_checkpoint_isolates_later_edits():
    files = {"A.java": "class A { void f() { g(); } void g() { } }"}
    g = build_call_graph(files)
    store = CheckpointStore()
    store.checkpoint(g, "fork")
    _update(g, [_change(path="A.java", kind="modified",
                         after_content="class A { void f() { } }")])
    restored = store.restore("fork")
    assert restored.structure() == build_call_graph(files).structure()
    assert restored.structure() != g.structure()


def test_checkpoints_share_file_entries():
    files = {"A.java": "class A { void f() { g(); } void g() { } }",
             "B.java": "class B { void h() { f(); } }"}
    g = build_call_graph(files)
    store = CheckpointStore()
    store.checkpoint(g, "fork")
    restored = store.restore("fork")
    assert restored.files.keys() == g.files.keys()
    assert all(restored.files[path] is entry for path, entry in g.files.items())
    kept = dict(restored.files)
    _update(g, [_change(path="B.java", kind="modified", before_content=files["B.java"],
                         after_content="class B { void h() { f(); f(); } }")])
    assert [path for path in g.files if g.files[path] is not kept[path]] == ["B.java"]
    assert all(restored.files[path] is entry for path, entry in kept.items())
    assert all(store.restore("fork").files[path] is entry for path, entry in kept.items())


def test_nested_fork_checkpoints():
    # A.f calls g, which is external until a later file defines it: the
    # re-resolution of A.java must reach neither checkpoint
    s0 = {"A.java": "class A { void f() { g(); } }"}
    s1 = {**s0, "B.java": "class B { void h() { f(); } }"}
    a_f, external_g = FunctionId("A.f()", "A.java"), FunctionId("external:g", "")
    g = build_call_graph(s0)
    store = CheckpointStore()
    store.checkpoint(g, "outer")
    _update(g, [_change(path="B.java", kind="added", after_content=s1["B.java"])])
    store.checkpoint(g, "inner")
    _update(g, [_change(path="C.java", kind="added",
                         after_content="class C { void k() { h(); } void g() { } }")])
    assert (a_f, FunctionId("C.g()", "C.java")) in g.edges
    inner = store.restore("inner")
    outer = store.restore("outer")
    assert inner.structure() == build_call_graph(s1).structure()
    assert (a_f, external_g) in outer.edges
    _update(outer, [_change(path="D.java", kind="added",
                             after_content="class D { void g() { } }")])
    assert (a_f, external_g) not in outer.edges
    assert store.restore("outer").structure() == build_call_graph(s0).structure()
    assert len(store) == 2  # a restore keeps its checkpoint


def _apply(snapshot, changes):
    """``snapshot`` after ``changes``, which may come from another history."""
    out = dict(snapshot)
    for change in changes:
        if change.kind == "renamed":
            out.pop(change.old_path, None)
        if change.kind == "deleted":
            out.pop(change.path, None)
        else:
            out[change.path] = change.after_content
    return out


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_checkpoint_unchanged_by_later_updates(seed, branch_seed, fork_step):
    """After the fork the live graph and a restored branch take different
    edits; the checkpoint still restores to its snapshot and then updates
    like a rebuild."""
    steps = list(_random_edit_sequence(np.random.RandomState(seed), steps=12,
                                       body_edits=True))
    branch_steps = [changes for changes, _ in _random_edit_sequence(
        np.random.RandomState(branch_seed), steps=12, body_edits=True)][1:]
    fork = steps[fork_step][1]
    live = build_call_graph(steps[0][1])
    for changes, _ in steps[1:fork_step + 1]:
        _update(live, changes)
    store = CheckpointStore()
    store.checkpoint(live, "fork")
    branch = store.restore("fork")
    for changes, _ in steps[fork_step + 1:]:
        _update(live, changes)
    for changes in branch_steps:
        _update(branch, changes)
    restored = store.restore("fork")
    assert restored.structure() == build_call_graph(fork).structure()
    snapshot = fork
    for changes in branch_steps:
        _update(restored, changes)
        snapshot = _apply(snapshot, changes)
        assert restored.structure() == build_call_graph(snapshot).structure()
    assert branch.structure() == restored.structure()


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

# Callees with dotted paths, overloads, a constructor, a nested class, a
# receiver that names no class, and a name no file defines.
_CALLEES = ["m()", "m(1)", "n()", "k()", "F1.m()", "F2.n(1)", "Outer.Inner.m()",
            "Inner.k()", "Outer.m()", "this.n()", "new F1()", "new Outer.Inner()",
            "x.m()", "absent()"]
_PATHS = ["A.java", "B.java", "C.java", "pkg/D.java", "pkg/E.java"]

# (name, has an int parameter, callees, body stamp); "ctor" is a constructor
_method = st.tuples(st.sampled_from(["m", "n", "k", "ctor"]), st.booleans(),
                    st.lists(st.sampled_from(_CALLEES), max_size=3).map(tuple), st.just(0))
_methods = st.lists(_method, max_size=3).map(tuple)
# (class name, its methods, the methods of its nested ``Inner`` or None);
# several files may declare one class name
_classes = st.tuples(st.sampled_from(["F1", "F2", "Outer"]), _methods,
                     st.none() | _methods)


def _java(model) -> str:
    name, methods, inner = model

    def method(owner, m):
        simple, param, callees, stamp = m
        head = owner if simple == "ctor" else f"void {simple}"
        calls = " ".join(f"{callee};" for callee in callees)
        return f"  {head}({'int a' if param else ''}) {{ int v = {stamp}; {calls} }}"

    lines = [f"class {name} {{"] + [method(name, m) for m in methods]
    if inner is not None:
        lines += ["  class Inner {"] + [method("Inner", m) for m in inner] + ["  }"]
    return "\n".join(lines + ["}"])


def _edit_methods(data, model):
    """``model`` with one method of the class or of its nested class added,
    removed, renamed or edited in its body only."""
    name, methods, inner = model
    nested = inner is not None and data.draw(st.booleans())
    members = list(inner if nested else methods)
    op = data.draw(st.sampled_from(["add", "remove", "rename", "body"]))
    if op == "add" or not members:
        members.append(data.draw(_method))
    else:
        i = data.draw(st.integers(0, len(members) - 1))
        simple, param, callees, stamp = members[i]
        if op == "remove":
            del members[i]
        elif op == "rename":
            members[i] = (data.draw(st.sampled_from(["m", "n", "k", "ctor"])),
                          param, callees, stamp)
        else:
            members[i] = (simple, param, callees, stamp + 1)
    if nested:
        return name, methods, tuple(members)
    return name, tuple(members), inner


def _draw_step(data, models):
    """One commit on ``models`` (path -> class model): the changes and the
    models after them."""
    models = dict(models)
    free = [path for path in _PATHS if path not in models]
    ops = ["edit", "edit", "rewrite", "delete", "rename"] if models else []
    op = data.draw(st.sampled_from(ops + ["add"] * bool(free)))
    if op == "add":
        path = data.draw(st.sampled_from(free))
        models[path] = data.draw(_classes)
        return [_change(path, "added", after_content=_java(models[path]))], models
    path = data.draw(st.sampled_from(sorted(models)))
    before = _java(models[path])
    if op == "delete":
        del models[path]
        return [_change(path, "deleted", before_content=before)], models
    if op == "rename" and free:
        new = data.draw(st.sampled_from(free))
        models[new] = models.pop(path)
        return [_change(new, "renamed", before_content=before,
                        after_content=before, old_path=path)], models
    if op == "rewrite":
        models[path] = data.draw(_classes)
    else:
        models[path] = _edit_methods(data, models[path])
    return [_change(path, "modified", before_content=before,
                    after_content=_java(models[path]))], models


def _assert_resolves_like_rebuild(graph, models):
    rebuilt = build_call_graph({path: _java(model) for path, model in models.items()})
    assert graph.files.keys() == rebuilt.files.keys()
    reference = reference_targets(graph)
    for path, entry in graph.files.items():
        assert entry.targets == rebuilt.files[path].targets == reference[path], path
    numbers, src, dst, _ = graph.adjacency()
    reference = reference_adjacency(graph)
    assert numbers.tolist() == reference.numbers.tolist()
    assert graph.structure()[0] == rebuilt.structure()[0]
    for adjacency in (rebuilt.adjacency(), reference):
        assert src.dtype == dst.dtype == np.int64
        assert src.tolist() == adjacency.src.tolist()
        assert dst.tolist() == adjacency.dst.tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_resolution_equals_rebuild_and_reference_across_a_fork(data):
    """Every file's targets and ``adjacency()`` equal a rebuild's and the
    reference resolution's after each commit, on a main line and on a
    branch restored from a checkpoint taken partway."""
    models = data.draw(st.dictionaries(st.sampled_from(_PATHS), _classes,
                                       min_size=1, max_size=4))
    graph = build_call_graph({path: _java(model) for path, model in models.items()})
    _assert_resolves_like_rebuild(graph, models)
    store = CheckpointStore()
    fork = data.draw(st.integers(0, 4))
    forked = None
    for step in range(8):
        if step == fork:
            store.checkpoint(graph, "fork")
            forked = models
        changes, models = _draw_step(data, models)
        _update(graph, changes)
        _assert_resolves_like_rebuild(graph, models)
    branch = store.restore("fork")
    branch_models = forked
    for _ in range(4):
        changes, branch_models = _draw_step(data, branch_models)
        _update(branch, changes)
        _assert_resolves_like_rebuild(branch, branch_models)
    _assert_resolves_like_rebuild(graph, models)


# ---------------------------------------------------------------------------
# pagerank
# ---------------------------------------------------------------------------

def _graph_from_edges(n, edges):
    """Synthetic CallGraph with nodes f0..f{n-1} and the given edge list."""
    g = CallGraph()
    methods = "\n".join(f"    void f{i}() {{ {' '.join(f'f{j}();' for j in sorted(js))} }}"
                        for i, js in _adj_dict(n, edges).items())
    text = "class S {\n%s\n}" % methods
    g2 = build_call_graph({"S.java": text})
    return g2


def _adj_dict(n, edges):
    adj = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
    return adj


def _dense_pagerank(n, edges, damping=0.85, iters=3000):
    """Independent dense-matrix power iteration oracle."""
    adj = _adj_dict(n, edges)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        nxt = np.full(n, (1.0 - damping) / n)
        for i, outs in adj.items():
            if outs:
                for j in outs:
                    nxt[j] += damping * r[i] / len(outs)
            else:
                nxt += damping * r[i] / n
        r = nxt
    return r


def _ranks(g, **options):
    """``g``'s PageRank by ``FunctionId``."""
    return dict(zip(g.structure()[0], pagerank(g.adjacency(), **options).rank.tolist()))


def test_pagerank_single_isolated_node():
    g = build_call_graph({"S.java": "class S { void only() { } }"})
    assert pagerank(g.adjacency()).rank.tolist() == [1.0]


def test_pagerank_symmetric_two_cycle():
    g = _graph_from_edges(2, [(0, 1), (1, 0)])
    scores = _ranks(g)
    assert all(abs(v - 0.5) < 1e-12 for v in scores.values())


def test_pagerank_matches_dense_oracle_on_dag():
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    g = _graph_from_edges(4, edges)
    mine = _ranks(g, tol=1e-14, max_iter=1000)
    oracle = _dense_pagerank(4, edges)
    by_name = {fid.name: v for fid, v in mine.items()}
    for i in range(4):
        assert abs(by_name[f"S.f{i}()"] - oracle[i]) < 1e-8
    assert abs(sum(mine.values()) - 1.0) < 1e-6
    assert all(v >= 0 for v in mine.values())


def test_pagerank_matches_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = np.random.RandomState(5)
    for trial in range(10):
        n = int(rng.randint(3, 10))
        edges = {(int(rng.randint(n)), int(rng.randint(n))) for _ in range(n * 2)}
        g = _graph_from_edges(n, edges)
        mine = {fid.name: v for fid, v in _ranks(g, tol=1e-13, max_iter=2000).items()}
        G = nx.DiGraph()
        G.add_nodes_from(f"S.f{i}()" for i in range(n))
        G.add_edges_from((f"S.f{a}()", f"S.f{b}()") for a, b in edges)
        ref = nx.pagerank(G, alpha=0.85, tol=1e-13, max_iter=2000)
        for name, value in ref.items():
            assert abs(mine[name] - value) < 1e-7


# ---------------------------------------------------------------------------
# backward propagation
# ---------------------------------------------------------------------------

def _brute_force_tmp(adj, pr, decay):
    """Path-sum oracle on a DAG: leaves keep pr; internal nodes sum
    pr(leaf) * decay^len(path) over every path to every reachable leaf."""
    tmp = {}

    def paths(node):
        outs = adj[node]
        if not outs:
            return {(): pr[node]}  # zero-length path at a leaf
        acc = {}
        for child in outs:
            for path, mass in paths(child).items():
                acc[(child,) + path] = mass
        return acc

    for node in adj:
        if not adj[node]:
            tmp[node] = pr[node]
        else:
            tmp[node] = sum(mass * decay ** len(path)
                            for path, mass in paths(node).items())
    return tmp


def _ranked(g, decay):
    """``g``'s PageRank and impact scores, each by ``FunctionId``."""
    adjacency = g.adjacency()
    rank = pagerank(adjacency).rank
    impact = backward_propagate(adjacency, rank, decay=decay)
    return dict(zip(g.structure()[0], rank.tolist())), _by_id(g, impact)


def test_propagation_single_node_doubles():
    g = build_call_graph({"S.java": "class S { void only() { } }"})
    pr, scores = _ranked(g, decay=0.5)
    fid = next(iter(pr))
    assert scores[fid] - pr[fid] == pytest.approx(pr[fid])
    assert scores[fid] == pytest.approx(2 * pr[fid])


def test_propagation_chain_identity():
    g = _graph_from_edges(3, [(0, 1), (1, 2)])
    pr, scores = _ranked(g, decay=0.5)
    name = {fid.name.split(".")[-1]: fid for fid in pr}
    a, b, c = name["f0()"], name["f1()"], name["f2()"]
    assert scores[c] == pytest.approx(2 * pr[c], rel=1e-12)
    assert scores[b] == pytest.approx(pr[b] + 0.5 * pr[c], rel=1e-12)
    assert scores[a] == pytest.approx(pr[a] + 0.25 * pr[c], rel=1e-12)


def test_propagation_matches_bruteforce_on_random_dags():
    rng = np.random.RandomState(9)
    for trial in range(60):
        n = int(rng.randint(2, 13))
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.rand() < 0.3:
                    edges.add((i, j))
        g = _graph_from_edges(n, edges)
        pr = {fid: float(rng.rand()) + 0.01 for fid in sorted(g.nodes)}
        decay = float(rng.choice([0.0, 0.3, 0.5, 0.9, 1.0]))
        rank = np.array([pr[fid] for fid in g.structure()[0]])
        scores = _by_id(g, backward_propagate(g.adjacency(), rank, decay=decay))
        adj = {i: sorted(_adj_dict(n, edges)[i]) for i in range(n)}
        index = {fid.name: fid for fid in g.nodes}
        pr_by_idx = {i: pr[index[f"S.f{i}()"]] for i in range(n)}
        oracle = _brute_force_tmp(adj, pr_by_idx, decay)
        for i in range(n):
            fid = index[f"S.f{i}()"]
            assert abs(scores[fid] - pr[fid] - oracle[i]) < 1e-9
            assert abs(scores[fid] - (pr[fid] + oracle[i])) < 1e-9


def test_propagation_two_cycle_with_leaf_splits_mass():
    g = _graph_from_edges(3, [(0, 1), (1, 0), (0, 2), (1, 2)])
    pr, scores = _ranked(g, decay=0.5)
    name = {fid.name.split(".")[-1]: fid for fid in pr}
    leaf_mass = pr[name["f2()"]]
    for f in (name["f0()"], name["f1()"]):
        assert scores[f] - pr[f] == pytest.approx(0.5 * leaf_mass / 2, rel=1e-12)


def test_propagation_invariants_on_cyclic_graphs():
    rng = np.random.RandomState(13)
    for trial in range(30):
        n = int(rng.randint(2, 10))
        edges = {(int(rng.randint(n)), int(rng.randint(n))) for _ in range(n * 2)}
        g = _graph_from_edges(n, edges)
        pr, scores = _ranked(g, decay=0.5)
        assert set(scores) == g.nodes
        for fid in g.nodes:
            assert scores[fid] - pr[fid] >= 0


def test_decay_zero_keeps_only_leaf_mass():
    g = _graph_from_edges(3, [(0, 1), (1, 2)])
    pr, scores = _ranked(g, decay=0.0)
    name = {fid.name.split(".")[-1]: fid for fid in pr}
    f0, f1, f2 = name["f0()"], name["f1()"], name["f2()"]
    assert scores[f2] - pr[f2] == pytest.approx(pr[f2])
    assert scores[f1] - pr[f1] == 0.0
    assert scores[f0] - pr[f0] == 0.0


def test_inter_impact_absent_function_is_zero():
    g = build_call_graph({"S.java": "class S { void only() { } }"})
    scores = backward_propagate(g.adjacency(), pagerank(g.adjacency()).rank, decay=0.5)
    assert inter_impact(scores, FunctionId("S.missing()", "S.java")) == 0.0
    # a function numbered after the ranking is past the end of its map
    _update(g, [_change(path="T.java", kind="added", after_content="class T { void t() { } }")])
    assert g._interner.numbers[FunctionId("T.t()", "T.java")] >= len(scores.position)
    assert inter_impact(scores, FunctionId("T.t()", "T.java")) == 0.0


def test_mid_chain_ordering():
    # handlers -> dispatch -> utils: dispatch should outrank both layers
    src = """class S {
        void h1() { dispatch(); }
        void h2() { dispatch(); }
        void h3() { dispatch(); }
        void dispatch() { u1(); u2(); }
        void u1() { }
        void u2() { }
    }"""
    g = build_call_graph({"S.java": src})
    pr, scores = _ranked(g, decay=0.5)
    by = {fid.name.split(".")[-1]: scores[fid] for fid in g.nodes}
    assert by["dispatch()"] > by["u1()"]
    assert by["dispatch()"] > by["h1()"]


def _adjacency_of(n, edges):
    """An ``Adjacency`` over nodes ``S.f00()``.., numbered by position,
    with the given index pairs."""
    ids = [FunctionId(f"S.f{i:02d}()", "S.java") for i in range(n)]
    codes = np.array(sorted(a * n + b for a, b in edges), dtype=np.int64)
    return Adjacency(np.arange(n), codes // n, codes % n,
                     {fid: i for i, fid in enumerate(ids)})


def test_a_kept_condensation_is_reused_only_while_it_holds():
    ranks = np.array([0.1 * (i + 1) for i in range(5)])
    edges = {(0, 1), (1, 0), (2, 0), (3, 2)}
    kept = backward_propagate(_adjacency_of(4, edges), ranks[:4]).condensation
    steps = [
        ({(3, 0)}, set(), True),    # between components, to an earlier one
        (set(), {(2, 0)}, True),    # a call between components removed
        ({(1, 1)}, set(), True),    # a call inside a component
        ({(0, 2)}, set(), False),   # to a later component: the order may no longer hold
        (set(), {(1, 0)}, False),   # a call inside a component removed
    ]
    for added, removed, reused in steps:
        edges = edges - removed | added
        adjacency = _adjacency_of(4, edges)
        impact = backward_propagate(adjacency, ranks[:4], kept=kept)
        assert (impact.condensation is kept) == reused
        assert impact.scores.tolist() == backward_propagate(adjacency, ranks[:4]).scores.tolist()
        kept = impact.condensation
    # another node list
    impact = backward_propagate(_adjacency_of(5, edges), ranks, kept=kept)
    assert impact.condensation is not kept


def test_callee_components_are_summed_in_order_of_their_first_member():
    """Tarjan finishes f04 first (f00 calls it), so it numbers f03's
    callees f04, f01, f02; the sum still takes them as f01, f02, f04."""
    adjacency = _adjacency_of(5, {(0, 4), (3, 1), (3, 2), (3, 4)})
    ranks = np.array([0.5, 2.0 ** -53, 2.0 ** -53, 0.25, 1.0])
    impact = backward_propagate(adjacency, ranks, decay=1.0)
    assert impact.condensation.label.tolist() == [1, 2, 3, 4, 0]
    first_member_order = 2.0 ** -53 + 2.0 ** -53 + 1.0
    assert first_member_order != 1.0 + 2.0 ** -53 + 2.0 ** -53
    assert impact.scores[3] == 0.25 + first_member_order
    assert impact.scores.tolist() == reference_backward_propagate(adjacency, ranks, decay=1.0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_propagation_equals_reference_and_a_kept_condensation_a_fresh_one(data):
    """Over a random sequence of call insertions and deletions, the scores
    equal the reference bit for bit, whether the condensation kept from the
    step before is reused or Tarjan runs again; a reused condensation still
    names the SCCs, numbered callee first."""
    nx = pytest.importorskip("networkx")
    n = data.draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = data.draw(st.sets(st.tuples(node, node), max_size=3 * n))
    # ranks of very different sizes, so that summing in another order
    # shows in the last bits
    weights = data.draw(st.lists(st.floats(2.0 ** -60, 1.0), min_size=n, max_size=n))
    ranks = np.array(weights)
    decay = data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
    kept = None
    for step in range(data.draw(st.integers(1, 10))):
        if step:
            if edges and data.draw(st.booleans()):
                edges = edges - {data.draw(st.sampled_from(sorted(edges)))}
            else:
                edges = edges | {data.draw(st.tuples(node, node))}
        adjacency = _adjacency_of(n, edges)
        impact = backward_propagate(adjacency, ranks, decay, kept=kept)
        scores = impact.scores.tolist()
        assert scores == backward_propagate(adjacency, ranks, decay).scores.tolist()
        assert scores == reference_backward_propagate(adjacency, ranks, decay)
        label = impact.condensation.label
        components = {}
        for i, component in enumerate(label.tolist()):
            components.setdefault(component, []).append(i)
        graph = nx.DiGraph(list(edges))
        graph.add_nodes_from(range(n))
        assert sorted(components.values()) == sorted(
            sorted(scc) for scc in nx.strongly_connected_components(graph))
        assert (label[adjacency.src] >= label[adjacency.dst]).all()
        kept = impact.condensation


def _ranking_graph(n, edges, external=(), numbers=None, spare=0):
    """Ids, an ``Adjacency`` and its numbering over ``n`` nodes: the nodes
    in ``external`` are ``external:`` targets, ``numbers`` gives each
    position's number (by default its position), and ``spare`` more ids
    are numbered but are no nodes, as ids a graph no longer holds."""
    ids = sorted(FunctionId(f"{EXTERNAL_PREFIX}x{i:02d}", "") if i in external
                 else FunctionId(f"S.f{i:02d}()", "S.java") for i in range(n))
    numbers = np.array(range(n) if numbers is None else numbers, dtype=np.int64)
    numbering = dict(zip(ids, numbers.tolist()))
    for j in range(spare):
        numbering[FunctionId(f"S.gone{j}()", "S.java")] = n + j
    codes = np.array(sorted({a * n + b for a, b in edges}), dtype=np.int64)
    return ids, Adjacency(numbers, codes // n, codes % n, numbering)


def _assert_ranks_like_the_dict_reference(ids, adjacency, decay, kept=None, weights=None):
    """The array ranking of ``adjacency`` equals the dict-based reference
    with ``==`` on every float, read by ``ids``; so does every lookup
    through ``inter_impact``.  The propagation spreads ``weights`` by
    position instead of the PageRank vector, if given.  Returns the
    impact."""
    _, src, dst, numbering = adjacency
    ranked = pagerank(adjacency)
    ranks, iterations, converged = reference_pagerank(ids, src, dst)
    assert dict(zip(ids, ranked.rank.tolist())) == ranks
    assert (ranked.iterations, ranked.converged) == (iterations, converged)
    rank = ranked.rank
    if weights is not None:
        rank, ranks = np.array(weights), dict(zip(ids, weights))
    impact = backward_propagate(adjacency, rank, decay, kept=kept)
    scores = reference_rank_propagation(ids, src, dst, ranks, decay)
    assert dict(zip(ids, impact.scores.tolist())) == scores
    for fid in [*numbering, FunctionId("S.never()", "S.java")]:
        assert inter_impact(impact, fid) == scores.get(fid, 0.0)
    return impact


@pytest.mark.parametrize("n, edges, external", [
    (0, set(), ()),                                            # the empty graph
    (1, set(), ()),                                            # one node
    (1, {(0, 0)}, ()),                                         # a self-loop
    (3, {(0, 0), (1, 1), (0, 2)}, ()),                         # self-loops among others
    (4, set(), ()),                                            # all dangling
    (7, {(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (1, 2), (5, 6), (6, 5), (6, 0)}, ()),
    (5, {(0, 3), (1, 3), (1, 4), (2, 0)}, (3, 4)),             # external: targets
])
def test_ranking_equals_the_dict_reference_on_named_shapes(n, edges, external):
    ids, adjacency = _ranking_graph(n, edges, external, numbers=range(n)[::-1], spare=2)
    _assert_ranks_like_the_dict_reference(ids, adjacency, decay=0.5)


def test_a_kept_condensation_that_holds_fails_on_order_or_fails_on_a_merge():
    """From f01 -> f00: a call from f02 to f00 runs to an earlier
    component, so the components hold; one from f00 to f02 joins no two
    of them but runs to a later one, so their order fails; one from f00 to
    f01 merges two of them."""
    ids, adjacency = _ranking_graph(3, {(1, 0)})
    kept = _assert_ranks_like_the_dict_reference(ids, adjacency, 0.5).condensation
    assert kept.label.tolist() == [0, 1, 2]
    for added, holds, components in (((2, 0), True, 3), ((0, 2), False, 3),
                                     ((0, 1), False, 2)):
        ids, adjacency = _ranking_graph(3, {(1, 0), added})
        assert kept.holds_for(adjacency) == holds
        impact = _assert_ranks_like_the_dict_reference(ids, adjacency, 0.5, kept=kept)
        assert (impact.condensation is kept) == holds
        assert len(impact.condensation.first) == components


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_ranking_equals_the_dict_reference_bit_for_bit(data):
    """Over random call insertions and deletions, with rings that make
    multi-member components, fans that make callers of several components,
    self-loops, dangling and ``external:`` nodes and a numbering in any
    order, the array ranking equals the dict-based reference, whether the
    condensation kept from the step before holds or not."""
    n = data.draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    edges = set()
    if n > 1:
        for ring in data.draw(st.lists(st.lists(node, min_size=2, max_size=4, unique=True),
                                       max_size=3)):
            edges |= set(zip(ring, ring[1:] + ring[:1]))
        # callers of several components, whose sums have several terms
        for caller, callees in data.draw(st.lists(st.tuples(node, st.lists(node, min_size=3,
                                                                           max_size=5)),
                                                  max_size=2)):
            edges |= {(caller, callee) for callee in callees}
    if n:
        edges |= data.draw(st.sets(st.tuples(node, node), max_size=2 * n))
    external = data.draw(st.sets(node, max_size=n))
    numbers = data.draw(st.permutations(range(n)))
    decay = data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
    # ranks of very different sizes, so that summing in another order
    # shows in the last bits
    weights = data.draw(st.none() | st.lists(st.sampled_from([2.0 ** -53, 1.0]),
                                             min_size=n, max_size=n))
    kept = None
    for step in range(data.draw(st.integers(1, 6))):
        if step and n:
            if edges and data.draw(st.booleans()):
                edges = edges - {data.draw(st.sampled_from(sorted(edges)))}
            else:
                edges = edges | {data.draw(st.tuples(node, node))}
        ids, adjacency = _ranking_graph(n, edges, external, numbers, spare=1)
        kept = _assert_ranks_like_the_dict_reference(ids, adjacency, decay, kept,
                                                     weights).condensation


def test_pagerank_that_does_not_converge_warns_and_returns_the_last_iterate(caplog):
    g = _graph_from_edges(3, [(0, 1), (1, 2)])
    with caplog.at_level(logging.WARNING, logger="devcontrib"):
        ranked = pagerank(g.adjacency(), max_iter=1)
    assert "did not converge" in caplog.text
    assert (ranked.iterations, ranked.converged) == (1, False)
    assert sum(ranked.rank.tolist()) == pytest.approx(1.0, abs=1e-12)
    # one step from the uniform start, not the start itself
    assert len(set(ranked.rank.tolist())) > 1


def test_adjacency_follows_the_interner_order_as_it_grows():
    """Ids interned between two rankings are merged into the interner's
    order: one function added and one renamed, both sorting between ids
    interned before."""
    files = {"A.java": "class A { void b() { d(); } void d() { } }",
             "B.java": "class B { void f() { A.d(); } void g() { } }"}
    graph = build_call_graph(files)
    graph.adjacency()
    edited = {"A.java": "class A { void b() { d(); } void c() { b(); } void d() { } }",
              "B.java": "class B { void e() { A.d(); } void g() { } }"}
    _update(graph, [_change(path, "modified", before_content=files[path],
                            after_content=edited[path]) for path in files])
    fids = graph._interner.fids
    assert len(fids) == 6  # the renamed B.f() stays interned, but is no node
    assert [fids[i] for i in graph._interner.order()] == sorted(fids)
    numbers, src, dst, _ = graph.adjacency()
    assert graph._interner.numbers[FunctionId("B.f()", "B.java")] not in numbers.tolist()
    assert numbers.tolist() == reference_adjacency(graph).numbers.tolist()
    rebuilt = build_call_graph(edited)
    assert graph.structure()[0] == rebuilt.structure()[0]
    for adjacency in (reference_adjacency(graph), rebuilt.adjacency()):
        assert src.tolist() == adjacency.src.tolist()
        assert dst.tolist() == adjacency.dst.tolist()
