"""Syntax trees hold no reference cycles, so a commit's trees are freed by
reference counting as soon as the last layer drops them, and a run can
pause the cyclic collector without leaking."""

import gc
import os
import subprocess
import sys
import types
import weakref
from pathlib import Path

import pytest

import devcontrib
from devcontrib import pipeline
from devcontrib.astdiff import diff_file_pair
from devcontrib.callgraph import CallGraph, CheckpointStore
from devcontrib.errors import MissingAuthor
from devcontrib.pipeline import analyze_repository
from devcontrib.syntax import parse_source

BEFORE = """
class C {
    int total;
    int add(int a, int b) {
        int sum = a + b;
        return sum;
    }
    void run(java.util.List<Integer> xs) {
        xs.forEach(x -> log.info("x " + x));
        new Helper().apply(add(1, 2));
        for (int i = 0; i < xs.size(); i++) { total += xs.get(i); }
    }
    int size() { return total; }
}
"""

AFTER = BEFORE.replace("int sum = a + b;", "int sum = a + b + 1;") \
    .replace("new Helper()", "new Worker()")


def _parse_and_use(steps):
    before = parse_source(BEFORE, "java")
    if steps >= 2:
        units = before.functions
        assert units
    if steps >= 3:
        graph = CallGraph()
        graph._add_file("C.java", None, before)
        assert graph.files["C.java"].sites
    if steps >= 4:
        after = parse_source(AFTER, "java")
        _, actions, changesets = diff_file_pair(before, after)
        assert actions and changesets
    if steps >= 5:
        # ``total`` shared, ``size()`` copied past the edits
        after = parse_source(AFTER, "java", before)
        assert after.reused_members == 2
        _, actions, changesets = diff_file_pair(before, after)
        assert actions and changesets


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 5],
                         ids=["parse", "functions", "call_sites", "diff", "reparse"])
def test_dropped_trees_leave_no_cyclic_garbage(steps):
    gc.collect()
    gc.disable()
    try:
        _parse_and_use(steps)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _mixed_history(make_repo):
    """A fork, a rename, a binary blob, a parse error and a file nested too
    deep for the parser, over two source files that call each other."""
    deep = "class Deep { int m(int x) { return " + "(" * 400 + "x" + ")" * 400 + "; } }"
    repo = make_repo()
    repo.commit("base", 1000, {"C.java": BEFORE, "Helper.java":
                               "class Helper { int apply(int k) { return add(k, 1); } }"})
    repo.branch("side")
    repo.commit("side1", 2000, {"C.java": AFTER, "Data.java": "class Data {\0}",
                                "Deep.java": deep})
    repo.commit("side2", 3000, {"Deep.java": deep.replace("x", "y")},
                rename={"Helper.java": "util/Helper.java"})
    repo.checkout("main")
    repo.commit("main1", 4000, {"Broken.java": "class Broken { void f( { }"})
    repo.commit("main2", 5000, {"C.java": AFTER.replace("+ 1;", "+ 2;"),
                                "Broken.java": "class Broken { void f() { } }"})
    return repo


def _merged_history(make_repo):
    """A topic branch that edits and renames, merged into main with
    ``--no-ff`` after main moved on."""
    repo = make_repo()
    repo.commit("base", 1000, {"C.java": BEFORE, "Helper.java":
                               "class Helper { int apply(int k) { return add(k, 1); } }"})
    repo.branch("side")
    repo.commit("side1", 2000, {"C.java": AFTER})
    repo.commit("side2", 2500, {"Extra.java": "class Extra { void e() { run(null); } }"},
                rename={"Helper.java": "util/Helper.java"})
    repo.checkout("main")
    repo.commit("main1", 3000, {"Main.java": "class Main { void m() { apply(2); } }"})
    repo.merge("side", 4000)
    return repo


def test_run_leaves_no_cyclic_garbage(make_repo):
    mixed, merged = _mixed_history(make_repo), _merged_history(make_repo)
    gc.collect()
    gc.disable()
    try:
        run = analyze_repository(mixed.path)
        # Deep.java fails on three sides, Broken.java on two
        assert (run.checkpoint_restores, run.parse_errors) == (1, 5)
        assert run.tree_reuses > 0 and run.member_reuses > 0
        assert gc.collect() == 0
        assert analyze_repository(merged.path).tree_reuses > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_first_run_in_a_fresh_interpreter_leaves_no_cyclic_garbage(make_repo):
    """Nothing a run imports on first use leaves garbage behind either
    (``np.unique`` would: it imports ``numpy.ma``).  The history scores
    fewer functions than the default ``normalize.min_samples``, so the run
    lowers it to make the lambda grid search run too."""
    repo = _mixed_history(make_repo)
    script = ("import gc, sys\n"
              "from devcontrib.config import AnalysisConfig\n"
              "from devcontrib.pipeline import analyze_repository\n"
              "gc.collect()\n"
              "gc.disable()\n"
              "run = analyze_repository(sys.argv[1], AnalysisConfig(normalize_min_samples=2))\n"
              "print(gc.collect())\n"
              "print(sum(not p.degenerate and p.n >= 2 for p in run.boxcox.values()))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(devcontrib.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, repo.path], env=env,
                          capture_output=True, text=True, check=True)
    collected, searched = proc.stdout.split()
    assert collected == "0"
    assert int(searched) > 0


def _authorless_repo(make_repo):
    repo = make_repo()
    text = "class A { void f() { } }"
    stream = (f"commit refs/heads/main\nauthor  <> 1700000000 +0000\n"
              f"committer Core Dev <core@example.com> 1700000000 +0000\n"
              f"data 4\ninit\nM 100644 inline A.java\n"
              f"data {len(text.encode())}\n{text}\n")
    subprocess.run(["git", "-C", repo.path, "fast-import", "--quiet"],
                   input=stream.encode(), check=True, capture_output=True)
    return repo


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("outcome", ["returns", "no_author", "raises_in_loop"])
def test_run_pauses_the_collector_and_restores_the_callers_setting(
        make_repo, monkeypatch, collecting, outcome):
    seen = []
    analyze_commit = pipeline.analyze_commit

    def observed(commit, state):
        seen.append(gc.isenabled())
        if outcome == "raises_in_loop" and len(seen) == 2:
            raise MissingAuthor("second commit fails")
        return analyze_commit(commit, state)

    monkeypatch.setattr(pipeline, "analyze_commit", observed)
    repo = _authorless_repo(make_repo) if outcome == "no_author" \
        else _mixed_history(make_repo)
    (gc.enable if collecting else gc.disable)()
    try:
        if outcome == "returns":
            assert len(analyze_repository(repo.path).commits) == 5
        else:
            with pytest.raises(MissingAuthor):
                analyze_repository(repo.path)
        assert gc.isenabled() == collecting
    finally:
        gc.enable()
    assert seen == {"returns": [False] * 5, "no_author": [],
                    "raises_in_loop": [False] * 2}[outcome]


def test_graph_and_its_trees_are_freed_before_the_collector_resumes(make_repo,
                                                                     monkeypatch):
    repos = [_mixed_history(make_repo), _merged_history(make_repo)]
    held = []
    analyze_commit, fit_boxcox = pipeline.analyze_commit, pipeline.fit_boxcox

    def observed(commit, state):
        result = analyze_commit(commit, state)
        held.append(weakref.ref(state.graph))
        held.extend(weakref.ref(entry.tree) for entry in state.graph.files.values())
        kept = [state.store.get(c) for c in state.tree.commits]
        held.extend(weakref.ref(graph) for graph in kept if graph is not None)
        held.extend(weakref.ref(entry.tree) for graph in kept if graph is not None
                    for entry in graph.files.values())
        return result

    alive = []

    def fit(values, **kwargs):
        alive.append((gc.isenabled(), sum(ref() is not None for ref in held)))
        return fit_boxcox(values, **kwargs)

    monkeypatch.setattr(pipeline, "analyze_commit", observed)
    monkeypatch.setattr(pipeline, "fit_boxcox", fit)
    assert gc.isenabled()
    for repo in repos:
        analyze_repository(repo.path)
    assert len(held) > 10
    assert set(alive) == {(True, 0)}


def test_snapshots_are_freed_when_the_loop_raises_before_the_merge(make_repo,
                                                                    monkeypatch):
    repo = _merged_history(make_repo)
    kept = []
    analyze_commit = pipeline.analyze_commit

    def failing(commit, state):
        if len(commit.parent_ids) > 1:
            # trees only side2's checkpoint holds; this frame keeps the state
            in_graph = {id(entry.tree) for entry in state.graph.files.values()}
            kept.extend(weakref.ref(entry.tree) for parent in commit.parent_ids[1:]
                        for entry in state.store.get(parent).files.values()
                        if id(entry.tree) not in in_graph)
            raise MissingAuthor("the merge fails")
        return analyze_commit(commit, state)

    alive = []

    def enable():
        alive.append(sum(ref() is not None for ref in kept))
        gc.enable()

    monkeypatch.setattr(pipeline, "analyze_commit", failing)
    monkeypatch.setattr(pipeline, "gc", types.SimpleNamespace(
        isenabled=gc.isenabled, disable=gc.disable, enable=enable))
    assert gc.isenabled()
    with pytest.raises(MissingAuthor):
        analyze_repository(repo.path)
    # side1's C.java and side2's Extra.java; the renamed Helper.java keeps
    # the tree of its blob that main1's graph holds too
    assert len(kept) == 2
    assert alive == [0]


def test_fork_checkpoint_is_freed_when_the_loop_raises(make_repo, monkeypatch):
    repo = _mixed_history(make_repo)
    stores, seen, kept = [], [], []

    class RecordingStore(CheckpointStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stores.append(weakref.ref(self))

    analyze_commit = pipeline.analyze_commit

    def failing(commit, state):
        seen.append(commit.id)
        if len(seen) == 3:
            # side2: base's checkpoint is live, and holds C.java's first
            # tree, which side1 replaced in the graph; this frame keeps the state
            in_graph = {id(entry.tree) for entry in state.graph.files.values()}
            kept.extend(weakref.ref(entry.tree)
                        for entry in stores[0]().restore(seen[0]).files.values()
                        if id(entry.tree) not in in_graph)
            raise MissingAuthor("side2 fails")
        return analyze_commit(commit, state)

    alive = []

    def enable():
        alive.append(sum(ref() is not None for ref in kept))
        gc.enable()

    monkeypatch.setattr(pipeline, "CheckpointStore", RecordingStore)
    monkeypatch.setattr(pipeline, "analyze_commit", failing)
    monkeypatch.setattr(pipeline, "gc", types.SimpleNamespace(
        isenabled=gc.isenabled, disable=gc.disable, enable=enable))
    assert gc.isenabled()
    with pytest.raises(MissingAuthor):
        analyze_repository(repo.path)
    assert len(kept) == 1
    assert alive == [0]
