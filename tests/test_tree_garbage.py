"""Syntax trees hold no reference cycles, so a commit's trees are freed by
reference counting as soon as the last layer drops them, and a run can
pause the cyclic collector without leaking."""

import gc
import subprocess
import weakref

import pytest

from devcontrib import pipeline
from devcontrib.astdiff import diff_file_pair
from devcontrib.callgraph import CallGraph
from devcontrib.errors import MissingAuthor
from devcontrib.pipeline import analyze_repository
from devcontrib.syntax import parse_source

BEFORE = """
class C {
    int add(int a, int b) {
        int sum = a + b;
        return sum;
    }
    void run(java.util.List<Integer> xs) {
        xs.forEach(x -> log.info("x " + x));
        new Helper().apply(add(1, 2));
        for (int i = 0; i < xs.size(); i++) { total += xs.get(i); }
    }
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


@pytest.mark.parametrize("steps", [1, 2, 3, 4],
                         ids=["parse", "functions", "call_sites", "diff"])
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


def test_run_leaves_no_cyclic_garbage(make_repo):
    repo = _mixed_history(make_repo)
    gc.collect()
    gc.disable()
    try:
        run = analyze_repository(repo.path)
        # Deep.java fails on three sides, Broken.java on two
        assert (run.checkpoint_restores, run.parse_errors) == (1, 5)
        assert run.tree_reuses > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    repo = _mixed_history(make_repo)
    held = []
    analyze_commit, fit_boxcox = pipeline.analyze_commit, pipeline.fit_boxcox

    def observed(commit, state):
        result = analyze_commit(commit, state)
        held.append(weakref.ref(state.graph))
        held.extend(weakref.ref(entry.tree) for entry in state.graph.files.values())
        return result

    alive = []

    def fit(values, **kwargs):
        alive.append((gc.isenabled(), sum(ref() is not None for ref in held)))
        return fit_boxcox(values, **kwargs)

    monkeypatch.setattr(pipeline, "analyze_commit", observed)
    monkeypatch.setattr(pipeline, "fit_boxcox", fit)
    assert gc.isenabled()
    analyze_repository(repo.path)
    assert len(held) > 10
    assert set(alive) == {(True, 0)}
