import dataclasses
import json
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import devcontrib
from devcontrib import pipeline
from devcontrib.callgraph import (
    CallGraph,
    CheckpointStore,
    FunctionId,
    backward_propagate,
    inter_impact,
    pagerank,
)
from devcontrib.config import AnalysisConfig
from devcontrib.pipeline import AnalysisRun, analyze_repository, parse_changes
from devcontrib.repo import changed_files, open_repository, walk_commits
from devcontrib.syntax import MAX_TREE_DEPTH, parse_source

from conftest import RepoBuilder
from oracles import build_call_graph

BASE_JAVA = """
class Service {
    int handle(int k) {
        int out = transform(k);
        return out;
    }
    int transform(int k) {
        return k * 2;
    }
}
"""


def test_empty_repository_yields_empty_run(make_repo):
    repo = make_repo()
    run = analyze_repository(repo.path)
    assert run.commits == []
    assert run.developers == []


def test_single_commit_adding_one_function(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"One.java": "class One { int f() { return 1; } }"})
    run = analyze_repository(repo.path)
    assert len(run.commits) == 1
    commit = run.commits[0]
    assert len(commit.records) == 1
    assert commit.cvalue > 0.0


def test_comment_only_commit_scores_zero(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA})
    repo.commit("comments", 2000, {"Service.java": BASE_JAVA.replace(
        "int out = transform(k);",
        "// delegate to the doubling helper\n        int out = transform(k);")})
    run = analyze_repository(repo.path)
    assert run.commits[1].cvalue == 0.0
    assert run.commits[1].delta_ast_total == 0.0


def test_rename_only_commit_is_heavily_discounted(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA})
    repo.commit("rename", 2000, {"Service.java": BASE_JAVA.replace("out", "result")})
    repo.commit("fresh", 3000, {"Service.java": BASE_JAVA.replace(
        "out", "result").replace("return k * 2;", "return k * 2 + offset(k);")})
    run = analyze_repository(repo.path)
    rename_commit, fresh_commit = run.commits[1], run.commits[2]
    assert 0.0 < rename_commit.delta_ast_total <= 0.01 * fresh_commit.delta_ast_total \
        or rename_commit.delta_ast_total < fresh_commit.delta_ast_total * 0.05


def test_fork_checkpoints_and_restores(make_repo):
    repo = make_repo()
    repo.commit("base", 1000, {"Service.java": BASE_JAVA})
    repo.branch("side")
    repo.commit("side1", 2000, {"Extra.java": "class Extra { void e() { } }"})
    repo.checkout("main")
    repo.commit("main1", 3000, {"Service.java": BASE_JAVA.replace(
        "k * 2", "k * 3")})
    repo.branch("third")
    repo.commit("third1", 4000, {"Third.java": "class Third { void t() { } }"})
    repo.checkout("main")
    repo.commit("main2", 5000, {"Note.txt": "doc"})

    run = analyze_repository(repo.path)
    assert len(run.commits) == 5
    # two forks (base and main1), one extra branch each -> two restores
    assert (run.checkpoints, run.checkpoint_restores) == (2, 2)


def test_pipeline_graph_matches_full_rebuild_at_every_commit(make_repo):
    repo = make_repo()
    repo.commit("base", 1000, {
        "A.java": "class A { void f() { g(); } void g() { } }",
        "B.java": "class B { void h() { f(); } }",
    })
    repo.branch("side")
    repo.commit("side1", 2000, {"A.java": "class A { void f() { } }"})
    repo.commit("side2", 2500, remove=["B.java"])
    repo.checkout("main")
    repo.commit("main1", 3000, {"C.java": "class C { void k() { h(); } }"})
    repo.commit("main2", 3500, rename={"B.java": "Renamed.java"})

    from devcontrib.callgraph import CallGraph, CheckpointStore
    from devcontrib.repo import changed_files, first_parent_children

    tree = open_repository(repo.path)
    order = walk_commits(tree)
    children = first_parent_children(tree)
    store = CheckpointStore()
    graph = CallGraph()
    previous = None
    for commit in order:
        first = commit.parent_ids[0] if commit.parent_ids else None
        if first is None:
            if previous is not None:
                graph = CallGraph()
        elif first != previous:
            graph = store.restore(first)
        changes = changed_files(commit, tree)
        graph.update(parse_changes(changes, graph, AnalysisRun("", {})))
        if len(children.get(commit.id, [])) > 1:
            store.checkpoint(graph, commit.id)
        snapshot = {p: t for p, t in repo.snapshots[commit.id].items()
                    if t is not None}
        rebuilt = build_call_graph(snapshot)
        assert graph.structure() == rebuilt.structure(), commit.id
        previous = commit.id


def test_rename_into_non_ascii_directory_keeps_functions(make_repo):
    repo = make_repo()
    repo.commit("base", 1000, {
        "src/sp ace/D.java": "class D { void d() { c(); } }",
        "src/café/C.java": "class C { void c() { } }",
    })
    repo.commit("move", 2000, rename={"src/sp ace/D.java": "src/café/D.java"})
    repo.commit("edit", 3000, {"src/café/D.java": "class D { void d() { c(); c(); } }"})

    from devcontrib.callgraph import CallGraph
    from devcontrib.repo import changed_files

    tree = open_repository(repo.path)
    graph = CallGraph()
    for commit in walk_commits(tree):
        changes = changed_files(commit, tree)
        graph.update(parse_changes(changes, graph, AnalysisRun("", {})))
        rebuilt = build_call_graph(repo.snapshots[commit.id])
        assert graph.structure() == rebuilt.structure(), commit.id
    assert FunctionId("D.d()", "src/café/D.java") in graph.nodes
    run = analyze_repository(repo.path)
    assert [(r.function, r.file) for r in run.commits[-1].records] == [
        ("D.d()", "src/café/D.java")]


def test_determinism_two_runs_identical(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA})
    repo.commit("edit", 2000, {"Service.java": BASE_JAVA.replace(
        "k * 2", "k * 2 + 1")})
    run1 = analyze_repository(repo.path)
    run2 = analyze_repository(repo.path)
    doc1 = json.dumps(run1.to_dict(), sort_keys=True)
    doc2 = json.dumps(run2.to_dict(), sort_keys=True)
    assert doc1 == doc2


def test_run_roundtrips_through_json(make_repo, tmp_path):
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA})
    run = analyze_repository(repo.path)
    path = tmp_path / "run.json"
    run.save(path)
    loaded = AnalysisRun.load(path)
    assert loaded.to_dict() == run.to_dict()
    assert set(loaded.boxcox) == {"loc", "cc", "hv", "pcom", "ip"}


def test_to_dict_holds_every_field_as_copies(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA})
    repo.commit("edit", 2000, {"Service.java": BASE_JAVA.replace(
        "k * 2", "k * 2 + 1")})
    run = analyze_repository(repo.path)
    doc = run.to_dict()
    for commit, entry in zip(run.commits, doc["commits"], strict=True):
        expected = dataclasses.asdict(commit)
        expected["functions"] = expected.pop("records")
        assert entry == expected
    assert doc["developers"] == [dataclasses.asdict(d) for d in run.developers]
    for metric, params in run.boxcox.items():
        expected = dataclasses.asdict(params)
        expected["lambda"] = expected.pop("lam")
        assert doc["boxcox"][metric] == expected
    # the document is detached from the run
    doc["commits"][-1]["functions"][0]["score"] = -1.0
    doc["developers"][0]["email"] = "changed"
    assert run.commits[-1].records[0].score != -1.0
    assert run.developers[0].email != "changed"


def test_run_of_another_schema_version_is_refused(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA})
    doc = analyze_repository(repo.path).to_dict()
    doc["schema_version"] = 1
    with pytest.raises(ValueError, match="schema version 1.* reads 2"):
        AnalysisRun.from_dict(doc)


def test_bulk_flag(make_repo):
    repo = make_repo()
    # every changed file counts, source or not
    files = {f"F{i}.java": f"class F{i} {{ void m() {{ }} }}" for i in range(3)}
    files.update({f"notes{i}.txt": f"note {i}\n" for i in range(3)})
    repo.commit("big", 1000, files)
    cfg = AnalysisConfig(bulk_file_threshold=5)
    run = analyze_repository(repo.path, cfg)
    assert run.commits[0].bulk


def test_parse_error_degrades_to_file_skip(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {
        "Good.java": "class Good { void g() { } }",
        "Bad.java": "class Bad { void broken( {",
    })
    repo.commit("edit", 2000, {"Good.java": "class Good { void g() { x(); } }"})
    run = analyze_repository(repo.path)
    assert len(run.commits) == 2
    assert run.commits[1].cvalue > 0.0


# what a run did, kept on ``AnalysisRun`` and never serialized
_RUN_RECORD = {"timings", "commit_times", "checkpoints", "checkpoint_restores",
               "rank_computations", "rank_reuses", "parses", "tree_reuses", "parse_errors"}


def test_run_records_stage_and_commit_times(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA})
    repo.commit("edit", 2000, {"Service.java": BASE_JAVA.replace("k * 2", "k + 9")})
    run = analyze_repository(repo.path)
    assert len(run.commits) == 2
    assert set(run.commit_times) == {c.id for c in run.commits}
    assert all(v >= 0 for v in run.commit_times.values())
    assert run.timings["total"] > 0


def test_body_only_edits_reuse_ranks(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA})
    repo.commit("body", 2000, {"Service.java": BASE_JAVA.replace("k * 2", "k * 3")})
    repo.commit("body2", 3000, {"Service.java": BASE_JAVA.replace("k * 2", "k * 4")})
    repo.commit("call", 4000, {"Service.java": BASE_JAVA.replace(
        "return k * 2;", "return handle(k);")})
    run = analyze_repository(repo.path)
    assert (run.rank_computations, run.rank_reuses) == (2, 2)
    doc = json.dumps(run.to_dict())
    assert [key for key in _RUN_RECORD if f'"{key}"' in doc] == []


def _forked_repo(make_repo):
    """base forks into side (adds a caller of transform) and main (edits
    transform's body only), then main forks again."""
    repo = make_repo()
    repo.commit("base", 1000, {"Service.java": BASE_JAVA})
    repo.branch("side")
    repo.commit("side1", 2000, {"Extra.java":
                                "class Extra { int e() { return transform(1); } }"})
    repo.checkout("main")
    repo.commit("main1", 3000, {"Service.java": BASE_JAVA.replace("k * 2", "k * 3")})
    repo.branch("third")
    repo.commit("third1", 4000, {"Service.java": BASE_JAVA.replace("k * 2", "k * 5")})
    repo.checkout("main")
    repo.commit("main2", 5000, {"Service.java": BASE_JAVA.replace("k * 2", "k * 7")})
    return repo


def test_fork_checkpoints_released_after_last_child(make_repo, monkeypatch):
    repo = _forked_repo(make_repo)
    stores = []

    class RecordingStore(CheckpointStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stores.append(self)

    monkeypatch.setattr(pipeline, "CheckpointStore", RecordingStore)
    run = analyze_repository(repo.path)
    assert run.checkpoint_restores == 2
    assert len(stores) == 1 and len(stores[0]) == 0


def test_restore_never_reuses_sibling_ranks(make_repo):
    repo = _forked_repo(make_repo)
    cfg = AnalysisConfig()
    run = analyze_repository(repo.path, cfg)
    assert run.checkpoint_restores == 2
    scored = 0
    for commit in run.commits:
        files = {p: t for p, t in repo.snapshots[commit.id].items() if t is not None}
        adjacency = build_call_graph(files).adjacency()
        ranks = pagerank(adjacency, damping=cfg.graph_damping, tol=cfg.graph_tol,
                         max_iter=cfg.graph_max_iter)
        fresh = backward_propagate(adjacency, ranks, decay=cfg.graph_decay)
        for r in commit.records:
            if r.is_function:
                assert r.ip == inter_impact(fresh, FunctionId(r.function, r.file))
                scored += 1
    assert scored == 3  # main1, third1, main2


_DUMP_RUN = """
import json, sys
from devcontrib.pipeline import analyze_repository
print(json.dumps(analyze_repository(sys.argv[1]).to_dict(), sort_keys=True))
"""


def _tangled_sources(n_files=8):
    """Seeded irregular call graph: rank sums depend on edge order."""
    rng = random.Random(7)
    files = {}
    for f in range(n_files):
        methods = []
        for j in range(3):
            i = f * 3 + j
            callees = [f"m{rng.randrange(max(1, i))}(k)" for _ in range(rng.randint(1, 4))]
            methods.append(f"    int m{i}(int k) {{ return {' + '.join(callees)}; }}")
        files[f"F{f}.java"] = "class F%d {\n%s\n}" % (f, "\n".join(methods))
    return files


def test_run_is_byte_identical_across_hash_seeds(make_repo):
    repo = make_repo()
    files = _tangled_sources()
    repo.commit("init", 1000, files)
    repo.commit("edit", 2000, {p: files[p].replace("return ", "return 1 + ")
                               for p in ("F2.java", "F5.java")})
    repo.commit("call", 3000, {"F7.java": files["F7.java"].replace(
        "return ", "return m4(k) + ", 1)})
    env = dict(os.environ, PYTHONPATH=str(Path(devcontrib.__file__).parents[1]))
    docs = []
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run([sys.executable, "-c", _DUMP_RUN, repo.path], env=env,
                              capture_output=True, text=True, check=True)
        docs.append(proc.stdout)
    assert docs[0] == docs[1]


def _method_file(name, body):
    return "class %s { int m(int x) { %s } }" % (name, body)


def test_deeply_nested_files_are_skipped_alone(make_repo):
    concat = " + ".join(['"a"'] * 3000)
    deep = {
        "Parens.java": _method_file("Parens", "return " + "(" * 400 + "x" + ")" * 400 + ";"),
        "Ifs.java": _method_file("Ifs", "if (x > 0) { " * 300 + "x++;" + " }" * 300),
        "Concat.java": _method_file("Concat", "String s = " + concat + ";"),
    }
    # a tree exactly MAX_TREE_DEPTH deep and a long if chain still go through
    # every layer
    limit = _method_file("Limit", "String s = " + " + ".join(['"a"'] * (MAX_TREE_DEPTH - 9))
                         + ";")
    chain = _method_file("Chain", "if (x > 0) " * 300 + "x++;")
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA, "Limit.java": limit,
                               "Chain.java": chain, **deep})
    repo.commit("edit", 2000, {
        "Service.java": BASE_JAVA.replace("k * 2", "k * 3"),
        "Limit.java": limit.replace('"a"', '"b"', 1),
        "Chain.java": chain.replace("x++", "x--"),
        **{path: text.replace("x", "y") for path, text in deep.items()},
    })
    run = analyze_repository(repo.path)
    assert len(run.commits) == 2
    scored = {r.file for c in run.commits for r in c.records}
    assert scored == {"Service.java", "Limit.java", "Chain.java"}
    # the three deep files fail on the after side of both commits and on the
    # before side of the second
    assert run.parse_errors == 9


def test_parse_stage_counts_and_warns_once_per_blob(make_repo, caplog):
    broken = "class Broken { void f( { }"
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA, "Broken.java": broken,
                               "Note.txt": "notes"})
    repo.commit("edit", 2000, {"Service.java": BASE_JAVA.replace("k * 2", "k * 3"),
                               "Broken.java": broken + "\n"})
    with caplog.at_level(logging.WARNING, logger="devcontrib"):
        run = analyze_repository(repo.path)
    # each commit parses two sides of two source files, except that the
    # first commit's two added files share one before side, the empty text,
    # and the second commit reads Service.java's before side from the call
    # graph; Broken.java never parsed, so the graph holds no tree of it
    assert (run.parses, run.tree_reuses, run.parse_errors) == (6, 1, 3)
    assert {"parse", "diff", "graph"} <= set(run.timings)
    doc = json.dumps(run.to_dict())
    assert [key for key in _RUN_RECORD if f'"{key}"' in doc] == []
    warnings = [r for r in caplog.records if "Broken.java" in r.getMessage()]
    # commit one: the after blob; commit two: the before and the after blob
    assert len(warnings) == 3


def test_files_sharing_a_blob_share_its_tree_and_keep_their_paths(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"a/Service.java": BASE_JAVA, "b/Service.java": BASE_JAVA})
    repo.commit("edit", 2000, {
        "a/Service.java": BASE_JAVA.replace("k * 2", "k * 3"),
        "b/Service.java": BASE_JAVA.replace("k * 2", "k * 3")})
    run = analyze_repository(repo.path)
    # one empty before side and one after blob in the first commit, one
    # after blob in the second, whose one before blob the call graph holds
    assert (run.parses, run.tree_reuses, run.parse_errors) == (3, 1, 0)
    init, edit = run.commits
    assert {(r.function, r.file) for r in init.records} == {
        (pipeline.FILE_SCOPE, "a/Service.java"), (pipeline.FILE_SCOPE, "b/Service.java")}
    assert sorted((r.function, r.file) for r in edit.records) == [
        ("Service.transform(int)", "a/Service.java"),
        ("Service.transform(int)", "b/Service.java")]
    # each file's functions are call-graph nodes of that file
    assert edit.records[0].ip == edit.records[1].ip > 0


def test_each_tree_yields_its_function_units_once(make_repo, monkeypatch):
    from devcontrib import syntax

    trees = []
    extract = syntax.extract_functions

    def recording(tree):
        trees.append(tree)  # keeps every tree alive, so ids stay distinct
        return extract(tree)

    monkeypatch.setattr(syntax, "extract_functions", recording)
    repo = make_repo()
    repo.commit("init", 1000, {"Service.java": BASE_JAVA})
    repo.commit("edit", 2000, {"Service.java": BASE_JAVA.replace("k * 2", "k * 3")})
    run = analyze_repository(repo.path)
    assert run.commits[1].records
    # the first commit's two trees (its before side is the empty text) and
    # the second's after side, whose before side is the first's after tree;
    # each is asked by the differ, the call graph and the metrics
    assert len(trees) == len({id(t) for t in trees}) == 3


def test_record_with_switch_rules_is_scored(make_repo):
    record = """
public record Range(int lo, int hi) {
    static int pick(int x) {
        switch (x) {
            case 1 -> x = x + 1;
            default -> x = x - 1;
        }
        return x;
    }
}
"""
    repo = make_repo()
    repo.commit("init", 1000, {"Range.java": record})
    repo.commit("edit", 2000, {"Range.java": record.replace("x + 1", "x + 2")})
    run = analyze_repository(repo.path)
    assert (run.parses, run.tree_reuses, run.parse_errors) == (3, 1, 0)
    (edit,) = run.commits[-1].records
    assert (edit.function, edit.file) == ("Range.pick(int)", "Range.java")
    assert edit.delta_ast > 0


def test_rename_from_a_path_without_grammar_scores_the_new_file(make_repo, caplog):
    methods = "\n".join(f"    int m{i}(int k) {{ return k + {i}; }}" for i in range(30))
    groovy = "class Notes {\n%s\n    def show() { println \"notes\" }\n}\n" % methods
    java = groovy.replace('def show() { println "notes" }',
                          'void show() { System.out.println("notes"); }')
    repo = make_repo()
    repo.commit("init", 1000, {"Notes.groovy": groovy})
    repo.commit("port", 2000, {"Notes.java": java}, remove=["Notes.groovy"])
    status = repo._run("git", "diff", "-M", "--name-status", "HEAD~1", "HEAD")
    assert status.startswith("R0") and "Notes.java" in status
    with caplog.at_level(logging.WARNING, logger="devcontrib"):
        run = analyze_repository(repo.path)
    # the Groovy text is never parsed as Java: the renamed file is scored as
    # an added one, against the empty side
    assert "Notes" not in caplog.text
    assert (run.parses, run.parse_errors) == (2, 0)
    (record,) = run.commits[-1].records
    assert (record.function, record.file) == (pipeline.FILE_SCOPE, "Notes.java")
    assert record.delta_ast > 0


def test_rename_to_a_path_without_grammar_scores_a_deletion(make_repo):
    methods = "\n".join(f"    int m{i}(int k) {{ return k + {i}; }}" for i in range(20))
    files = {"A.java": "class A {\n%s\n}\n" % methods,
             "B.java": "class B { int h(int k) { return new A().m1(k); } }"}
    kinds, records = [], []
    for drop in ({"rename": {"A.java": "A.kt"}}, {"remove": ["A.java"]}):
        repo = make_repo()
        repo.commit("init", 1000, files)
        repo.commit("drop", 2000, **drop)
        tree = open_repository(repo.path)
        graph = CallGraph()
        for commit in walk_commits(tree):
            changes = changed_files(commit, tree)
            graph.update(parse_changes(changes, graph, AnalysisRun("", {})))
            rebuilt = build_call_graph(repo.snapshots[commit.id])
            assert graph.structure() == rebuilt.structure(), commit.id
        tree.close()
        kinds.append([change.kind for change in changes])
        run = analyze_repository(repo.path)
        records.append([(r.function, r.file, r.is_function, r.delta_ast, r.score)
                        for r in run.commits[-1].records])
    assert kinds == [["renamed"], ["deleted"]]
    renamed, deleted = records
    # the old file's code is gone either way, and scored as such
    assert renamed == deleted
    assert [r[:3] for r in renamed] == [(pipeline.FILE_SCOPE, "A.java", False)]


def test_sibling_branches_read_the_fork_points_trees(make_repo):
    repo = _forked_repo(make_repo)
    run = analyze_repository(repo.path)
    # base and side1 add a file (the empty side and the after blob each);
    # main1, third1 and main2 each parse their after blob and read the
    # Service.java tree their first parent left in the call graph, third1
    # and main2 from main1's checkpoint
    assert (run.parses, run.tree_reuses) == (7, 3)


def _unit(name, n):
    return ("class %s {\n    int f(int k) { return g(k) + %d; }\n"
            "    int g(int k) { int x = k * %d; return x; }\n}\n" % (name, n, n + 2))


_STEP = st.tuples(st.sampled_from(["edit", "add", "rename", "delete", "break", "share"]),
                  st.integers(0, 5))


def _apply_step(repo, files, step, ts, serial):
    """Commit one step to ``repo``, whose current branch holds ``files``."""
    op, n = step
    paths = sorted(files)
    path = paths[n % len(paths)]
    if op == "add" or (op == "delete" and len(paths) == 1):
        new = f"N{serial}.java"
        files[new] = _unit(f"N{serial}", n)
        repo.commit(op, ts, {new: files[new]})
    elif op == "edit":
        files[path] = _unit(path[:-5], n + serial)
        repo.commit(op, ts, {path: files[path]})
    elif op == "rename":
        new = f"R{serial}.java"
        files[new] = files.pop(path)
        repo.commit(op, ts, rename={path: new})
    elif op == "delete":
        del files[path]
        repo.commit(op, ts, remove=[path])
    elif op == "break":
        files[path] = "class Broken%d { void f( { }\n" % serial
        repo.commit(op, ts, {path: files[path]})
    else:  # two files take one blob
        other = paths[(n + 1) % len(paths)]
        files[path] = files[other]
        repo.commit(op, ts, {path: files[path]})


@settings(max_examples=8, deadline=None, derandomize=True)
@given(side=st.lists(_STEP, min_size=1, max_size=3),
       main=st.lists(_STEP, min_size=1, max_size=3))
def test_reused_trees_give_the_run_of_fresh_parses(tmp_path_factory, side, main):
    repo = RepoBuilder(tmp_path_factory.mktemp("history"))
    base = {"A.java": _unit("A", 0), "B.java": _unit("B", 1)}
    repo.commit("base", 1000, base)
    serial = 0
    for branch, steps in (("side", side), ("main", main)):
        if branch == "side":
            repo.branch("side")
        else:
            repo.checkout("main")
        files = dict(base)
        for step in steps:
            serial += 1
            _apply_step(repo, files, step, 1000 + serial, serial)
    run = analyze_repository(repo.path)
    with pytest.MonkeyPatch.context() as mp:
        # parsing against an empty call graph holds no tree to reuse
        mp.setattr(pipeline, "parse_changes",
                   lambda changes, graph, run: parse_changes(changes, CallGraph(), run))
        fresh = analyze_repository(repo.path)
    assert fresh.tree_reuses == 0
    assert run.parses + run.tree_reuses == fresh.parses
    assert run.parse_errors == fresh.parse_errors
    assert run.to_dict() == fresh.to_dict()


def _nodes(node):
    return [(n.kind, n.label, n.start, n.end, len(n.children)) for n in node.walk()]


def test_reused_tree_equals_a_fresh_parse_after_the_differ(make_repo, monkeypatch):
    repo = _forked_repo(make_repo)
    repo.commit("main3", 6000, {"Service.java": BASE_JAVA.replace(
        "return out;", "return out + handle(out);")})
    diffed = []
    diff = pipeline.diff_file_pair

    def recording(before, after, **kwargs):
        diffed.append((before, after))
        return diff(before, after, **kwargs)

    monkeypatch.setattr(pipeline, "diff_file_pair", recording)
    run = analyze_repository(repo.path)
    assert run.tree_reuses == 4
    after_sides = {id(after) for _, after in diffed}
    reused = [before for before, _ in diffed if id(before) in after_sides]
    assert len(reused) == 4
    for tree in reused:
        fresh = parse_source(tree.source_text, "java")
        assert _nodes(tree.root) == _nodes(fresh.root)
        assert [(u.qualified_name, u.span, _nodes(u.body)) for u in tree.functions] == \
            [(u.qualified_name, u.span, _nodes(u.body)) for u in fresh.functions]


def _long_forked_repo(make_repo):
    """Eleven commits: a side branch of three, merged back into main."""
    repo = make_repo()
    repo.commit("base", 1000, {"Service.java": BASE_JAVA})
    repo.branch("side")
    for i in range(3):
        repo.commit(f"side{i}", 2000 + i, {"Extra.java":
                    f"class Extra {{ int e() {{ return transform({i}); }} }}"})
    repo.checkout("main")
    for i in range(6):
        repo.commit(f"main{i}", 3000 + i, {
            "Service.java": BASE_JAVA.replace("k * 2", f"k * {i + 3}")})
    repo.merge("side", 4000)
    return repo


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_run_starts_four_git_processes_and_reaps_them(make_repo, monkeypatch, fail):
    repo = _long_forked_repo(make_repo)
    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            super().__init__(args, *rest, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    # holding the tree keeps its reader from being reaped when it is freed,
    # so only an explicit close can stop the process
    trees = []

    def kept(*args, **kwargs):
        trees.append(open_repository(*args, **kwargs))
        return trees[-1]

    monkeypatch.setattr(pipeline, "open_repository", kept)
    if fail:
        analyze_commit = pipeline.analyze_commit
        calls = []

        def failing(commit, state):
            calls.append(commit)
            if len(calls) == 2:
                raise RuntimeError("second commit fails")
            return analyze_commit(commit, state)

        monkeypatch.setattr(pipeline, "analyze_commit", failing)
        with pytest.raises(RuntimeError):
            analyze_repository(repo.path)
    else:
        assert len(analyze_repository(repo.path).commits) == 11
    assert sorted(p.args[3] for p in started) == [
        "cat-file", "diff-tree", "log", "rev-parse"]
    assert all(p.poll() is not None for p in started)


def test_benchmark_hooks_see_one_lazy_walk_and_one_ingest_per_commit(make_repo,
                                                                     monkeypatch):
    repo = _long_forked_repo(make_repo)
    walks, yielded, ingested = [], [], []
    walk_commits_ = pipeline.walk_commits
    changed_files = pipeline.changed_files

    def probed(order):
        for commit in order:
            yielded.append(commit.id)
            yield commit
        yielded.append(None)

    def one_shot(tree):
        # as the benchmark's worker: the walk, wrapped in a one-shot generator
        walks.append(tree)
        return probed(walk_commits_(tree))

    def counted(commit, tree):
        ingested.append(commit.id)
        return changed_files(commit, tree)

    monkeypatch.setattr(pipeline, "walk_commits", one_shot)
    monkeypatch.setattr(pipeline, "changed_files", counted)
    run = analyze_repository(repo.path)
    order = [c.id for c in walk_commits(open_repository(repo.path))]
    assert len(walks) == 1
    assert yielded == order + [None]
    assert ingested == order == [c.id for c in run.commits]
