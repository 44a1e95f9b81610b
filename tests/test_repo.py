import os
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devcontrib import repo as repo_module
from devcontrib.errors import CorruptHistory, MissingAuthor, MissingBlob, NotARepository
from devcontrib.repo import (
    changed_files,
    open_repository,
    resolve_developer,
    walk_commits,
)
from conftest import RepoBuilder
from oracles import reference_changed_files

JAVA_A = "class A { void f() { } }"
JAVA_A2 = "class A { void f() { g(); } void g() { } }"


def test_not_a_repository(tmp_path):
    with pytest.raises(NotARepository):
        open_repository(str(tmp_path))


def test_single_root_commit(make_repo):
    repo = make_repo()
    repo.commit("init", 1000, {"A.java": JAVA_A})
    tree = open_repository(repo.path)
    assert len(tree) == 1
    record = next(iter(tree.commits.values()))
    assert record.parent_ids == []


def test_linear_chain_of_three(make_repo):
    repo = make_repo()
    repo.commit("c1", 1000, {"A.java": JAVA_A})
    repo.commit("c2", 2000, {"A.java": JAVA_A2})
    repo.commit("c3", 3000, {"B.txt": "notes"})
    tree = open_repository(repo.path)
    assert len(tree) == 3
    order = walk_commits(tree)
    assert [c.id for c in order] == repo.shas
    chain = sum(1 for c in order if c.parent_ids)
    assert chain == 2


def test_fork_and_merge_fixture_counts(make_repo):
    repo = make_repo()
    repo.commit("base", 1000, {"A.java": JAVA_A})
    repo.branch("side")
    repo.commit("side work", 2000, {"B.java": "class B { }"})
    repo.checkout("main")
    repo.commit("main work", 3000, {"C.java": "class C { }"})
    repo.merge("side", 4000)
    tree = open_repository(repo.path)
    assert len(tree) == 4
    multiplicities = sorted(len(c.parent_ids) for c in tree.commits.values())
    assert multiplicities == [0, 1, 1, 2]


def test_walk_linear_order(make_repo):
    repo = make_repo()
    a = repo.commit("a", 1000, {"f.txt": "1"})
    b = repo.commit("b", 2000, {"f.txt": "2"})
    c = repo.commit("c", 3000, {"f.txt": "3"})
    tree = open_repository(repo.path)
    assert [x.id for x in walk_commits(tree)] == [a, b, c]


def test_walk_fork_branches_contiguous(make_repo):
    repo = make_repo()
    base = repo.commit("base", 1000, {"f.txt": "0"})
    repo.branch("left")
    l1 = repo.commit("l1", 2000, {"f.txt": "l1"})
    l2 = repo.commit("l2", 2500, {"f.txt": "l2"})
    repo.checkout("main")
    r1 = repo.commit("r1", 3000, {"f.txt": "r1"})
    r2 = repo.commit("r2", 3500, {"f.txt": "r2"})
    repo.branch("third")
    t1 = repo.commit("t1", 4000, {"f.txt": "t1"})
    repo.checkout("main")
    r3 = repo.commit("r3", 5000, {"f.txt": "r3"})

    tree = open_repository(repo.path)
    order = [c.id for c in walk_commits(tree)]
    assert order[0] == base
    # each branch's commits are contiguous
    li, ri = order.index(l1), order.index(r1)
    assert order[li:li + 2] == [l1, l2]
    assert order[ri:ri + 2] == [r1, r2]
    # third fork (at r2) emits one branch fully before the other
    ti, r3i = order.index(t1), order.index(r3)
    assert abs(ti - r3i) >= 1
    seen = set()
    for c in walk_commits(tree):
        if c.parent_ids and c.parent_ids[0] in tree.commits:
            assert c.parent_ids[0] in seen
        seen.add(c.id)
    # permutation of the tree
    assert sorted(order) == sorted(tree.commits)


def test_changed_files_modified(make_repo):
    repo = make_repo()
    repo.commit("c1", 1000, {"A.java": JAVA_A})
    sha = repo.commit("c2", 2000, {"A.java": JAVA_A2})
    tree = open_repository(repo.path)
    changes = changed_files(tree.commits[sha], tree)
    assert len(changes) == 1
    change = changes[0]
    assert change.kind == "modified"
    assert change.before_content == JAVA_A
    assert change.after_content == JAVA_A2


def test_changed_files_root_commit_additions(make_repo):
    repo = make_repo()
    sha = repo.commit("c1", 1000, {"A.java": JAVA_A, "B.txt": "hello"})
    tree = open_repository(repo.path)
    changes = changed_files(tree.commits[sha], tree)
    assert sorted(c.path for c in changes) == ["A.java", "B.txt"]
    assert all(c.kind == "added" for c in changes)
    assert all(c.before_content is None for c in changes)


def test_merge_first_parent_diff(make_repo):
    repo = make_repo()
    repo.commit("base", 1000, {"A.java": JAVA_A})
    repo.branch("side")
    repo.commit("side", 2000, {"B.java": "class B { }"})
    repo.checkout("main")
    # the first-parent diff of the merge carries the side branch's content
    merge_sha = repo.merge("side", 3000)
    tree = open_repository(repo.path)
    merge_changes = changed_files(tree.commits[merge_sha], tree)
    assert [c.path for c in merge_changes] == ["B.java"]


def test_merge_with_empty_first_parent_delta(make_repo):
    repo = make_repo()
    repo.commit("base", 1000, {"A.java": JAVA_A})
    repo.branch("side")
    repo.commit("side", 2000, {"C.txt": "x"})
    repo.checkout("main")
    # an ours-strategy merge keeps the first parent's tree bit-for-bit
    noop_sha = repo.merge("side", 3000, strategy="ours")
    tree = open_repository(repo.path)
    assert len(tree.commits[noop_sha].parent_ids) == 2
    assert changed_files(tree.commits[noop_sha], tree) == []


def test_rename_detection(make_repo):
    repo = make_repo()
    repo.commit("c1", 1000, {"Old.java": JAVA_A})
    sha = repo.commit("c2", 2000, rename={"Old.java": "New.java"})
    tree = open_repository(repo.path)
    changes = changed_files(tree.commits[sha], tree)
    assert len(changes) == 1
    assert changes[0].kind == "renamed"
    assert changes[0].old_path == "Old.java"
    assert changes[0].path == "New.java"


def test_binary_file_has_no_content(make_repo):
    repo = make_repo()
    repo.commit("c1", 1000, {"A.java": JAVA_A})
    import os
    blob_path = os.path.join(repo.path, "img.bin")
    with open(blob_path, "wb") as fh:
        fh.write(b"\x00\x01\x02binary")
    repo._run("git", "add", "img.bin")
    repo._run("git", "commit", "-q", "-m", "bin", ts=2000)
    sha = repo.head()
    tree = open_repository(repo.path)
    changes = changed_files(tree.commits[sha], tree)
    assert changes[0].path == "img.bin"
    assert changes[0].after_content is None


def test_before_content_matches_parent_blob(make_repo):
    repo = make_repo()
    first = repo.commit("c1", 1000, {"A.java": JAVA_A})
    second = repo.commit("c2", 2000, {"A.java": JAVA_A2})
    tree = open_repository(repo.path)
    change = changed_files(tree.commits[second], tree)[0]
    assert change.before_content == repo.snapshots[first]["A.java"]


def test_resolve_developer_normalizes_email():
    dev = resolve_developer("A", "  Dev@X.COM ")
    assert dev.email == "dev@x.com"
    assert not dev.is_bot


def test_resolve_developer_flags_dependabot():
    dev = resolve_developer(
        "dependabot[bot]",
        "49699333+dependabot[bot]@users.noreply.github.com")
    assert dev.is_bot


def test_resolve_developer_same_email_same_key(make_repo):
    repo = make_repo()
    repo.commit("c1", 1000, {"a.txt": "1"}, author=("Alice", "same@x.com"))
    repo.commit("c2", 2000, {"a.txt": "2"}, author=("Alicia", "SAME@X.COM"))
    tree = open_repository(repo.path)
    emails = {c.author.email for c in tree.commits.values()}
    assert emails == {"same@x.com"}


def test_resolve_developer_missing_author():
    with pytest.raises(MissingAuthor):
        resolve_developer("", "  ")


def test_resolve_developer_deterministic_idempotent():
    a = resolve_developer("Dev", "dev@x.com")
    b = resolve_developer("Dev", "dev@x.com")
    assert a == b


def test_open_repository_single_branch(make_repo):
    repo = make_repo()
    repo.commit("base", 1000, {"a.txt": "1"})
    repo.branch("side")
    side_sha = repo.commit("side", 2000, {"b.txt": "2"})
    repo.checkout("main")
    repo.commit("main2", 3000, {"c.txt": "3"})
    tree = open_repository(repo.path, branch="main")
    assert side_sha not in tree.commits
    assert len(tree) == 2


ODD_PATHS = ["src/café/C.java", 'src/q"t.java', "src/sp ace/D.java",
             "src/tab\there.java", "src/back\\slash.java", "src/new\nline.java"]


@pytest.mark.parametrize("path", ODD_PATHS)
def test_changed_files_keeps_odd_paths(make_repo, path):
    repo = make_repo()
    added = repo.commit("add", 1000, {path: JAVA_A})
    modified = repo.commit("edit", 2000, {path: JAVA_A2})
    tree = open_repository(repo.path)
    [change] = changed_files(tree.commits[added], tree)
    assert (change.kind, change.path, change.after_content) == ("added", path, JAVA_A)
    [change] = changed_files(tree.commits[modified], tree)
    assert (change.kind, change.path) == ("modified", path)
    assert (change.before_content, change.after_content) == (JAVA_A, JAVA_A2)


def test_rename_into_non_ascii_directory(make_repo):
    repo = make_repo()
    repo.commit("c1", 1000, {"src/sp ace/D.java": JAVA_A, "src/café/C.java": JAVA_A2})
    sha = repo.commit("c2", 2000, rename={"src/sp ace/D.java": "src/café/D.java"})
    tree = open_repository(repo.path)
    [change] = changed_files(tree.commits[sha], tree)
    assert change.kind == "renamed"
    assert (change.old_path, change.path) == ("src/sp ace/D.java", "src/café/D.java")
    assert change.before_content == change.after_content == JAVA_A


def test_non_utf8_path_is_decoded_with_replacement(make_repo):
    repo = make_repo()
    raw_path = b"src/caf\xe9/C.java"  # Latin-1, not valid UTF-8
    full = os.path.join(os.fsencode(repo.path), raw_path)
    os.makedirs(os.path.dirname(full))
    with open(full, "w", encoding="utf-8") as fh:
        fh.write(JAVA_A)
    repo._run("git", "add", raw_path)
    repo._run("git", "commit", "-q", "-m", "latin-1 path", ts=1000)
    tree = open_repository(repo.path)
    [change] = changed_files(tree.commits[repo.head()], tree)
    assert change.path == "src/caf�/C.java"
    assert change.after_content == JAVA_A


_SEGMENT = st.text(alphabet="aZ_ é日\"'\t\\$\n", min_size=1, max_size=5)


@st.composite
def _odd_path(draw):
    # the "d"/"f" suffixes keep a file name from clashing with a directory
    # name, and the test's "é" suffix keeps the rename target new
    dirs = draw(st.lists(_SEGMENT.map(lambda s: s + "d"), max_size=2))
    return "/".join(dirs + [draw(_SEGMENT) + "f.java"])


@given(paths=st.lists(_odd_path(), min_size=2, max_size=3, unique=True),
       new_dir=_SEGMENT)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_odd_paths_round_trip(paths, new_dir):
    with tempfile.TemporaryDirectory() as tmp:
        repo = RepoBuilder(tmp)
        texts = {p: f"class K{i} {{ void m{i}() {{ }} }}" for i, p in enumerate(paths)}
        first = repo.commit("add", 1000, texts)
        moved_from = paths[0]
        moved_to = f"{new_dir}é/{moved_from.rsplit('/', 1)[-1]}"
        second = repo.commit("move", 2000, rename={moved_from: moved_to})
        tree = open_repository(repo.path)
        added = {c.path: c.after_content for c in changed_files(tree.commits[first], tree)}
        assert added == texts
        [change] = changed_files(tree.commits[second], tree)
        assert (change.kind, change.old_path, change.path) == ("renamed", moved_from, moved_to)
        assert change.after_content == texts[moved_from]


def _stage_bytes(repo, path, data: bytes):
    full = os.path.join(os.fsencode(repo.path), os.fsencode(path))
    os.makedirs(os.path.dirname(full), exist_ok=True)
    with open(full, "wb") as fh:
        fh.write(data)
    repo._run("git", "add", path)


def test_batched_ingest_equals_per_commit_reference(make_repo):
    repo = make_repo()
    root = repo.commit("root", 1000, {"Old.java": JAVA_A, "src/sp ace/D.java": JAVA_A2,
                                       "notes.txt": "n"})
    # a path that reads like a commit id must stay a path
    repo.commit("moves", 2000, {root: "named after a commit"},
                rename={"Old.java": "New.java", "src/sp ace/D.java": "src/café/D.java"})
    _stage_bytes(repo, "img.bin", b"\x00\x01binary")
    _stage_bytes(repo, "Latin.java", "class L { /* caf\xe9 */ }".encode("latin-1"))
    repo.commit("edit, delete, binary, non-UTF-8", 3000, {"New.java": JAVA_A2},
                remove=["notes.txt"])
    repo.branch("side")
    repo.commit("side", 4000, {"S.java": "class S { }"})
    repo.checkout("main")
    ours = repo.merge("side", 5000, strategy="ours")
    repo.checkout("side")
    repo.commit("side again", 6000, {"T.java": "class T { void t() { } }"})
    repo.checkout("main")
    repo.merge("side", 7000)
    repo._run("git", "checkout", "-q", "--orphan", "other")
    repo._run("git", "rm", "-r", "-q", "-f", ".")
    repo.commit("second root", 8000, {"Z.java": JAVA_A})

    tree = open_repository(repo.path)
    assert sum(not c.parent_ids for c in tree.commits.values()) == 2
    seen = []
    for commit in walk_commits(tree):
        changes = changed_files(commit, tree)
        assert changes == reference_changed_files(commit, tree), commit.id
        seen.extend(changes)
    assert changed_files(tree.commits[ours], tree) == []
    assert {c.kind for c in seen} == {"added", "deleted", "modified", "renamed"}
    assert root in {c.path for c in seen}
    assert {c.path for c in seen if c.after_blob and c.after_content is None} == {
        "img.bin", "Latin.java"}
    tree.close()


def test_one_commit_with_thousands_of_blobs(make_repo):
    repo = make_repo()
    texts = {f"d{i % 20}/F{i}.java": f"class F{i} {{ }}" for i in range(2000)}
    for path, text in texts.items():
        os.makedirs(os.path.join(repo.path, os.path.dirname(path)), exist_ok=True)
        with open(os.path.join(repo.path, path), "w", encoding="utf-8") as fh:
            fh.write(text)
    repo._run("git", "add", "-A")
    repo._run("git", "commit", "-q", "-m", "import", ts=1000)
    tree = open_repository(repo.path)
    [commit] = tree.commits.values()
    result = []
    worker = threading.Thread(target=lambda: result.append(changed_files(commit, tree)),
                              daemon=True)
    worker.start()
    worker.join(60)
    assert not worker.is_alive(), "changed_files still running after 60 s"
    assert {c.path: c.after_content for c in result[0]} == texts
    tree.close()


def test_each_blob_is_read_once_per_commit(make_repo, monkeypatch):
    repo = make_repo()
    repo.commit("base", 1000, {"A.java": JAVA_A})
    sha = repo.commit("copies", 2000, {"A.java": JAVA_A2, "B.java": JAVA_A2})
    requests = []
    read_blob = repo_module._HistoryReader.read_blob

    def counted(reader, blob):
        requests.append(blob)
        return read_blob(reader, blob)

    monkeypatch.setattr(repo_module._HistoryReader, "read_blob", counted)
    tree = open_repository(repo.path)
    changes = changed_files(tree.commits[sha], tree)
    assert [c.after_content for c in changes] == [JAVA_A2, JAVA_A2]
    assert len(requests) == len(set(requests)) == 2
    tree.close()


def test_missing_blob_raises_missing_blob(make_repo):
    repo = make_repo()
    sha = repo.commit("c1", 1000, {"A.java": JAVA_A})
    tree = open_repository(repo.path)
    [change] = reference_changed_files(tree.commits[sha], tree)
    blob = change.after_blob
    os.remove(os.path.join(repo.path, ".git", "objects", blob[:2], blob[2:]))
    with pytest.raises(MissingBlob):
        changed_files(tree.commits[sha], tree)
    tree.close()


def _swap_cat_file(monkeypatch, script):
    """Run ``script`` in place of every ``git cat-file`` process."""
    popen = subprocess.Popen

    def swapped(args, *rest, **kwargs):
        if "cat-file" in args:
            if script is None:
                raise FileNotFoundError(args[0])
            args = [sys.executable, "-c", script]
        return popen(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", swapped)


def test_missing_git_binary_for_the_blob_reader(make_repo, monkeypatch):
    repo = make_repo()
    sha = repo.commit("c1", 1000, {"A.java": JAVA_A})
    tree = open_repository(repo.path)
    _swap_cat_file(monkeypatch, None)
    with pytest.raises(NotARepository):
        changed_files(tree.commits[sha], tree)


_READ = "import sys; sha = sys.stdin.readline().strip(); "
BROKEN_READERS = {
    "exits at once": "",
    "no size": _READ + "print(sha, 'blob', flush=True)",
    "size not a number": _READ + "print(sha, 'blob', 'x', flush=True)",
    "short body": _READ + "print(sha, 'blob', 100); print('short', flush=True)",
    "no newline after body": _READ + "print(sha, 'blob', 2); print('abc', flush=True)",
}


@pytest.mark.parametrize("script", BROKEN_READERS.values(), ids=BROKEN_READERS)
def test_broken_blob_reader_raises_corrupt_history(make_repo, monkeypatch, script):
    repo = make_repo()
    sha = repo.commit("c1", 1000, {"A.java": JAVA_A})
    tree = open_repository(repo.path)
    _swap_cat_file(monkeypatch, script)
    with pytest.raises(CorruptHistory):
        changed_files(tree.commits[sha], tree)
    tree.close()


def test_killed_blob_reader_raises_corrupt_history(make_repo):
    repo = make_repo()
    first = repo.commit("c1", 1000, {"A.java": JAVA_A})
    second = repo.commit("c2", 2000, {"A.java": JAVA_A2})
    tree = open_repository(repo.path)
    changed_files(tree.commits[first], tree)
    proc = tree._reader._proc
    proc.kill()
    proc.wait()
    with pytest.raises(CorruptHistory):
        changed_files(tree.commits[second], tree)
    tree.close()


def test_dropped_tree_reaps_its_reader(make_repo):
    repo = make_repo()
    sha = repo.commit("c1", 1000, {"A.java": JAVA_A})
    tree = open_repository(repo.path)
    changed_files(tree.commits[sha], tree)
    proc = tree._reader._proc
    assert proc.poll() is None
    del tree
    assert proc.poll() is not None
