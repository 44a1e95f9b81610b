"""Git repository ingestion: version tree, commit walk, file changes.

Reads standard git object storage by shelling out to the ``git`` binary
(plumbing commands only).  ``open_repository`` runs ``rev-parse`` (a
second time to resolve a given branch) and ``log``, each to completion.
The first ``changed_files`` call on a tree starts its reader, which runs
one ``git diff-tree --stdin`` over every commit of the tree and keeps one
``git cat-file --batch`` process for the blobs; so a whole run starts four
git processes, five when it is given a branch.  ``VersionTree.close``
stops the blob reader (``analyze_repository`` calls it on every exit
path), and a tree that is dropped without being closed stops it when it
is freed.  Diffs are taken against the first parent, so a ``--no-ff``
merge's diff holds all its topic branch wrote, and that work is scored
again for the merge; an empty first-parent diff scores zero downstream.

The commit walk is a depth-first traversal of the first-parent forest:
every commit appears after the parent it was reached through, and at a
fork one branch is emitted completely before its sibling starts.  That
ordering is what lets the call graph update incrementally, restoring a
fork's checkpoint before each later sibling.
"""

from __future__ import annotations

import itertools
import subprocess
import weakref
from collections import defaultdict
from dataclasses import dataclass, field, replace

from .config import DEFAULT_BOT_PATTERNS
from .errors import CorruptHistory, MissingAuthor, MissingBlob, NotARepository

_NULL_SHA = "0" * 40
# modes whose object is no source text: a submodule's commit, a symlink's target
_NO_BLOB_MODES = ("160000", "120000")


@dataclass(frozen=True)
class DeveloperIdentity:
    email: str
    display_name: str
    is_bot: bool = False


@dataclass
class FileChange:
    path: str
    kind: str  # added | deleted | modified | renamed
    before_content: str | None = None
    after_content: str | None = None
    old_path: str | None = None
    before_blob: str | None = None
    after_blob: str | None = None

    @property
    def before_path(self) -> str:
        """The file's path on the before side."""
        return self.old_path if self.kind == "renamed" else self.path


@dataclass
class CommitRecord:
    id: str
    parent_ids: list[str]
    author: DeveloperIdentity
    timestamp: int


@dataclass
class VersionTree:
    path: str
    commits: dict[str, CommitRecord] = field(default_factory=dict)
    # started by the first changed_files call
    _reader: _HistoryReader | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def __len__(self):
        return len(self.commits)

    def close(self):
        """Stop the blob reader; a later ``changed_files`` starts a new one."""
        if self._reader is not None:
            self._reader.close()
            self._reader = None


def _git(path: str, *args: str, data: bytes | None = None) -> bytes:
    try:
        proc = subprocess.run(["git", "-C", path, *args], input=data,
                              capture_output=True, check=False)
    except FileNotFoundError as exc:
        raise NotARepository("git binary not available") from exc
    if proc.returncode != 0:
        raise CorruptHistory(
            f"git {' '.join(args[:2])} failed: {proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def resolve_developer(display_name: str, email: str,
                      bot_patterns=DEFAULT_BOT_PATTERNS) -> DeveloperIdentity:
    """Normalize author metadata; the lowercased email is the identity key."""
    email = (email or "").strip().lower()
    display_name = (display_name or "").strip()
    if not email and not display_name:
        raise MissingAuthor("commit has neither author email nor name")
    haystacks = (email, display_name.lower())
    is_bot = any(p.lower() in h for p in bot_patterns for h in haystacks)
    return DeveloperIdentity(email=email, display_name=display_name, is_bot=is_bot)


def open_repository(path: str, branch: str | None = None,
                    bot_patterns=DEFAULT_BOT_PATTERNS) -> VersionTree:
    """Load the commit graph reachable from all branch heads (or one branch)."""
    try:
        _git(path, "rev-parse", "--git-dir")
    except CorruptHistory as exc:
        raise NotARepository(f"{path} is not a git repository") from exc

    if branch is not None:
        revs = [_git(path, "rev-parse", "--verify", branch).decode().strip()]
    else:
        revs = ["--branches"]
    tree = VersionTree(path=path)
    raw = _git(path, "log", "--format=%x01%H%x00%P%x00%an%x00%ae%x00%at", *revs)
    for entry in raw.decode(errors="replace").split("\x01"):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split("\x00")
        if len(parts) != 5:
            raise CorruptHistory(f"unexpected log entry: {entry!r}")
        sha, parents, name, email, ts = parts
        try:
            timestamp = int(ts)
        except ValueError as exc:
            raise CorruptHistory(f"bad timestamp on {sha}") from exc
        tree.commits[sha] = CommitRecord(
            id=sha,
            parent_ids=parents.split() if parents else [],
            author=resolve_developer(name, email, bot_patterns),
            timestamp=timestamp,
        )
    return tree


def walk_commits(tree: VersionTree) -> list[CommitRecord]:
    """Depth-first order over the first-parent forest.

    Children of a fork are visited oldest-first (timestamp, then id), each
    branch contiguously.  Commits whose first parent is absent from the
    tree (partial clones) are treated as roots.
    """
    children = first_parent_children(tree)
    roots = _oldest_first(tree, (
        cid for cid, record in tree.commits.items()
        if not record.parent_ids or record.parent_ids[0] not in tree.commits))

    out = []
    stack = list(reversed(roots))
    while stack:
        cid = stack.pop()
        out.append(tree.commits[cid])
        stack.extend(reversed(children.get(cid, [])))
    return out


def first_parent_children(tree: VersionTree) -> dict[str, list[str]]:
    """Map commit id -> first-parent children, in walk order."""
    children = defaultdict(list)
    for record in tree.commits.values():
        if record.parent_ids and record.parent_ids[0] in tree.commits:
            children[record.parent_ids[0]].append(record.id)
    return {cid: _oldest_first(tree, bucket) for cid, bucket in children.items()}


def _oldest_first(tree: VersionTree, ids) -> list[str]:
    """Commit ids sorted by timestamp, then id."""
    return sorted(ids, key=lambda cid: (tree.commits[cid].timestamp, cid))


_STATUS_KIND = {"A": "added", "C": "added", "D": "deleted",
                "M": "modified", "T": "modified", "R": "renamed"}


def changed_files(commit: CommitRecord, tree: VersionTree) -> list[FileChange]:
    """First-parent diff with full before/after text for source files.

    Paths are read NUL-separated (``-z``), so git passes them through
    unquoted; a path that is not valid UTF-8 is decoded with replacement
    characters.  Binary blobs and blobs that are not valid UTF-8 keep their
    change entry but carry no content.  Each blob is read once per call,
    and no text is kept across calls.
    """
    if tree._reader is None:
        tree._reader = _HistoryReader(tree)
    reader = tree._reader
    changes = [replace(change) for change in reader.diffs.get(commit.id, ())]
    texts: dict[str, str | None] = {}
    for change in changes:
        for blob in (change.before_blob, change.after_blob):
            if blob and blob not in texts:
                texts[blob] = _text(reader.read_blob(blob))
        change.before_content = texts.get(change.before_blob)
        change.after_content = texts.get(change.after_blob)
    return changes


def _text(body: bytes) -> str | None:
    """A blob's text, or None for binary or non-UTF-8 content."""
    if b"\x00" in body:
        return None
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        return None


class _HistoryReader:
    """The first-parent diffs of a whole tree and the process serving their blobs.

    ``diffs`` maps a commit id to its changes without content; a commit
    with an empty diff has no entry.  Blobs come from one long-lived
    ``git cat-file --batch``, stopped by ``close`` or when the reader is
    freed.  The reader keeps no reference to its tree, so a dropped tree
    frees it by reference counting.
    """

    def __init__(self, tree: VersionTree):
        self.diffs = _diff_index(tree)
        try:
            self._proc = subprocess.Popen(
                ["git", "-C", tree.path, "cat-file", "--batch"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL)
        except FileNotFoundError as exc:
            raise NotARepository("git binary not available") from exc
        self._finalizer = weakref.finalize(self, _stop, self._proc)

    def close(self):
        """Stop the cat-file process; later calls do nothing."""
        self._finalizer()

    def read_blob(self, sha: str) -> bytes:
        """One blob's bytes.  Each request is answered before the next one
        is sent, so neither pipe can fill up however many blobs a commit
        has."""
        proc = self._proc
        try:
            proc.stdin.write(sha.encode() + b"\n")
            proc.stdin.flush()
        except BrokenPipeError as exc:
            raise CorruptHistory(f"git cat-file exited before blob {sha}") from exc
        line = proc.stdout.readline()
        header = line.split()
        if header[1:] == [b"missing"]:
            raise MissingBlob(sha)
        if len(header) != 3 or not header[2].isdigit():
            raise CorruptHistory(f"unexpected cat-file header for blob {sha}: {line!r}")
        size = int(header[2])
        body = proc.stdout.read(size)
        if len(body) != size or proc.stdout.read(1) != b"\n":
            raise CorruptHistory(f"git cat-file cut blob {sha} short")
        return body


def _stop(proc: subprocess.Popen):
    """End a cat-file process: it exits at the end of its input."""
    try:
        proc.stdin.close()
    except BrokenPipeError:
        pass  # it exited already, with a request unread
    proc.stdout.close()
    proc.wait()


def _diff_index(tree: VersionTree) -> dict[str, list[FileChange]]:
    """Every commit's first-parent changes, from one ``git diff-tree --stdin``.

    Built from ``tree.commits``: each input line is ``<commit> <first
    parent>``, or the commit alone for a root, which ``--root`` diffs
    against the empty tree.  The output is a ``<commit>`` NUL header per
    commit with a non-empty diff, followed by its ``-z`` records.
    """
    lines = "".join(f"{c.id} {c.parent_ids[0]}\n" if c.parent_ids else f"{c.id}\n"
                    for c in tree.commits.values())
    raw = _git(tree.path, "diff-tree", "--stdin", "--root", "-r", "-M", "-z",
               data=lines.encode())
    index: dict[str, list[FileChange]] = {}
    changes = None
    # records: ":<modes> <shas> <status>" NUL <path> NUL, with a second
    # path for renames and copies; the output ends with a NUL.  Paths are
    # taken by position, so a path that looks like a commit id stays a path.
    # A submodule side names a commit of another repository and a symlink
    # side's blob holds the link's target path, so neither carries a blob; a
    # record with no blob on either side is dropped.
    fields = iter(raw.split(b"\0")[:-1])
    for head in fields:
        if not head.startswith(b":"):
            index[head.decode(errors="replace")] = changes = []
            continue
        meta = head[1:].decode(errors="replace").split()
        if len(meta) < 5 or changes is None:
            raise CorruptHistory(f"unexpected diff-tree record: {head!r}")
        mode_before, mode_after, sha_before, sha_after, status = meta[:5]
        n_paths = 2 if status[0] in "RC" else 1
        paths = [p.decode(errors="replace") for p in itertools.islice(fields, n_paths)]
        if len(paths) != n_paths:
            raise CorruptHistory(f"diff-tree record without its paths: {head!r}")
        kind = _STATUS_KIND.get(status[0])
        if kind is None:
            continue
        old_path = paths[0] if n_paths == 2 else None
        change = FileChange(path=paths[-1], kind=kind, old_path=old_path)
        if sha_before != _NULL_SHA and kind != "added" and mode_before not in _NO_BLOB_MODES:
            change.before_blob = sha_before
        if sha_after != _NULL_SHA and kind != "deleted" and mode_after not in _NO_BLOB_MODES:
            change.after_blob = sha_after
        if change.before_blob or change.after_blob:
            changes.append(change)
    return index
