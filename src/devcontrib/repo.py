"""Git repository ingestion: version tree, commit walk, file changes.

Reads standard git object storage by shelling out to the ``git`` binary
(plumbing commands only: ``rev-parse``, ``for-each-ref``, ``log``,
``diff-tree``, ``cat-file --batch``).  Diffs are taken against the first
parent, so merge commits contribute only what the merge itself wrote; a
merge with an empty first-parent diff scores zero downstream.

The commit walk is a depth-first traversal of the first-parent forest:
every commit appears after the parent it was reached through, and at a
fork one branch is emitted completely before its sibling starts.  That
ordering is what lets the call graph update incrementally with one
checkpoint per fork.
"""

from __future__ import annotations

import itertools
import subprocess
from collections import defaultdict
from dataclasses import dataclass, field

from .config import DEFAULT_BOT_PATTERNS
from .errors import CorruptHistory, MissingAuthor, MissingBlob, NotARepository

_NULL_SHA = "0" * 40


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
    heads: list[str] = field(default_factory=list)

    def __len__(self):
        return len(self.commits)


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
        out = _git(path, "rev-parse", "--verify", branch).decode().strip()
        heads = [out]
    else:
        out = _git(path, "for-each-ref", "--format=%(objectname)", "refs/heads")
        heads = [line for line in out.decode().splitlines() if line]
    tree = VersionTree(path=path, heads=heads)
    if not heads:
        return tree

    raw = _git(path, "log", "--format=%x01%H%x00%P%x00%an%x00%ae%x00%at", *heads)
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
    characters.  Binary blobs keep their change entry but carry no content.
    """
    if commit.parent_ids:
        raw = _git(tree.path, "diff-tree", "-r", "-M", "-z", "--no-commit-id",
                   commit.parent_ids[0], commit.id)
    else:
        raw = _git(tree.path, "diff-tree", "-r", "-M", "-z", "--root",
                   "--no-commit-id", commit.id)

    changes = []
    # records: ":<modes> <shas> <status>" NUL <path> NUL, with a second
    # path for renames and copies; the output ends with a NUL
    fields = iter(raw.split(b"\0")[:-1])
    for head in fields:
        meta = head.decode(errors="replace").split()
        if len(meta) < 5 or not meta[0].startswith(":"):
            raise CorruptHistory(f"unexpected diff-tree record: {head!r}")
        sha_before, sha_after, status = meta[2], meta[3], meta[4]
        n_paths = 2 if status[0] in "RC" else 1
        paths = [p.decode(errors="replace") for p in itertools.islice(fields, n_paths)]
        if len(paths) != n_paths:
            raise CorruptHistory(f"diff-tree record without its paths: {head!r}")
        kind = _STATUS_KIND.get(status[0])
        if kind is None:
            continue
        old_path = paths[0] if n_paths == 2 else None
        change = FileChange(path=paths[-1], kind=kind, old_path=old_path)
        if sha_before != _NULL_SHA and kind != "added":
            change.before_blob = sha_before
        if sha_after != _NULL_SHA and kind != "deleted":
            change.after_blob = sha_after
        changes.append(change)

    _fill_contents(tree.path, changes)
    return changes


def _fill_contents(repo_path: str, changes: list[FileChange]):
    wanted = []
    for change in changes:
        for blob in (change.before_blob, change.after_blob):
            if blob:
                wanted.append(blob)
    if not wanted:
        return
    raw = _git(repo_path, "cat-file", "--batch",
               data=("\n".join(wanted) + "\n").encode())
    contents: dict[str, str | None] = {}
    pos = 0
    for blob in wanted:
        # cat-file answers every request line, duplicates included
        header_end = raw.index(b"\n", pos)
        header = raw[pos:header_end].decode()
        parts = header.split()
        if len(parts) >= 2 and parts[1] == "missing":
            raise MissingBlob(parts[0])
        size = int(parts[2])
        body = raw[header_end + 1: header_end + 1 + size]
        pos = header_end + 1 + size + 1  # trailing newline
        if b"\x00" in body:
            contents[blob] = None  # binary
        else:
            try:
                contents[blob] = body.decode("utf-8")
            except UnicodeDecodeError:
                contents[blob] = None
    for change in changes:
        if change.before_blob:
            change.before_content = contents.get(change.before_blob)
        if change.after_blob:
            change.after_content = contents.get(change.after_blob)
