import os
import subprocess

import pytest


class RepoBuilder:
    """Scripted git repository with snapshot bookkeeping for oracles."""

    def __init__(self, path):
        self.path = str(path)
        self.snapshots = {}   # sha -> {path: text}
        self.shas = []        # in creation order
        self._run("git", "init", "-q", "-b", "main")
        self._run("git", "config", "user.email", "core@example.com")
        self._run("git", "config", "user.name", "Core Dev")

    def _run(self, *args, ts=None, author=None):
        env = dict(os.environ)
        if ts is not None:
            env["GIT_AUTHOR_DATE"] = f"@{ts} +0000"
            env["GIT_COMMITTER_DATE"] = f"@{ts} +0000"
        if author is not None:
            env["GIT_AUTHOR_NAME"], env["GIT_AUTHOR_EMAIL"] = author
        proc = subprocess.run(args, cwd=self.path, capture_output=True, env=env)
        if proc.returncode != 0:
            raise RuntimeError(f"{args} failed: {proc.stderr.decode()}")
        return proc.stdout.decode(errors="replace")

    def head(self):
        return self._run("git", "rev-parse", "HEAD").strip()

    def commit(self, message, ts, files=None, remove=None, rename=None, author=None):
        """files: {path: text}; remove: [path]; rename: {old: new}."""
        for old, new in (rename or {}).items():
            os.makedirs(os.path.join(self.path, os.path.dirname(new)), exist_ok=True)
            self._run("git", "mv", old, new)
        for p in remove or []:
            self._run("git", "rm", "-q", p)
        for p, text in (files or {}).items():
            full = os.path.join(self.path, p)
            os.makedirs(os.path.dirname(full), exist_ok=True) if os.path.dirname(p) else None
            with open(full, "w", encoding="utf-8") as fh:
                fh.write(text)
            self._run("git", "add", p)
        self._run("git", "commit", "-q", "--allow-empty", "-m", message,
                  ts=ts, author=author)
        sha = self.head()
        self.shas.append(sha)
        self.snapshots[sha] = self._read_tree(sha)
        return sha

    def branch(self, name):
        self._run("git", "checkout", "-q", "-b", name)

    def checkout(self, name):
        self._run("git", "checkout", "-q", name)

    def merge(self, branch, ts, message="merge", author=None, strategy=None):
        args = ["git", "merge", "-q", "--no-ff"]
        if strategy:
            args += ["-s", strategy]
        args += [branch, "-m", message]
        self._run(*args, ts=ts, author=author)
        sha = self.head()
        self.shas.append(sha)
        self.snapshots[sha] = self._read_tree(sha)
        return sha

    def _read_tree(self, sha):
        out = self._run("git", "ls-tree", "-r", "-z", sha)
        snapshot = {}
        for entry in out.split("\0")[:-1]:
            meta, _, path = entry.partition("\t")
            blob = meta.split()[2]
            content = subprocess.run(
                ["git", "-C", self.path, "cat-file", "blob", blob],
                capture_output=True, check=True).stdout
            try:
                snapshot[path] = content.decode("utf-8")
            except UnicodeDecodeError:
                snapshot[path] = None
        return snapshot


@pytest.fixture
def make_repo(tmp_path):
    counter = [0]

    def factory():
        counter[0] += 1
        path = tmp_path / f"repo{counter[0]}"
        path.mkdir()
        return RepoBuilder(path)

    return factory
