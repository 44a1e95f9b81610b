"""Seeded synthetic Java git histories for the devcontrib benchmark.

Every workload is written as one ``git fast-import`` stream with fixed
author and committer dates, so a (workload, seed) pair always yields the
same commit ids.  The seed only picks names, call targets and which
statements an edit touches; file, method, statement and commit counts are
fixed per workload, so the amount of work barely depends on the seed.

Next to the repository the generator writes the oracle: for every
non-merge commit, the methods (qualified as ``extract_functions`` names
them, e.g. ``C3.loadOrder(int)``) that received a scored statement edit --
an insert, update, delete or local-variable rename outside any logging
call.  A correct analysis reports each of them with ``delta_ast > 0``.
Entries in files the program is known to drop carry the reason.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

EPOCH = 1_600_000_000
STEP = 600  # seconds between consecutive commits

HUMANS = (
    ("Ada Park", "ada@example.com"),
    ("Ben Ortiz", "ben@example.com"),
    ("Chen Wu", "chen@example.com"),
    ("Dana Kim", "dana@example.com"),
    ("Eli Novak", "eli@example.com"),
)
BOT = ("renovate[bot]", "bot@renovate.example")

VERBS = ("load", "save", "parse", "merge", "scan", "split", "build", "check",
         "apply", "count", "fetch", "index", "render", "route", "score", "sort",
         "trim", "emit", "join", "map")
NOUNS = ("Order", "Item", "User", "Token", "Page", "Node", "Edge", "Batch",
         "Entry", "Block", "Frame", "Query", "Record", "Slot", "Chunk", "Event",
         "Field", "Rule", "Path", "Span", "Key", "Row", "Cell", "Tag", "Unit")

SCORED_KINDS = ("decl", "call", "branch", "loop")
PACKAGES = 6  # fork-heavy spreads its files over this many packages

# Files whose edits the program at the seed silently drops.  A path with a
# non-ASCII byte comes back from ``git diff-tree`` quoted, so its extension
# is no longer ``.java``; a top-level ``record`` with an arrow ``switch``
# does not parse.
DROP_NON_ASCII = "non-ascii-path"
DROP_SYNTAX = "record-arrow-switch"


@dataclass(frozen=True)
class Shape:
    """Fixed sizes of one workload; the seed varies only the content."""

    files: int
    methods: int            # per file
    statements: int         # per method at import
    calls: int              # cross-file call statements per method at import
    commits: int            # commits after the import commit
    files_per_commit: tuple[int, int]
    methods_per_file: tuple[int, int]
    edits_per_method: tuple[int, int]
    edit_mix: tuple[tuple[str, int], ...]
    forks: int = 0          # feature branches merged back with --no-ff


FULL_MIX = (("insert", 30), ("update", 25), ("delete", 12), ("rename", 10),
            ("log", 12), ("comment", 11))

WORKLOADS = {
    "edit-heavy": Shape(files=24, methods=4, statements=5, calls=1,
                        commits=100, files_per_commit=(1, 3),
                        methods_per_file=(1, 3), edits_per_method=(1, 2),
                        edit_mix=FULL_MIX),
    "graph-heavy": Shape(files=520, methods=10, statements=2, calls=2,
                         commits=100, files_per_commit=(1, 1),
                         methods_per_file=(1, 1), edits_per_method=(1, 1),
                         edit_mix=(("update", 1), ("insert", 1))),
    "fork-heavy": Shape(files=24, methods=4, statements=3, calls=1,
                        commits=120, files_per_commit=(1, 3),
                        methods_per_file=(1, 2), edits_per_method=(1, 2),
                        edit_mix=FULL_MIX, forks=24),
}


@dataclass
class Stmt:
    kind: str               # decl | call | branch | loop | log | comment
    lit: int
    var: str = ""
    k: int = 2
    callee: str = ""

    def lines(self, method: str) -> list[str]:
        if self.kind == "decl":
            return [f"int {self.var} = x * {self.k} + {self.lit};"]
        if self.kind == "call":
            return [f"int {self.var} = {self.callee}(x + {self.lit});"]
        if self.kind == "branch":
            return [f"if (x > {self.lit}) {{", f"    x = x - {self.k};", "}"]
        if self.kind == "loop":
            return [f"for (int i = 0; i < {self.k}; i++) {{",
                    f"    x = x + i * {self.lit};", "}"]
        if self.kind == "log":
            return [f'log.info("{method} {self.lit}");']
        return [f"// step {self.lit}"]


@dataclass
class Method:
    name: str
    stmts: list[Stmt]
    ret: int

    def render(self) -> list[str]:
        out = [f"    static int {self.name}(int x) {{"]
        for stmt in self.stmts:
            out.extend("        " + line for line in stmt.lines(self.name))
        out.append(f"        return x + {self.ret};")
        out.append("    }")
        return out

    def scored_lines(self) -> list[str]:
        return [line for stmt in self.stmts if stmt.kind in SCORED_KINDS
                for line in stmt.lines(self.name)]


@dataclass
class JavaFile:
    path: str
    package: str
    cls: str
    methods: list[Method]
    drop: str | None = None

    def render(self) -> bytes:
        out = [f"package {self.package};", ""]
        if self.drop == DROP_SYNTAX:
            out.append(f"public record {self.cls}(int lo, int hi) {{")
            out += ["    static int pick(int x) {",
                    "        switch (x) {",
                    "            case 1 -> x = x + 1;",
                    "            default -> x = x - 1;",
                    "        }",
                    "        return x;",
                    "    }"]
        else:
            out.append(f"public class {self.cls} {{")
            out.append(f'    private static final Logger log = Logger.getLogger("{self.cls}");')
        for method in self.methods:
            out.append("")
            out.extend(method.render())
        out.append("}")
        return ("\n".join(out) + "\n").encode("utf-8")


@dataclass
class Commit:
    mark: int
    ref: str
    author: tuple[str, str]
    message: str
    parents: list[int]
    ops: list[tuple]                       # ("M", path, bytes) | ("D", path)
    entries: list[tuple[str, str, str | None]] = field(default_factory=list)


class History:
    """Project state plus the commits written so far."""

    def __init__(self, workload: str, seed: int):
        self.shape = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.files: dict[str, JavaFile] = {}
        self.commits: list[Commit] = []
        self.counter = 1000
        self.class_counter = 0
        self.misc_counter = 0
        self.decks: dict[tuple, list] = {}

    # -- content -------------------------------------------------------------

    def draw(self, deck: str, cards):
        """Next card of the named shuffled deck of ``cards``, refilled when empty.

        Drawing counts and edit kinds from decks instead of independently
        keeps their totals, and so the work a history costs, nearly equal
        across seeds.
        """
        pile = self.decks.setdefault(deck, [])
        if not pile:
            pile.extend(cards)
            self.rng.shuffle(pile)
        return pile.pop()

    def span(self, deck: str, bounds: tuple[int, int]) -> int:
        return self.draw(deck, range(bounds[0], bounds[1] + 1))

    def fresh(self) -> int:
        self.counter += 1
        return self.counter

    def callee(self, exclude: str | None = None) -> str:
        candidates = [f for f in self.files.values()
                      if f.drop is None and f.path != exclude and f.methods]
        target = self.rng.choice(candidates)
        return f"{target.cls}.{self.rng.choice(target.methods).name}"

    def new_stmt(self, kind: str, path: str) -> Stmt:
        lit = self.fresh()
        if kind == "call":
            return Stmt("call", lit, var=f"v{lit}", callee=self.callee(path))
        return Stmt(kind, lit, var=f"v{lit}", k=self.rng.randint(2, 9))

    def new_file(self, path: str, package: str, drop: str | None = None) -> JavaFile:
        shape = self.shape
        self.class_counter += 1
        cls = f"C{self.class_counter}"
        names = self.rng.sample([v + n for v in VERBS for n in NOUNS], shape.methods)
        jf = JavaFile(path.format(cls=cls), package, cls, [], drop)
        self.files[jf.path] = jf
        for name in names:
            # the same statement kinds in every method keep file sizes equal
            kinds = [("decl", "branch", "loop")[i % 3] for i in range(shape.statements)]
            self.rng.shuffle(kinds)
            stmts = [self.new_stmt(kind, jf.path) for kind in kinds]
            stmts.insert(self.rng.randrange(len(stmts) + 1),
                         self.new_stmt("log", jf.path))
            jf.methods.append(Method(name, stmts, self.fresh()))
        return jf

    def add_calls(self):
        """Give every method its cross-file calls once all classes exist."""
        for jf in self.files.values():
            for method in jf.methods:
                for _ in range(self.shape.calls):
                    method.stmts.insert(self.rng.randrange(len(method.stmts) + 1),
                                        self.new_stmt("call", jf.path))

    def edit_method(self, jf: JavaFile, method: Method, op: str):
        """Apply one edit: a scored statement edit or a log/comment edit."""
        rng = self.rng
        scored = [s for s in method.stmts if s.kind in SCORED_KINDS]
        if op == "delete" and len(scored) <= 2:
            op = "insert"
        if op == "rename" and not any(s.kind in ("decl", "call") for s in scored):
            op = "update"
        if op == "insert":
            kind = self.draw("insert", SCORED_KINDS)
            method.stmts.insert(rng.randrange(len(method.stmts) + 1),
                                self.new_stmt(kind, jf.path))
        elif op == "update":
            rng.choice(scored).lit = self.fresh()
        elif op == "delete":
            method.stmts.remove(rng.choice(scored))
        elif op == "rename":
            stmt = rng.choice([s for s in scored if s.kind in ("decl", "call")])
            stmt.var = f"r{self.fresh()}"
        else:  # log / comment edits never score
            existing = [s for s in method.stmts if s.kind == op]
            if existing and rng.random() < 0.5:
                rng.choice(existing).lit = self.fresh()
            else:
                method.stmts.insert(rng.randrange(len(method.stmts) + 1),
                                    self.new_stmt(op, jf.path))

    def edit_files(self, candidates: list[JavaFile]):
        """Edit methods in a few files; returns (touched files, oracle entries)."""
        shape, rng = self.shape, self.rng
        ops = [op for op, weight in shape.edit_mix for _ in range(weight)]
        picked = rng.sample(candidates, min(len(candidates),
                                            self.span("files", shape.files_per_commit)))
        entries = []
        for jf in picked:
            n = min(len(jf.methods), self.span("methods", shape.methods_per_file))
            for method in rng.sample(jf.methods, n):
                # two edits can cancel out (an insert deleted again), so the
                # oracle compares the scored statements, not the edit log
                before = method.scored_lines()
                for _ in range(self.span("edits", shape.edits_per_method)):
                    self.edit_method(jf, method, self.draw("op", ops))
                if method.scored_lines() != before:
                    entries.append((f"{jf.cls}.{method.name}(int)", jf.path, jf.drop))
        return picked, entries

    # -- commits -----------------------------------------------------------------

    def commit(self, ref: str, parents: list[int], ops: list[tuple],
               entries=(), author=None, message="change") -> int:
        mark = len(self.commits) + 1
        author = author or self.rng.choice(HUMANS)
        self.commits.append(Commit(mark, ref, author, message, parents, ops,
                                   list(entries)))
        return mark

    def write_ops(self, files) -> list[tuple]:
        return [("M", jf.path, jf.render()) for jf in files]

    def import_commit(self) -> int:
        return self.commit("refs/heads/main", [], self.write_ops(self.files.values()),
                           message="import")

    def linear(self):
        head = self.import_commit()
        for _ in range(self.shape.commits):
            picked, entries = self.edit_files(list(self.files.values()))
            head = self.commit("refs/heads/main", [head], self.write_ops(picked), entries)

    # -- fork-heavy ----------------------------------------------------------------

    def misc_ops(self) -> list[tuple]:
        """A non-Java or binary change: docs, config or an image blob."""
        rng = self.rng
        self.misc_counter += 1
        n = self.misc_counter
        choice = self.draw("misc", (0, 1, 2))
        if choice == 0:
            return [("M", f"docs/notes-{n % 5}.md",
                     f"# Notes {n}\n\nRevision {n}.\n".encode())]
        if choice == 1:
            return [("M", "config/app.properties",
                     f"app.version=1.{n}\napp.threads={rng.randint(2, 9)}\n".encode())]
        blob = bytes([0x89, 0x50, 0x4E, 0x47, 0, 0, 0, 0x0D]) + rng.randbytes(256)
        return [("M", f"assets/icon{n % 4}.png", blob)]

    def structural_ops(self, candidates: list[JavaFile]) -> list[tuple]:
        """Move a Java file to another package, delete one, or add a new one."""
        rng = self.rng
        choice = self.draw("structural", (0, 1, 2))
        movable = [jf for jf in candidates if jf.drop is None]
        if choice == 0 and movable:
            jf = rng.choice(movable)
            old = jf.path
            pkg = rng.randrange(PACKAGES)
            jf.package = f"app.p{pkg}"
            jf.path = f"src/main/java/app/p{pkg}/{jf.cls}.java"
            if jf.path == old:
                return []
            self.files[jf.path] = self.files.pop(old)
            return [("D", old), ("M", jf.path, jf.render())]
        if choice == 1 and len(movable) > 1 and len(self.files) > self.shape.files // 2:
            jf = rng.choice(movable)
            del self.files[jf.path]
            return [("D", jf.path)]
        pkg = rng.randrange(PACKAGES)
        jf = self.new_file(f"src/main/java/app/p{pkg}/{{cls}}.java", f"app.p{pkg}")
        for method in jf.methods:
            method.stmts.insert(0, self.new_stmt("call", jf.path))
        return [("M", jf.path, jf.render())]

    def feature_commit(self, ref: str, parent: int, busy: set[str]) -> int:
        """One small commit off ``parent`` that leaves files in ``busy`` alone."""
        rng = self.rng
        kind = self.draw("commit", ["bot"] * 2 + ["misc"] * 4 + ["structural"] * 3
                         + ["plain"] * 16)
        if kind == "bot":
            ops = [("M", "config/app.properties",
                    f"app.version=2.{self.fresh()}\napp.threads=4\n".encode())]
            return self.commit(ref, [parent], ops, author=BOT, message="bump version")
        free = [jf for jf in self.files.values() if jf.path not in busy]
        picked, entries = self.edit_files([jf for jf in free if jf.drop is None])
        dropped = [jf for jf in free if jf.drop is not None]
        # a fixed share of commits also edits a dropped file, so the known
        # miss share hardly depends on the seed
        if dropped and self.draw("drop", [True] + [False] * 7):
            jf = rng.choice(dropped)
            method = rng.choice(jf.methods)
            self.edit_method(jf, method, "update")
            picked.append(jf)
            entries.append((f"{jf.cls}.{method.name}(int)", jf.path, jf.drop))
        ops = self.write_ops(picked)
        if kind == "misc":
            ops += self.misc_ops()
        elif kind == "structural":
            ops += self.structural_ops([jf for jf in free if jf not in picked])
        return self.commit(ref, [parent], ops, entries)

    def feature_branch(self, fork: int, length: int, concurrent: bool) -> int:
        """A topic branch off ``fork`` merged back with --no-ff; returns the merge.

        A concurrent mainline commit touches only files the branch left
        alone, so the merge tree is the mainline tree plus the branch's
        latest version of every path it touched.
        """
        tip, touched = fork, {}
        for _ in range(length):
            tip = self.feature_commit("refs/heads/topic", tip, set())
            for op in self.commits[tip - 1].ops:
                touched[op[1]] = op
        head = fork
        if concurrent:
            head = self.feature_commit("refs/heads/main", fork, set(touched))
        ops = [("M", path, self.files[path].render()) if path in self.files else op
               for path, op in sorted(touched.items())]
        return self.commit("refs/heads/main", [head, tip], ops, message="merge topic")

    def forked(self):
        """Mainline commits with a fixed number of topic branches spread among them."""
        shape, rng = self.shape, self.rng
        blocks = [(self.span("branch", (1, 3)),
                   self.draw("concurrent", [True] * 3 + [False] * 7))
                  for _ in range(shape.forks)]
        direct = shape.commits - sum(n + c + 1 for n, c in blocks)
        gaps = [0] * (len(blocks) + 1)
        for _ in range(direct):
            gaps[rng.randrange(len(gaps))] += 1
        head = self.import_commit()
        for i, gap in enumerate(gaps):
            for _ in range(gap):
                head = self.feature_commit("refs/heads/main", head, set())
            if i < len(blocks):
                head = self.feature_branch(head, *blocks[i])


def build_history(workload: str, seed: int) -> History:
    """Plan every commit of one workload in memory."""
    history = History(workload, seed)
    shape = history.shape
    if shape.forks:
        for i in range(shape.files - 2):
            p = i % PACKAGES
            history.new_file(f"src/main/java/app/p{p}/{{cls}}.java", f"app.p{p}")
        history.new_file("src/main/java/app/café/{cls}.java", "app.cafe", DROP_NON_ASCII)
        history.new_file("src/main/java/app/shapes/{cls}.java", "app.shapes", DROP_SYNTAX)
        history.add_calls()
        history.forked()
    else:
        pkgs = max(1, shape.files // 10)
        for i in range(shape.files):
            p = i % pkgs
            history.new_file(f"src/main/java/app/p{p}/{{cls}}.java", f"app.p{p}")
        history.add_calls()
        history.linear()
    return history


def _stream(history: History) -> bytes:
    out = bytearray()
    for i, c in enumerate(history.commits):
        when = EPOCH + i * STEP
        name, email = c.author
        out += f"commit {c.ref}\nmark :{c.mark}\n".encode()
        out += f"author {name} <{email}> {when} +0000\n".encode()
        out += f"committer {name} <{email}> {when} +0000\n".encode()
        msg = c.message.encode()
        out += b"data %d\n%s\n" % (len(msg), msg)
        if c.parents:
            out += f"from :{c.parents[0]}\n".encode()
        for extra in c.parents[1:]:
            out += f"merge :{extra}\n".encode()
        for op in c.ops:
            if op[0] == "D":
                out += b"D " + op[1].encode() + b"\n"
            else:
                out += b"M 100644 inline " + op[1].encode() + b"\n"
                out += b"data %d\n" % len(op[2]) + op[2] + b"\n"
        out += b"\n"
    return bytes(out)


def git_env(home: Path) -> dict:
    """Environment for every git call: no user or system config is read."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env.update(HOME=str(home), XDG_CONFIG_HOME=str(home), GIT_CONFIG_NOSYSTEM="1",
               LC_ALL="C")
    return env


def generate(workload: str, seed: int, out_dir: Path) -> Path:
    """Write ``repo.git`` and ``oracle.json`` under ``out_dir`` (atomically).

    Returns ``out_dir``.  An existing complete output is reused.
    """
    out_dir = Path(out_dir)
    if (out_dir / "oracle.json").exists():
        return out_dir
    tmp = out_dir.with_name(out_dir.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = git_env(tmp)
    repo = tmp / "repo.git"
    subprocess.run(["git", "init", "-q", "--bare", "--template=", str(repo)],
                   check=True, env=env)
    history = build_history(workload, seed)
    marks = tmp / "marks"
    subprocess.run(["git", "-C", str(repo), "fast-import", "--quiet",
                    f"--export-marks={marks}"],
                   input=_stream(history), check=True, env=env)
    ids = {}
    for line in marks.read_text().splitlines():
        mark, sha = line.split()
        ids[int(mark[1:])] = sha
    marks.unlink()
    oracle = {
        "workload": workload,
        "seed": seed,
        "commits": len(history.commits),
        "merges": sum(1 for c in history.commits if len(c.parents) > 1),
        "commit_ids": [ids[c.mark] for c in history.commits],
        "entries": [[ids[c.mark], qname, path, drop]
                    for c in history.commits for qname, path, drop in c.entries],
    }
    (tmp / "oracle.json").write_text(json.dumps(oracle, indent=0) + "\n")
    shutil.rmtree(out_dir, ignore_errors=True)
    tmp.rename(out_dir)
    return out_dir
