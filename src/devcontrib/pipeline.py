"""Per-commit analysis pipeline.

Two passes over the walked history.  Pass one follows the depth-first
commit order, keeps the call graph in step (checkpointing the graphs
later commits read), diffs every changed source file, and records raw
per-function measurements: weighted edit size, the four complexity
metrics of the version the developer faced, call-graph impact at the
commit's own snapshot, and dependence-graph reach ratios.  Pass two
fits a Box-Cox normalization of the complexity metrics and of call-graph
impact over the whole run and fuses the raw records into function scores
and commit values; the reach ratios enter raw, as the impact range IR.
Splitting the passes keeps normalization (and therefore every score)
reproducible: a re-run on the same history yields identical numbers.  The
developer rows, inflated-commit flags included, are folded from the fused
commits with the run's thresholds.

``parse_changes`` is the one place that decides which sides of a change
are source; it turns a commit's file changes into ``SourceChange``s, each
with the trees of both sides, and the differ, the call-graph update and
the complexity and dependence-graph measurements read only that list.  A
commit parses only the changed source blobs it does not already hold.
The call graph's entry for a file keeps the tree it was read from (see
``callgraph.FileEntry``), so a side is taken from an entry for its path
of the same blob: a before side from the graph, which holds the first
parent's snapshot, and either side of a merge from the checkpoint of a
non-first parent, so a merge re-reads no tree its topic branch built.
An after side that is parsed is parsed against its change's before tree,
held or parsed, renames included: it takes the members whose text the
commit left unchanged from that tree and lexes only the text outside
them (see the ``syntax`` module doc), so a commit's parse, lexing
included, costs about what it changed.
A blob that fails to parse, including one nested deeper than the parser or
``MAX_TREE_DEPTH`` allows, is logged once per commit that reads it and
skipped.

The differ compares subtrees by exact shapes (see ``syntax.ShapeTable``);
the run owns the one table that fills them, ``PipelineState.shapes``.
Every tree the run parses is bound to that table, so an after tree and
the before tree it shares members with are filled by it alone: the
reparse fills each member it copies, and the diff of the pair the rest.

The graph's trees hold no reference cycles, so a superseded version is
freed by reference counting; a full cyclic collection would walk every
node still held and free nothing.  ``analyze_repository`` therefore
pauses the cyclic collector for the commit loop.  When the loop ends,
whether it finished or raised, it drops the graph and the checkpoint
store from the state, so reference counting frees the trees before the
first collection could walk them, and then restores the caller's
setting.

``AnalysisRun`` is the one record of what a run did: the walk writes its
stage times (``ingest``, ``parse``, ``diff``, ``graph``, ``rank``,
``pdg``, ``fit``, ``fuse``, ``total``), per-commit times and counters to
``state.run`` as it goes.  None of them is serialized.

Call-graph impact is ranked only when a commit with scored changes finds
the graph holding no ranks (``CallGraph.impact`` is None), that is on a new
graph or after a structural change; the ranks are then stored on the
graph, with the SCC condensation they were propagated over, which the next
ranking reuses while the change leaves it holding (see ``callgraph``).
Otherwise the graph's ranks are reused, and they equal what a
recompute would give.  The graph of a commit that later commits read is
checkpointed in ``PipelineState.store`` and released after its last
read: each first-parent child after the first restores it, and each
merge after it in the walk that names it as a later parent reads trees
from its files.  A checkpoint is an in-memory copy of the graph that
shares its immutable per-file entries and its ranks, so a restored branch
reuses the fork's ranks until its structure changes; no file is written.

The history's git reader (see ``repo``) starts at the first commit's
``changed_files`` call and lives through pass one only:
``analyze_repository`` closes it when the commit loop ends, whether it
finished or raised.
"""

from __future__ import annotations

import gc
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .astdiff import FILE_SCOPE, delta_ast, diff_file_pair
from .callgraph import (
    CallGraph,
    CheckpointStore,
    FunctionId,
    backward_propagate,
    inter_impact,
    pagerank,
)
from .complexity import compute_raw
from .config import AnalysisConfig
from .pdg import build_pdg, cdg_impact, changed_pdg_nodes, ddg_impact, impact_range
from .repo import (
    CommitRecord,
    VersionTree,
    changed_files,
    first_parent_children,
    open_repository,
    walk_commits,
)
from .scoring import (
    BoxCoxParams,
    combine_complexity,
    commit_cvalue,
    fit_boxcox,
    function_score,
    normalize,
)
from .syntax import ShapeTable, SyntaxTree, language_for_path, parse_file

_METRICS = ("loc", "cc", "hv", "pcom", "ip")


@dataclass
class FunctionRecord:
    """One function's raw and fused measurements in one commit."""

    commit_id: str
    function: str
    file: str | None
    delta_ast: float
    is_function: bool = True      # False for the synthetic file-scope unit
    loc: int | None = None
    cc: int | None = None
    hv: float | None = None
    pcom: float | None = None
    ip: float = 0.0
    ddg: float = 0.0
    cdg: float = 0.0
    # fused in pass two
    loc_n: float = 0.0
    cc_n: float = 0.0
    hv_n: float = 0.0
    pcom_n: float = 0.0
    ip_n: float = 0.0
    cm: float = 1.0
    ir: float = 1.0
    score: float = 0.0


@dataclass
class CommitResult:
    """One commit's scores; serialized with ``records`` as ``functions``."""

    id: str
    author_email: str
    author_name: str
    author_is_bot: bool
    timestamp: int
    bulk: bool = False
    delta_ast_total: float = 0.0
    cvalue: float = 0.0
    records: list[FunctionRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = dict(vars(self))
        d["functions"] = [dict(vars(r)) for r in d.pop("records")]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CommitResult":
        d = dict(d)
        records = [FunctionRecord(**r) for r in d.pop("functions")]
        return cls(**d, records=records)


@dataclass
class AnalysisRun:
    repository: str
    config: dict
    commits: list[CommitResult] = field(default_factory=list)
    developers: list = field(default_factory=list)
    boxcox: dict[str, BoxCoxParams] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    commit_times: dict[str, float] = field(default_factory=dict)
    checkpoints: int = 0
    checkpoint_restores: int = 0
    rank_computations: int = 0
    rank_reuses: int = 0
    condensation_reuses: int = 0
    parses: int = 0
    tree_reuses: int = 0
    member_reuses: int = 0
    parse_errors: int = 0

    SCHEMA_VERSION = 2

    def add_time(self, stage: str, seconds: float):
        self.timings[stage] = self.timings.get(stage, 0.0) + seconds

    def to_dict(self) -> dict:
        return {
            "schema_version": self.SCHEMA_VERSION,
            "repository": self.repository,
            "config": self.config,
            "commits": [c.to_dict() for c in self.commits],
            "developers": [dict(vars(dev)) for dev in self.developers],
            "boxcox": {m: p.to_dict() for m, p in sorted(self.boxcox.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisRun":
        """Rebuild a run; raises ``ValueError`` on another schema version."""
        from .report import DeveloperReport

        version = d.get("schema_version")
        if version != cls.SCHEMA_VERSION:
            raise ValueError(f"run file has schema version {version!r}; "
                             f"this version of devcontrib reads {cls.SCHEMA_VERSION}")
        run = cls(repository=d["repository"], config=d["config"])
        run.commits = [CommitResult.from_dict(c) for c in d["commits"]]
        run.developers = [DeveloperReport(**x) for x in d["developers"]]
        run.boxcox = {m: BoxCoxParams.from_dict(p) for m, p in d["boxcox"].items()}
        return run

    def save(self, path: str | Path):
        """Write the run to ``path`` through a temporary file in the same
        directory, so a failed write leaves any earlier file whole."""
        path = Path(path)
        text = json.dumps(self.to_dict(), sort_keys=True, indent=0) + "\n"
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "AnalysisRun":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class PipelineState:
    """Mutable walk state shared across per-commit analysis calls; times
    and counts go to ``run``.

    ``store`` holds the graphs later commits still read (see the module
    doc); ``shapes`` fills the subtree shapes of every tree the run diffs."""

    tree: VersionTree
    config: AnalysisConfig
    run: AnalysisRun
    graph: CallGraph = field(default_factory=CallGraph)
    store: CheckpointStore = field(default_factory=CheckpointStore)
    shapes: ShapeTable = field(default_factory=ShapeTable)


class SourceChange(NamedTuple):
    """One changed source file of a commit, the form every layer after
    ``parse_changes`` reads.

    ``path`` is the file's path: the new one, or the old one when a rename
    leaves the grammar.  ``old_path`` is a renamed source file's old path,
    else None.  ``after_blob`` is None when the after side is empty.
    ``before`` and ``after`` are the trees of the two sides; an empty side
    is the tree of the empty text, and a side whose blob has no text or
    fails to parse is None."""

    path: str
    old_path: str | None
    after_blob: str | None
    before: SyntaxTree | None
    after: SyntaxTree | None


def parse_changes(changes, graph: CallGraph, run: AnalysisRun,
                  parents=(), shapes: ShapeTable | None = None) -> list[SourceChange]:
    """The commit's source changes, in order, with both sides parsed.

    This is where a run decides which sides of a change are source: a side
    whose path has no grammar adapter is the empty side, like the missing
    side of an added or deleted file.  So ``Notes.groovy`` to
    ``Notes.java`` is an addition and ``A.java`` to ``A.kt`` a deletion of
    ``A.java``; a change with no source side is left out.

    Each blob is parsed at most once.  ``graph`` must hold the commit's
    first-parent snapshot, and ``parents`` the files of the checkpoints
    held for the commit's other parents (see ``PipelineState.store``).  A
    before side whose blob is the one its file's entry in ``graph`` was
    read from is that entry's tree, and so is a side whose path has an
    entry of its blob in one of ``parents``; neither is parsed again.
    An after side is parsed against its before side's tree, whose
    unchanged members it takes (see ``syntax._Parser.reuse_member``).
    Each tree parsed here is bound to ``shapes``, the run's table, so a
    tree and the one it takes members from are filled by one table, and
    the members the parse copies keep their shapes.
    Parses, reused trees and members, and parse errors are counted on
    ``run``."""
    trees: dict[str | None, SyntaxTree | None] = {}

    def held_tree(path, blob, snapshots):
        if blob is not None:
            for files in snapshots:
                entry = files.get(path)
                if entry is not None and entry.blob == blob:
                    return entry.tree
        return None

    def tree_of(path, blob, text, held=None, previous=None):
        if blob is None:  # the empty side
            text = ""
        if blob not in trees:
            if held is not None:
                run.tree_reuses += 1
                tree = held
            elif text is None:  # binary or undecodable
                tree = None
            else:
                run.parses += 1
                tree = parse_file(path, text, previous)
                if tree is None:
                    run.parse_errors += 1
                else:
                    run.member_reuses += tree.reused_members
                    if tree.shapes is None:
                        tree.shapes = shapes
            trees[blob] = tree
        return trees[blob]

    before_snapshots = (graph.files, *parents)

    sources = []
    for change in changes:
        old = change.before_path if language_for_path(change.before_path) else None
        new = change.path if language_for_path(change.path) else None
        if old is None and new is None:
            continue
        path = new or old
        before_blob = change.before_blob if old is not None else None
        after_blob = change.after_blob if new is not None else None
        before = tree_of(path, before_blob, change.before_content,
                         held_tree(old, before_blob, before_snapshots))
        after = tree_of(path, after_blob, change.after_content,
                        held_tree(new, after_blob, parents), before)
        sources.append(SourceChange(path, old if old != path else None,
                                    after_blob, before, after))
    return sources


def current_impact(state: PipelineState) -> dict[FunctionId, float]:
    """Impact scores of ``state.graph``: the ones it holds, else ranked
    afresh and stored on it."""
    graph = state.graph
    if graph.impact is not None:  # an empty graph ranks to {}
        state.run.rank_reuses += 1
        return graph.impact
    cfg = state.config
    adjacency = graph.adjacency()
    ranks = pagerank(adjacency, damping=cfg.graph_damping, tol=cfg.graph_tol,
                     max_iter=cfg.graph_max_iter)
    impact = backward_propagate(adjacency, ranks, decay=cfg.graph_decay,
                                kept=graph.condensation)
    if impact.condensation is graph.condensation:
        state.run.condensation_reuses += 1
    graph.impact, graph.condensation = impact, impact.condensation
    state.run.rank_computations += 1
    return impact


def analyze_commit(commit: CommitRecord, state: PipelineState) -> CommitResult:
    """Raw-metric phase for one commit; the call graph must currently hold
    the commit's first-parent snapshot and is advanced to the commit."""
    cfg, run = state.config, state.run
    result = CommitResult(
        id=commit.id,
        author_email=commit.author.email,
        author_name=commit.author.display_name,
        author_is_bot=commit.author.is_bot,
        timestamp=commit.timestamp,
    )

    t0 = time.perf_counter()
    changes = changed_files(commit, state.tree)
    run.add_time("ingest", time.perf_counter() - t0)
    result.bulk = len(changes) > cfg.bulk_file_threshold

    t0 = time.perf_counter()
    parents = [held.files for p in commit.parent_ids[1:]
               if (held := state.store.get(p)) is not None]
    sources = parse_changes(changes, state.graph, run, parents, state.shapes)
    run.add_time("parse", time.perf_counter() - t0)

    # diff every source file whose two sides parsed
    per_file = []
    t0 = time.perf_counter()
    for source in sources:
        if source.before is None or source.after is None:
            continue
        _, actions, changesets = diff_file_pair(
            source.before, source.after,
            similarity_threshold=cfg.diff_similarity_threshold,
            blacklist=cfg.blacklist_patterns, shapes=state.shapes)
        if changesets:
            per_file.append((source, changesets))
    run.add_time("diff", time.perf_counter() - t0)

    t0 = time.perf_counter()
    state.graph.update(sources)
    run.add_time("graph", time.perf_counter() - t0)

    if not per_file:
        return result

    t0 = time.perf_counter()
    impact = current_impact(state)
    run.add_time("rank", time.perf_counter() - t0)

    t0 = time.perf_counter()
    for source, changesets in per_file:
        before, after = source.before, source.after
        before_units = {u.qualified_name: u for u in before.functions}
        after_units = {u.qualified_name: u for u in after.functions}
        for cs in changesets:
            qname = cs.function
            delta = delta_ast(cs, cfg)
            record = FunctionRecord(commit_id=commit.id, function=qname,
                                    file=source.path, delta_ast=delta)
            if qname == FILE_SCOPE:
                record.is_function = False
                result.records.append(record)
                continue
            bu = before_units.get(qname)
            au = after_units.get(qname)
            unit, unit_tree = (bu, before) if bu is not None else (au, after)
            raw = compute_raw(unit, unit_tree)
            record.loc, record.cc = raw.loc, raw.cc
            record.hv, record.pcom = raw.hv, raw.pcom
            record.ip = inter_impact(impact, FunctionId(qname, source.path))
            if bu is not None and au is not None:
                pdg_after = build_pdg(au)
                changed = changed_pdg_nodes(bu, pdg_after, cs)
                record.ddg = ddg_impact(pdg_after, changed)
                record.cdg = cdg_impact(pdg_after, changed)
            result.records.append(record)
    run.add_time("pdg", time.perf_counter() - t0)

    result.delta_ast_total = sum(r.delta_ast for r in result.records)
    return result


def _fit_all(records, cfg: AnalysisConfig) -> dict[str, BoxCoxParams]:
    functions = [r for r in records if r.is_function]
    return {
        m: fit_boxcox([float(getattr(r, m)) for r in functions],
                      lambda_min=cfg.normalize_lambda_min,
                      lambda_max=cfg.normalize_lambda_max,
                      step=cfg.normalize_lambda_step,
                      min_samples=cfg.normalize_min_samples)
        for m in _METRICS
    }


def _fuse(run: AnalysisRun):
    params = run.boxcox
    for commit in run.commits:
        for r in commit.records:
            if not r.is_function:
                r.cm, r.ip_n, r.ir = 1.0, 0.0, 1.0
                r.score = function_score(r.delta_ast, r.cm, r.ip_n, r.ir)
                continue
            r.loc_n = normalize(float(r.loc), params["loc"])
            r.cc_n = normalize(float(r.cc), params["cc"])
            r.hv_n = normalize(float(r.hv), params["hv"])
            r.pcom_n = normalize(float(r.pcom), params["pcom"])
            r.cm = combine_complexity(r.loc_n, r.cc_n, r.hv_n, r.pcom_n)
            r.ip_n = normalize(r.ip, params["ip"])
            r.ir = impact_range(r.ddg, r.cdg)
            r.score = function_score(r.delta_ast, r.cm, r.ip_n, r.ir)
        commit.cvalue = commit_cvalue([r.score for r in commit.records])


def analyze_repository(path: str, config: AnalysisConfig | None = None) -> AnalysisRun:
    """Analyze a repository end to end; see the module doc for the phases."""
    cfg = config or AnalysisConfig()

    t_start = time.perf_counter()
    tree = open_repository(path, branch=cfg.branch, bot_patterns=cfg.bot_patterns)
    order = walk_commits(tree)

    run = AnalysisRun(repository=str(path), config=cfg.to_dict())
    state = PipelineState(tree=tree, config=cfg, run=run, store=CheckpointStore())
    # the reads of each commit's graph still due (see the module doc)
    reads = Counter({cid: len(kids) - 1 for cid, kids in first_parent_children(tree).items()})
    reads.update(p for record in tree.commits.values() for p in record.parent_ids[1:])

    def read(cid):  # a merge the walk reaches before cid finds no checkpoint
        reads[cid] -= 1
        if not reads[cid] and state.store.get(cid) is not None:
            state.store.discard(cid)

    previous: str | None = None
    collecting = gc.isenabled()
    gc.disable()
    try:
        for commit in order:
            t_commit = time.perf_counter()
            first_parent = commit.parent_ids[0] if commit.parent_ids else None
            if first_parent is None:
                if previous is not None:
                    state.graph = CallGraph()
            elif first_parent != previous:
                state.graph = state.store.restore(first_parent)
                run.checkpoint_restores += 1
                read(first_parent)
            result = analyze_commit(commit, state)
            if reads[commit.id]:
                state.store.checkpoint(state.graph, commit.id)
                run.checkpoints += 1
            for parent in commit.parent_ids[1:]:
                read(parent)
            run.commits.append(result)
            run.commit_times[commit.id] = time.perf_counter() - t_commit
            previous = commit.id
    finally:
        tree.close()
        # free the graph, the checkpoints and their trees before a collection
        # could walk them; a raising commit's frame may still hold the state
        state.graph = state.store = None
        del state
        if collecting:
            gc.enable()

    t0 = time.perf_counter()
    all_records = [r for c in run.commits for r in c.records]
    run.boxcox = _fit_all(all_records, cfg)
    run.add_time("fit", time.perf_counter() - t0)

    t0 = time.perf_counter()
    _fuse(run)
    run.add_time("fuse", time.perf_counter() - t0)

    from .report import aggregate_by_developer, detect_inflated

    run.developers = aggregate_by_developer(run)
    detect_inflated(run.developers, commit_share_min=cfg.inflated_commit_share_min,
                    ratio_max=cfg.inflated_ratio_max)
    run.add_time("total", time.perf_counter() - t_start)
    return run
