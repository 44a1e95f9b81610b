"""Per-commit analysis pipeline.

Two passes over the walked history.  Pass one follows the depth-first
commit order, keeps the call graph in step (checkpointing at forks and
restoring before sibling branches), diffs every changed source file, and
records raw per-function measurements: weighted edit size, the four
complexity metrics of the version the developer faced, call-graph impact
at the commit's own snapshot, and dependence-graph reach ratios.  Pass two
fits a Box-Cox normalization of the complexity metrics and of call-graph
impact over the whole run and fuses the raw records into function scores
and commit values; the reach ratios enter raw, as the impact range IR.
Splitting the passes keeps normalization (and therefore every score)
reproducible: a re-run on the same history yields identical numbers.  The
developer rows, inflated-commit flags included, are folded from the fused
commits with the run's thresholds.

Each commit parses every changed source blob once: ``parse_changes`` keys
the trees by blob, and the differ, the call-graph update and the
complexity and dependence-graph measurements all read those trees and the
function units cached on them, with the path taken from the file change.
A blob that fails to parse, including one nested deeper than the parser
or ``MAX_TREE_DEPTH`` allows, is logged once and skipped.

``AnalysisRun`` is the one record of what a run did: the walk writes its
stage times (``ingest``, ``parse``, ``diff``, ``graph``, ``rank``,
``pdg``, ``fit``, ``fuse``, ``total``), per-commit times and counters to
``state.run`` as it goes.  None of them is serialized.

Call-graph impact is ranked only when a commit with scored changes finds
the graph at a new ``(token, version)`` pair, that is after a structural
change or a checkpoint restore; otherwise the last scores are reused, and
they equal what a recompute would give.  A fork's checkpoint is an
in-memory copy of the graph that shares its immutable per-file entries,
released once its last first-parent child has been restored; the analysis
writes no files.

The history's git reader (see ``repo``) starts at the first commit's
``changed_files`` call and lives through pass one only:
``analyze_repository`` closes it when the commit loop ends, whether it
finished or raised.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .astdiff import FILE_SCOPE, DeltaWeights, delta_ast, diff_file_pair
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
from .syntax import SourceTrees, language_for_path

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
    checkpoint_restores: int = 0
    rank_computations: int = 0
    rank_reuses: int = 0
    parses: int = 0
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
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=0) + "\n",
            encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "AnalysisRun":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class PipelineState:
    """Mutable walk state shared across per-commit analysis calls; times
    and counts go to ``run``."""

    tree: VersionTree
    config: AnalysisConfig
    run: AnalysisRun
    graph: CallGraph = field(default_factory=CallGraph)
    weights: DeltaWeights = field(default_factory=DeltaWeights)
    # last impact scores and the graph's (token, version) they were ranked at
    impact: dict[FunctionId, float] | None = None
    impact_key: tuple[int, int] | None = None


def parse_changes(changes) -> SourceTrees:
    """Parse both sides of every source change in one commit, keyed by
    blob; the empty side of an added or deleted file is the key None."""
    trees = SourceTrees()
    for change in changes:
        if language_for_path(change.path) is None:
            continue
        trees.add(change.path, change.before_blob, change.before_content)
        trees.add(change.path, change.after_blob, change.after_content)
    return trees


def current_impact(state: PipelineState) -> dict[FunctionId, float]:
    """Impact scores of ``state.graph``, ranked again only when the graph's
    ``(token, version)`` differs from the last ranking's."""
    key = (state.graph.token, state.graph.version)
    if key == state.impact_key:
        state.run.rank_reuses += 1
        return state.impact
    cfg = state.config
    adjacency = state.graph.adjacency()
    ranks = pagerank(adjacency, damping=cfg.graph_damping, tol=cfg.graph_tol,
                     max_iter=cfg.graph_max_iter)
    state.impact = backward_propagate(adjacency, ranks, decay=cfg.graph_decay)
    state.impact_key = key
    state.run.rank_computations += 1
    return state.impact


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
    trees = parse_changes(changes)
    run.add_time("parse", time.perf_counter() - t0)
    run.parses += trees.parses
    run.parse_errors += trees.errors

    # diff every parseable source file
    per_file = []
    t0 = time.perf_counter()
    for change in changes:
        if language_for_path(change.path) is None:
            continue
        before = trees.get(change.before_blob)
        after = trees.get(change.after_blob)
        if before is None or after is None:
            continue
        _, actions, changesets = diff_file_pair(
            before, after, similarity_threshold=cfg.diff_similarity_threshold,
            blacklist=cfg.blacklist_patterns)
        if changesets:
            per_file.append((change, before, after, changesets))
    run.add_time("diff", time.perf_counter() - t0)

    t0 = time.perf_counter()
    state.graph.update(changes, trees)
    run.add_time("graph", time.perf_counter() - t0)

    if not per_file:
        return result

    t0 = time.perf_counter()
    impact = current_impact(state)
    run.add_time("rank", time.perf_counter() - t0)

    t0 = time.perf_counter()
    for change, before, after, changesets in per_file:
        before_units = {u.qualified_name: u for u in before.functions}
        after_units = {u.qualified_name: u for u in after.functions}
        for cs in changesets:
            qname = cs.function
            delta = delta_ast(cs, state.weights)
            record = FunctionRecord(commit_id=commit.id, function=qname,
                                    file=change.path, delta_ast=delta)
            if qname == FILE_SCOPE:
                record.is_function = False
                result.records.append(record)
                continue
            bu = before_units.get(qname)
            au = after_units.get(qname)
            unit, unit_tree = (bu, before) if bu is not None else (au, after)
            if unit is not None:
                raw = compute_raw(unit, unit_tree)
                record.loc, record.cc = raw.loc, raw.cc
                record.hv, record.pcom = raw.hv, raw.pcom
            record.ip = inter_impact(impact, FunctionId(qname, change.path))
            if bu is not None and au is not None:
                pdg_before = build_pdg(bu)
                pdg_after = build_pdg(au)
                changed = changed_pdg_nodes(pdg_before, pdg_after, cs)
                record.ddg = ddg_impact(pdg_after, changed)
                record.cdg = cdg_impact(pdg_after, changed)
            result.records.append(record)
    run.add_time("pdg", time.perf_counter() - t0)

    result.delta_ast_total = sum(r.delta_ast for r in result.records)
    return result


def _fit_all(records, cfg: AnalysisConfig) -> dict[str, BoxCoxParams]:
    populations = {m: [] for m in _METRICS}
    for r in records:
        if not r.is_function:
            continue
        if r.loc is not None:
            populations["loc"].append(float(r.loc))
            populations["cc"].append(float(r.cc))
            populations["hv"].append(float(r.hv))
            populations["pcom"].append(float(r.pcom))
        populations["ip"].append(r.ip)
    return {
        m: fit_boxcox(values, lambda_min=cfg.normalize_lambda_min,
                      lambda_max=cfg.normalize_lambda_max,
                      step=cfg.normalize_lambda_step,
                      min_samples=cfg.normalize_min_samples)
        for m, values in populations.items()
    }


def _fuse(run: AnalysisRun):
    params = run.boxcox
    for commit in run.commits:
        for r in commit.records:
            if not r.is_function:
                r.cm, r.ip_n, r.ir = 1.0, 0.0, 1.0
                r.score = function_score(r.delta_ast, r.cm, r.ip_n, r.ir)
                continue
            if r.loc is not None:
                r.loc_n = normalize(float(r.loc), params["loc"])
                r.cc_n = normalize(float(r.cc), params["cc"])
                r.hv_n = normalize(float(r.hv), params["hv"])
                r.pcom_n = normalize(float(r.pcom), params["pcom"])
                r.cm = combine_complexity(r.loc_n, r.cc_n, r.hv_n, r.pcom_n)
            else:
                r.cm = 1.0
            r.ip_n = normalize(r.ip, params["ip"])
            r.ir = impact_range(r.ddg, r.cdg)
            r.score = function_score(r.delta_ast, r.cm, r.ip_n, r.ir)
        commit.cvalue = commit_cvalue([r.score for r in commit.records])


def analyze_repository(path: str, config: AnalysisConfig | None = None) -> AnalysisRun:
    """Analyze a repository end to end; see the module doc for the phases."""
    cfg = config or AnalysisConfig()
    weights = DeltaWeights(add=cfg.ast_add, update=cfg.ast_update,
                           move=cfg.ast_move, delete=cfg.ast_delete,
                           name_only_factor=cfg.ast_name_factor)

    t_start = time.perf_counter()
    tree = open_repository(path, branch=cfg.branch, bot_patterns=cfg.bot_patterns)
    order = walk_commits(tree)
    children = first_parent_children(tree)
    store = CheckpointStore()

    run = AnalysisRun(repository=str(path), config=cfg.to_dict())
    state = PipelineState(tree=tree, config=cfg, run=run, weights=weights)

    fork_ids = {cid for cid, kids in children.items() if len(kids) > 1}
    fork_of_last_child = {children[cid][-1]: cid for cid in fork_ids}
    previous: str | None = None
    try:
        for commit in order:
            t_commit = time.perf_counter()
            first_parent = commit.parent_ids[0] if commit.parent_ids else None
            if first_parent is None:
                if previous is not None:
                    state.graph = CallGraph()
            elif first_parent != previous:
                state.graph = store.restore(first_parent)
            if commit.id in fork_of_last_child:
                store.discard(fork_of_last_child[commit.id])
            result = analyze_commit(commit, state)
            if commit.id in fork_ids:
                store.checkpoint(state.graph, commit.id)
            run.commits.append(result)
            run.commit_times[commit.id] = time.perf_counter() - t_commit
            previous = commit.id
    finally:
        tree.close()

    run.checkpoint_restores = store.restores

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
