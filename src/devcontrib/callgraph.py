"""Project call graph: incremental maintenance, PageRank, decay propagation.

The graph is stored per file: each source file owns its function nodes and
the call sites found in their bodies.  Call sites keep the callee's dotted
name, so resolution can be redone selectively -- when a commit changes a
file, only that file's sites plus the sites elsewhere whose callee name
gained or lost a definition are re-resolved.  This keeps the incremental
update equal to a full rebuild while touching a fraction of the work.

Resolution is heuristic name matching (no type inference): first functions
in the caller's own file whose qualified name ends with the callee's dotted
path, then project-wide suffix matches, else a synthetic ``external:`` node.

``CallGraph.files`` holds one ``FileEntry`` per file: its functions, its
call sites and their resolved targets, and the blob and syntax tree they
were read from.  An entry is a tuple that is replaced (``_replace``),
never changed in place.  A copy of the graph
(``CallGraph.copy``, which ``CheckpointStore`` keeps at every fork) is
therefore one new dict over the same entries, plus a copy of the
simple-name index, which is the one structure updated in place.

Function importance combines two passes: plain PageRank, where a function
called by many accrues rank, then a backward propagation that walks callee
subtrees and feeds decayed leaf rank back up the call chain, so mid-chain
functions outrank both bare utilities and entry points.  Cycles are handled
by condensing strongly connected components; the mass a component receives
is split equally among its members.  Both passes read one ``Adjacency``
built in sorted ``FunctionId`` order, so ranks do not depend on the hash
seed.

``adjacency()`` is the one view that decides which ids are nodes: every
function and every resolved target.  ``structure()``, ``nodes`` and
``edges`` are read from it, so what the tests compare is what ranking
reads.

Ranks depend only on ``adjacency()``.  Every graph carries a ``token``,
unique to the object, and a ``version`` that ``update``,
``reresolve_names`` and ``resolve_all`` bump whenever a file's function
list or a call site's resolved targets may have changed.  While the pair
is unchanged the structure is too, so a caller may keep the last ranks
instead of recomputing them; commits that only edit bodies keep the pair.
"""

from __future__ import annotations

import itertools
import logging
from typing import NamedTuple

import numpy as np

from .errors import UnknownCheckpoint
from .syntax import SyntaxTree, callee_segments, language_for_path, parse_file

logger = logging.getLogger(__name__)

EXTERNAL_PREFIX = "external:"

# Source of ``CallGraph.token``: never reused, unlike ``id()``.
_graph_tokens = itertools.count()


class FunctionId(NamedTuple):
    name: str
    file: str

    @property
    def external(self) -> bool:
        return self.name.startswith(EXTERNAL_PREFIX)


class CallSite(NamedTuple):
    caller: FunctionId
    dotted: str
    simple: str


def _strip_signature(qualified: str) -> str:
    idx = qualified.find("(")
    return qualified if idx < 0 else qualified[:idx]


def _simple_name(qualified: str) -> str:
    return _strip_signature(qualified).rsplit(".", 1)[-1]


def _callee_name(segments: list[str]) -> str | None:
    """Trailing run of plain name segments, dropping this/super/expression parts."""
    cleaned: list[str] = []
    for seg in segments:
        if seg in ("this", "super", "<expr>"):
            cleaned = []
        else:
            cleaned.append(seg)
    return ".".join(cleaned) if cleaned else None


def _type_simple(label: str) -> str:
    """Strip generics/arrays from a type label: ``pkg.Foo<Bar>[]`` -> ``pkg.Foo``."""
    base = label.split("<", 1)[0].replace("[]", "")
    return base


def extract_call_sites(path: str, units) -> tuple[CallSite, ...]:
    """Call sites of every named unit of the file ``path``, lambdas merged
    into their enclosing function, nested named declarations excluded (they
    are their own units)."""
    named = [u for u in units if u.body.kind != "lambda_expr"]
    sites = []
    for unit in named:
        fid = FunctionId(unit.qualified_name, path)
        _collect_sites(unit.body, True, fid, sites)
    return tuple(sites)


def _collect_sites(node, at_root, fid, sites):
    """Append the call sites under ``node``; not a closure, which would refer
    to itself and so hold the tree in a reference cycle."""
    if not at_root and node.kind in ("method_decl", "constructor_decl"):
        return
    if node.kind == "call_expr":
        name = _callee_name(callee_segments(node.children[0]))
        if name:
            sites.append(CallSite(fid, name, name.rsplit(".", 1)[-1]))
    elif node.kind == "new_expr":
        name = _type_simple(node.children[0].label)
        if name:
            sites.append(CallSite(fid, name, name.rsplit(".", 1)[-1]))
    for child in node.children:
        _collect_sites(child, False, fid, sites)


class Adjacency(NamedTuple):
    """Distinct call edges as index pairs into ``ids`` (sorted), ordered by
    (caller, callee)."""

    ids: list[FunctionId]
    src: np.ndarray
    dst: np.ndarray


class FileEntry(NamedTuple):
    """One file's share of the graph: its functions, the call sites in
    their bodies and each site's resolved targets, ``()`` until the file
    is resolved.  ``blob`` and ``tree`` are the version they came from;
    the tree lives as long as the entry, so a later commit whose before
    side is that blob reads it instead of parsing the text again."""

    functions: tuple[FunctionId, ...]
    sites: tuple[CallSite, ...]
    targets: tuple[tuple[FunctionId, ...], ...] = ()
    blob: str | None = None
    tree: SyntaxTree | None = None


_NO_FILE = FileEntry((), ())


class CallGraph:
    """Directed caller -> callee graph with per-file ownership.

    ``(token, version)`` changes whenever ``structure()`` may have changed;
    see the module doc.  ``files`` entries are immutable: replace them,
    never change them, since copies of the graph share them.
    """

    def __init__(self):
        self.files: dict[str, FileEntry] = {}
        self._simple_index: dict[str, set[FunctionId]] = {}
        self.token = next(_graph_tokens)
        self.version = 0

    # -- node bookkeeping ----------------------------------------------------

    def _index_add(self, fid: FunctionId):
        simple = _simple_name(fid.name)
        self._simple_index.setdefault(simple, set()).add(fid)

    def _index_remove(self, fid: FunctionId):
        simple = _simple_name(fid.name)
        bucket = self._simple_index.get(simple)
        if bucket is not None:
            bucket.discard(fid)
            if not bucket:
                del self._simple_index[simple]

    def _add_file(self, path: str, blob: str | None,
                  tree: SyntaxTree) -> tuple[FunctionId, ...]:
        """Add ``path``'s unresolved entry, read from ``tree``, the text of
        ``blob``; returns its functions."""
        units = tree.functions
        fids = tuple(FunctionId(u.qualified_name, path) for u in units
                     if u.body.kind != "lambda_expr")
        self.files[path] = FileEntry(fids, extract_call_sites(path, units),
                                     blob=blob, tree=tree)
        for fid in fids:
            self._index_add(fid)
        return fids

    def _remove_file(self, path: str) -> tuple[FunctionId, ...]:
        """Drop ``path``'s entry; returns the functions it held."""
        fids = self.files.pop(path, _NO_FILE).functions
        for fid in fids:
            self._index_remove(fid)
        return fids

    # -- resolution ------------------------------------------------------------

    def _suffix_matches(self, candidates, dotted: str):
        parts = dotted.split(".")
        if len(parts) == 1:
            return sorted(candidates)
        out = []
        for fid in candidates:
            qparts = _strip_signature(fid.name).split(".")
            if qparts[-len(parts):] == parts:
                out.append(fid)
        return sorted(out)

    def _resolve_site(self, site: CallSite) -> tuple[FunctionId, ...]:
        local = [fid for fid in self.files[site.caller.file].functions
                 if _simple_name(fid.name) == site.simple]
        matches = self._suffix_matches(local, site.dotted)
        if not matches:
            project = self._simple_index.get(site.simple, ())
            matches = self._suffix_matches(project, site.dotted)
        if not matches:
            matches = [FunctionId(EXTERNAL_PREFIX + site.dotted, "")]
        return tuple(matches)

    def resolve_file(self, path: str):
        entry = self.files[path]
        self.files[path] = entry._replace(
            targets=tuple(self._resolve_site(s) for s in entry.sites))

    def resolve_all(self):
        for path in self.files:
            self.resolve_file(path)
        self.version += 1

    def reresolve_names(self, names: set[str], skip_files: set[str]):
        """Re-resolve sites outside ``skip_files`` whose callee simple name
        gained or lost a definition; every file outside ``skip_files`` must
        already be resolved.  A file whose targets change gets a new entry
        and bumps ``version``."""
        if not names:
            return
        for path, entry in self.files.items():
            if path in skip_files:
                continue
            changed = {}
            for i, site in enumerate(entry.sites):
                if site.simple in names:
                    targets = self._resolve_site(site)
                    if targets != entry.targets[i]:
                        changed[i] = targets
            if changed:
                self.files[path] = entry._replace(targets=tuple(
                    changed.get(i, targets) for i, targets in enumerate(entry.targets)))
                self.version += 1

    # -- views -------------------------------------------------------------------

    def adjacency(self) -> Adjacency:
        """The graph ranking reads: every function and every resolved
        target is a node, every distinct (caller, target) pair an edge."""
        nodes = set()
        for entry in self.files.values():
            nodes.update(entry.functions)
            for targets in entry.targets:
                nodes.update(targets)
        ids = sorted(nodes)
        index = {fid: i for i, fid in enumerate(ids)}
        n = len(ids)
        codes = {index[site.caller] * n + index[t]
                 for entry in self.files.values()
                 for site, targets in zip(entry.sites, entry.targets)
                 for t in targets}
        codes = np.sort(np.fromiter(codes, dtype=np.int64, count=len(codes)))
        return Adjacency(ids, codes // n, codes % n)

    def structure(self):
        """Canonical (nodes, edges) pair of ``adjacency()``, both sorted."""
        ids, src, dst = self.adjacency()
        return (tuple(ids),
                tuple((ids[a], ids[b]) for a, b in zip(src.tolist(), dst.tolist())))

    @property
    def nodes(self) -> set[FunctionId]:
        return set(self.structure()[0])

    @property
    def edges(self) -> set[tuple[FunctionId, FunctionId]]:
        return set(self.structure()[1])

    def copy(self) -> "CallGraph":
        """A graph with the same structure and a fresh ``token``, sharing
        this one's file entries; later updates to either leave the other
        as it was."""
        graph = CallGraph()
        graph.files = dict(self.files)
        graph._simple_index = {name: set(fids)
                               for name, fids in self._simple_index.items()}
        return graph

    # -- incremental update -----------------------------------------------------------

    def _file_shape(self, path: str):
        """What ``path`` adds to ``structure()``: its nodes and its edges."""
        entry = self.files.get(path, _NO_FILE)
        return (entry.functions, tuple(site.caller for site in entry.sites),
                entry.targets)

    def update(self, sources) -> "CallGraph":
        """Apply one commit's source changes (``pipeline.SourceChange``, as
        ``pipeline.parse_changes`` returns them); the result equals a full
        rebuild.

        Every path a change names, a rename's old path too, loses its
        entry and records its shape first.  A change with an after blob
        whose tree parsed gets a new entry that keeps that blob and tree;
        a file whose text failed to parse has no nodes until a later change
        brings text that parses.  The re-added paths are resolved afresh,
        and sites elsewhere whose callee name gained or lost a definition
        are re-resolved.  ``version`` is bumped when one of those paths'
        shape changed or a re-resolved site changed targets.
        """
        affected: set[str] = set()
        shapes_before: dict[str, tuple] = {}

        def forget(path):
            shapes_before.setdefault(path, self._file_shape(path))
            affected.update(_simple_name(fid.name) for fid in self._remove_file(path))

        for source in sources:
            if source.old_path is not None:
                forget(source.old_path)
            forget(source.path)
            if source.after_blob is None or source.after is None:
                continue
            affected.update(_simple_name(fid.name) for fid in
                            self._add_file(source.path, source.after_blob, source.after))

        for path in shapes_before:
            if path in self.files:
                self.resolve_file(path)
        self.reresolve_names(affected, skip_files=shapes_before.keys())
        if any(self._file_shape(path) != shape for path, shape in shapes_before.items()):
            self.version += 1
        return self


def build_call_graph(files: dict[str, str | None]) -> CallGraph:
    """Full build from {path: source_text}."""
    graph = CallGraph()
    for path, text in sorted(files.items()):
        if language_for_path(path) is None or text is None:
            continue
        tree = parse_file(path, text)
        if tree is not None:
            graph._add_file(path, None, tree)
    graph.resolve_all()
    return graph


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class CheckpointStore:
    """Keeps frozen graph states in memory, keyed by commit id.

    Each checkpoint and each restore is a ``CallGraph.copy``, so they share
    the ``FileEntry`` objects of the graph they came from, syntax trees
    included, and cost one dict slot per file.  Every restore is a new
    graph with a fresh ``token``.
    """

    def __init__(self):
        self._memory: dict[str, CallGraph] = {}

    def checkpoint(self, graph: CallGraph, commit_id: str) -> None:
        self._memory[commit_id] = graph.copy()

    def restore(self, commit_id: str) -> CallGraph:
        graph = self._memory.get(commit_id)
        if graph is None:
            raise UnknownCheckpoint(commit_id)
        return graph.copy()

    def discard(self, commit_id: str):
        """Release the checkpoint."""
        self._memory.pop(commit_id, None)

    def __len__(self) -> int:
        """Checkpoints held."""
        return len(self._memory)


# ---------------------------------------------------------------------------
# importance scores
# ---------------------------------------------------------------------------

def pagerank(adjacency: Adjacency, damping: float = 0.85, tol: float = 1e-8,
             max_iter: int = 200) -> dict[FunctionId, float]:
    """Power-iteration PageRank; a function called by many accrues rank.

    Dangling functions (no outgoing calls) spread their rank uniformly.
    Scores sum to 1.  If the iteration fails to reach ``tol`` a warning is
    logged and the best iterate is returned.
    """
    ids, src, dst = adjacency
    n = len(ids)
    if n == 0:
        return {}
    out_degree = np.bincount(src, minlength=n).astype(float)
    dangling = out_degree == 0
    src_degree = out_degree[src]

    rank = np.full(n, 1.0 / n)
    converged = False
    for _ in range(max_iter):
        contrib = np.bincount(dst, weights=rank[src] / src_degree, minlength=n)
        dangling_mass = rank[dangling].sum()
        new_rank = (1.0 - damping) / n + damping * (contrib + dangling_mass / n)
        if np.abs(new_rank - rank).sum() < tol:
            rank = new_rank
            converged = True
            break
        rank = new_rank
    if not converged:
        logger.warning("pagerank did not converge to %.1e in %d iterations",
                       tol, max_iter)
    return dict(zip(ids, rank.tolist()))


def _tarjan_scc(callees: list[list[int]]) -> list[list[int]]:
    """Iterative Tarjan over nodes 0..n-1; components in reverse
    topological order (every component after the ones it calls)."""
    n = len(callees)
    index_of, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack, components = [], []
    counter = 0

    for start in range(n):
        if index_of[start] >= 0:
            continue
        work = [(start, iter(callees[start]))]
        index_of[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack[start] = True
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if index_of[child] < 0:
                    index_of[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(callees[child])))
                    advanced = True
                    break
                if on_stack[child]:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                components.append(comp)
    return components


def backward_propagate(adjacency: Adjacency, ranks: dict[FunctionId, float],
                       decay: float = 0.5) -> dict[FunctionId, float]:
    """Backward weight propagation with decay over the call graph.

    Leaves keep their own rank as propagated mass; every other function
    accumulates decayed mass from its callees, so rank concentrated in
    deep utility leaves flows back toward the middle of the call chain.
    Cycles are condensed; a component's mass is split equally among its
    members.  Returns every function's score: its rank plus the propagated
    mass.
    """
    ids, src, dst = adjacency
    bounds = np.searchsorted(src, np.arange(len(ids) + 1)).tolist()
    dst_list = dst.tolist()
    callees = [dst_list[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    components = _tarjan_scc(callees)
    comp_of = [0] * len(ids)
    for ci, comp in enumerate(components):
        for node in comp:
            comp_of[node] = ci

    comp_children: list[set[int]] = [set() for _ in components]
    for a, b in zip(src.tolist(), dst_list):
        ci, cj = comp_of[a], comp_of[b]
        if ci != cj:
            comp_children[ci].add(cj)

    # components come callees first, so one pass over them is a post-order
    comp_tmp: list[float] = []
    for ci, comp in enumerate(components):
        children = comp_children[ci]
        if children:
            comp_tmp.append(sum(comp_tmp[child] * decay for child in sorted(children)))
        else:
            comp_tmp.append(sum(ranks.get(ids[node], 0.0) for node in comp))

    scores = {}
    for comp, tmp in zip(components, comp_tmp):
        share = tmp / len(comp)
        for node in comp:
            scores[ids[node]] = ranks.get(ids[node], 0.0) + share
    return scores


def inter_impact(scores: dict[FunctionId, float], function: FunctionId) -> float:
    """Raw inter-function impact; 0 for functions absent from the graph."""
    return scores.get(function, 0.0)
