"""Project call graph: incremental maintenance, PageRank, decay propagation.

The graph is stored per file: each source file owns its function nodes and
the call sites found in their bodies, which the parser collects as it
builds each function unit (``FunctionUnit.calls``).  Call sites keep the
callee's dotted name, so resolution can be redone selectively.  When a
commit changes a file, that file's sites are resolved afresh; elsewhere
only the sites whose callee's simple name is that of a function the
commit added or removed are re-resolved.  That is exact: a site resolves from its own file's
functions and the project index entry for its dotted name, and outside
the changed files only those entries move.  A body-only edit removes and
re-adds the same functions, so it re-resolves nothing outside its file.

Resolution is heuristic name matching (no type inference): first functions
in the caller's own file whose qualified name ends with the callee's dotted
path, then project-wide suffix matches, else a synthetic ``external:`` node.
Both lookups are one dict access: the project index keys every function
under each dotted suffix of its name without the signature (``A.B.f(int)``
under ``f``, ``B.f`` and ``A.B.f``), and ``resolve_file`` builds the same
index over the caller's file once per call.

``CallGraph.files`` holds one ``FileEntry`` per file: its functions, its
call sites and their resolved targets, the same functions and edges as
integer arrays, and the blob and syntax tree they were read from.  An
entry is a tuple that is replaced (``_replace``), never changed in place,
and so is each bucket of the suffix index.  The integers come from an
append-only interner that a graph shares with its copies; a number is
never reused, so a shared entry's arrays mean the same in every copy, and
``adjacency()`` concatenates them instead of walking sites.  A copy of the
graph (``CallGraph.copy``, which ``CheckpointStore`` keeps for later
commits) is therefore one new dict over the same entries plus one over
the same index buckets.  The interner keeps every ``FunctionId`` any of
those graphs ever held.

Function importance combines two passes: plain PageRank, where a function
called by many accrues rank, then a backward propagation that walks callee
subtrees and feeds decayed leaf rank back up the call chain, so mid-chain
functions outrank both bare utilities and entry points.  Cycles are handled
by condensing strongly connected components; the mass a component receives
is split equally among its members.  Both passes read one ``Adjacency``
built in sorted ``FunctionId`` order, so ranks do not depend on the hash
seed.  The interner keeps every number it gave out sorted by its
``FunctionId`` (``_Interner.order``), merging in the ids interned since
the last ranking, so ``adjacency()`` sorts no ids.

Each sum in the propagation runs left to right in an order fixed by the
graph alone, not by how its components were found: a component that calls
no other sums its members' ranks in index order, and any other sums its
callee components' decayed mass in ascending order of their smallest
member index.

The propagation condenses the graph into a ``Condensation`` (Tarjan,
SIAM J. Comput. 1972) and hands it back with the scores; the graph keeps
the last one in ``CallGraph.condensation`` and passes it to the next
ranking, which reuses it instead of running Tarjan when it still holds:
the node list is the same, every edge it found inside a component is still
there, and every edge between components runs from a later component to an
earlier one.  Then each component is still strongly connected and no cycle
joins two of them, so they are still the SCCs, in an order that still puts
every callee before its callers.  Unlike ``impact`` the condensation is
never cleared, since a stale one is checked before it is used.

``adjacency()`` is the one view that decides which ids are nodes: every
function and every resolved target.  ``structure()``, ``nodes`` and
``edges`` are read from it, so what the tests compare is what ranking
reads.

Ranks depend only on ``adjacency()``, so a graph keeps its last ranks
itself: ``CallGraph.impact`` is None until a caller ranks the graph and
stores the scores there.  ``update`` sets it back to None when a changed
file's function numbers or distinct edge codes, the two arrays of its
entry that ``adjacency()`` reads, differ from the old entry's; the edge
codes are kept sorted, so equal edge sets are equal arrays.
``reresolve_names`` sets it back to None when a call site's resolved
targets change.  So commits that only edit bodies keep it, and so does a
second call to a function the caller already calls.  A copy carries
the ranks and the condensation of the graph it was taken from, since the
two have the same structure; both are shared, so they are replaced, never
changed in place.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from itertools import groupby, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import UnknownCheckpoint
from .syntax import SyntaxTree

logger = logging.getLogger(__name__)

EXTERNAL_PREFIX = "external:"


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


class Adjacency(NamedTuple):
    """Distinct call edges as index pairs into ``ids`` (sorted), ordered by
    (caller, callee)."""

    ids: list[FunctionId]
    src: np.ndarray
    dst: np.ndarray


_NO_NUMBERS = np.zeros(0, dtype=np.int64)
# An edge is one int64: the caller's number in the high 32 bits, the
# callee's in the low ones.
_LOW = (1 << 32) - 1


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted.  Not ``np.unique``: its first call in a
    process imports ``numpy.ma``, which leaves cyclic garbage behind."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class FileEntry(NamedTuple):
    """One file's share of the graph: its functions, the call sites in
    their bodies and each site's resolved targets, ``()`` until the file
    is resolved.  ``blob`` and ``tree`` are the version they came from;
    the tree lives as long as the entry, so a later commit whose before
    side is that blob reads it instead of parsing the text again.

    ``numbers`` holds the functions' interned numbers and ``edges`` the
    file's distinct (caller, target) pairs as ``caller << 32 | target``
    codes, sorted, both from the ``_Interner`` of the graph that made the
    entry; ``edges`` is set with ``targets``, so ``adjacency()`` reads no
    site."""

    functions: tuple[FunctionId, ...]
    sites: tuple[CallSite, ...]
    targets: tuple[tuple[FunctionId, ...], ...] = ()
    blob: str | None = None
    tree: SyntaxTree | None = None
    numbers: np.ndarray = _NO_NUMBERS
    edges: np.ndarray = _NO_NUMBERS


_NO_FILE = FileEntry((), ())


class _Interner:
    """Append-only ``FunctionId`` -> int numbering, shared by a graph and
    its copies: a number is never reused, so the arrays of an entry that
    several graphs share mean the same in each of them."""

    def __init__(self):
        self.numbers: dict[FunctionId, int] = {}
        self.fids: list[FunctionId] = []
        self._order = _NO_NUMBERS

    def number(self, fid: FunctionId) -> int:
        number = self.numbers.get(fid)
        if number is None:
            number = self.numbers[fid] = len(self.fids)
            self.fids.append(fid)
        return number

    def order(self) -> np.ndarray:
        """Every number given out, sorted by its ``FunctionId``.  The ids
        interned since the last call are sorted among themselves and merged
        in; the rest keep their order."""
        fids, order = self.fids, self._order
        if len(order) < len(fids):
            new = sorted(range(len(order), len(fids)), key=fids.__getitem__)
            at = [bisect_left(order, fids[number], key=fids.__getitem__)
                  for number in new]
            self._order = order = np.insert(order, at, new)
        return order


def _suffixes(fid: FunctionId) -> list[str]:
    """Every dotted suffix of ``fid``'s name without its signature:
    ``A.B.f(int)`` gives ``f``, ``B.f`` and ``A.B.f``."""
    parts = _strip_signature(fid.name).split(".")
    return [".".join(parts[i:]) for i in range(len(parts))]


def _local_index(functions) -> dict[str, list[FunctionId]]:
    """``functions`` keyed by each of their dotted suffixes."""
    local: dict[str, list[FunctionId]] = {}
    for fid in functions:
        for suffix in _suffixes(fid):
            local.setdefault(suffix, []).append(fid)
    return local


class CallGraph:
    """Directed caller -> callee graph with per-file ownership.

    ``impact`` holds the last impact scores ranked on this structure, or
    None; it is cleared whenever ``structure()`` may have changed (see the
    module doc).  ``condensation`` holds the SCCs the last ranking used, or
    None, and is never cleared.  ``files`` entries, ``impact`` and
    ``condensation`` are immutable: replace them, never change them, since
    copies of the graph share them.
    """

    def __init__(self):
        self.files: dict[str, FileEntry] = {}
        # dotted suffix -> sorted tuple of the functions it names; a bucket
        # is replaced, never changed, so copies share the tuples
        self._index: dict[str, tuple[FunctionId, ...]] = {}
        self._interner = _Interner()
        self.impact: dict[FunctionId, float] | None = None
        self.condensation: Condensation | None = None

    # -- node bookkeeping ----------------------------------------------------

    def _reindex(self, removed, added):
        """Take the functions ``removed`` out of the suffix index and put
        ``added`` in."""
        buckets: dict[str, set[FunctionId]] = {}

        def bucket(suffix):
            found = buckets.get(suffix)
            if found is None:
                found = buckets[suffix] = set(self._index.get(suffix, ()))
            return found

        for fid in removed:
            for suffix in _suffixes(fid):
                bucket(suffix).discard(fid)
        for fid in added:
            for suffix in _suffixes(fid):
                bucket(suffix).add(fid)
        for suffix, fids in buckets.items():
            if fids:
                self._index[suffix] = tuple(sorted(fids))
            else:
                self._index.pop(suffix, None)

    def _add_file(self, path: str, blob: str | None, tree: SyntaxTree):
        """Add ``path``'s unresolved entry, read from ``tree``, the text of
        ``blob``: its methods and constructors, and their call sites in
        that order (lambdas count for their enclosing function)."""
        named = [u for u in tree.functions if u.body.kind != "lambda_expr"]
        fids = tuple(FunctionId(u.qualified_name, path) for u in named)
        sites = tuple(CallSite(fid, name, name.rsplit(".", 1)[-1])
                      for fid, unit in zip(fids, named) for name in unit.calls)
        numbers = np.fromiter(map(self._interner.number, fids), np.int64, len(fids))
        self.files[path] = FileEntry(fids, sites, blob=blob, tree=tree, numbers=numbers)

    # -- resolution ------------------------------------------------------------

    def _resolve_site(self, site: CallSite, local) -> tuple[FunctionId, ...]:
        """The functions of the caller's file (``local``, from
        ``_local_index``) named by the site's dotted callee, else those of
        the project, else one ``external:`` node."""
        matches = local.get(site.dotted)
        if matches:
            return tuple(sorted(matches))
        return (self._index.get(site.dotted)
                or (FunctionId(EXTERNAL_PREFIX + site.dotted, ""),))

    def _resolved(self, entry: FileEntry, targets) -> FileEntry:
        """``entry`` with ``targets`` and the edges they make."""
        number = self._interner.number
        codes = {number(site.caller) << 32 | number(target)
                 for site, site_targets in zip(entry.sites, targets)
                 for target in site_targets}
        return entry._replace(targets=targets, edges=np.sort(np.fromiter(
            codes, np.int64, len(codes))))

    def resolve_file(self, path: str):
        entry = self.files[path]
        local = _local_index(entry.functions)
        self.files[path] = self._resolved(
            entry, tuple(self._resolve_site(s, local) for s in entry.sites))

    def reresolve_names(self, names: set[str], skip_files: set[str]):
        """Re-resolve sites outside ``skip_files`` whose callee simple name
        gained or lost a definition; every file outside ``skip_files`` must
        already be resolved.  A file whose targets change gets a new entry
        and clears ``impact``."""
        if not names:
            return
        for path, entry in self.files.items():
            if path in skip_files:
                continue
            local = None
            changed = {}
            for i, site in enumerate(entry.sites):
                if site.simple in names:
                    if local is None:
                        local = _local_index(entry.functions)
                    targets = self._resolve_site(site, local)
                    if targets != entry.targets[i]:
                        changed[i] = targets
            if changed:
                self.files[path] = self._resolved(entry, tuple(
                    changed.get(i, targets) for i, targets in enumerate(entry.targets)))
                self.impact = None

    # -- views -------------------------------------------------------------------

    def adjacency(self) -> Adjacency:
        """The graph ranking reads: every function and every resolved
        target is a node, every distinct (caller, target) pair an edge."""
        entries = self.files.values()
        edges = np.concatenate([_NO_NUMBERS, *(entry.edges for entry in entries)])
        order = self._interner.order()
        fids = self._interner.fids
        node = np.zeros(len(fids), dtype=bool)
        node[np.concatenate([edges & _LOW, *(entry.numbers for entry in entries)])] = True
        order = order[node[order]]
        n = len(order)
        position = np.zeros(len(fids), dtype=np.int64)
        position[order] = np.arange(n)
        codes = _distinct(position[edges >> 32] * n + position[edges & _LOW])
        return Adjacency(list(map(fids.__getitem__, order.tolist())),
                         codes // n, codes % n)

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
        """A graph with the same structure and ranks, sharing this one's
        file entries, index buckets, interner, ``impact`` and
        ``condensation``; later updates to either leave the other as it
        was."""
        graph = CallGraph()
        graph.files = dict(self.files)
        graph._index = dict(self._index)
        graph._interner = self._interner
        graph.impact = self.impact
        graph.condensation = self.condensation
        return graph

    # -- incremental update -----------------------------------------------------------

    def update(self, sources) -> "CallGraph":
        """Apply one commit's source changes (``pipeline.SourceChange``, as
        ``pipeline.parse_changes`` returns them); the result equals a full
        rebuild.

        Every path a change names, a rename's old path too, loses its
        entry, which is kept to compare.  A change with an after blob
        whose tree parsed gets a new entry that keeps that blob and tree;
        a file whose text failed to parse has no nodes until a later change
        brings text that parses.  The re-added paths are resolved afresh.
        Elsewhere only sites whose callee's simple name is that of a
        function the commit added or removed are re-resolved: a body-only
        edit removes and re-adds the same functions, so it re-resolves
        none.  ``impact`` is cleared when one of those paths' function
        numbers or distinct edges, the arrays ``adjacency()`` reads,
        changed, or a re-resolved site changed targets.
        """
        old: dict[str, FileEntry] = {}
        for source in sources:
            for path in (source.old_path, source.path):
                if path is not None:
                    old.setdefault(path, self.files.pop(path, _NO_FILE))
            if source.after_blob is not None and source.after is not None:
                self._add_file(source.path, source.after_blob, source.after)

        lost = {fid for entry in old.values() for fid in entry.functions}
        gained = {fid for path in old for fid in self.files.get(path, _NO_FILE).functions}
        self._reindex(lost - gained, gained - lost)
        for path in old:
            if path in self.files:
                self.resolve_file(path)
        self.reresolve_names({_simple_name(fid.name) for fid in lost ^ gained},
                             skip_files=old.keys())
        for path, entry in old.items():
            new = self.files.get(path, _NO_FILE)
            # both arrays are int64, so equal bytes are equal arrays
            if (entry.numbers.tobytes() != new.numbers.tobytes()
                    or entry.edges.tobytes() != new.edges.tobytes()):
                self.impact = None
                break
        return self


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class CheckpointStore:
    """Keeps the graphs that later commits read, keyed by commit id.

    Each checkpoint and each restore is a ``CallGraph.copy``, so they share
    the ``FileEntry`` objects of the graph they came from, syntax trees
    included, and cost one dict slot per file and one per index key.
    Every restore is a new graph that carries the checkpoint's ranks, so a
    branch that leaves the structure alone is not ranked again.
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

    def get(self, commit_id: str) -> CallGraph | None:
        """The checkpoint itself, to be read and not changed, or None."""
        return self._memory.get(commit_id)

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
    logged and the last iterate is returned.
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


class Condensation(NamedTuple):
    """The strongly connected components of one ``Adjacency``.

    ``label`` gives each node's component.  Components are numbered callee
    first: every edge between two of them runs from the higher number to
    the lower.  ``ids`` is the node list they were found on, ``first`` each
    component's smallest member index and ``inner`` the edges found inside
    components, as sorted ``caller * len(ids) + callee`` codes.
    """

    ids: list[FunctionId]
    label: np.ndarray
    first: np.ndarray
    inner: np.ndarray

    def holds_for(self, adjacency: Adjacency) -> bool:
        """Whether these are still the SCCs of ``adjacency``, numbered
        callee first: the node list is the same, every ``inner`` edge is
        still there, and no edge runs to a higher component."""
        ids, src, dst = adjacency
        if ids != self.ids:
            return False
        label = self.label
        if (label[src] < label[dst]).any():
            return False
        codes = src * len(ids) + dst
        at = np.searchsorted(codes, self.inner)
        return bool((at < len(codes)).all() and (codes[at] == self.inner).all())


def _tarjan_labels(callees: list[list[int]]) -> tuple[list[int], int]:
    """Iterative Tarjan over nodes 0..n-1: each node's component, numbered
    in the order components complete, which puts every component after the
    ones it calls; and the number of components."""
    n = len(callees)
    index_of, low, on_stack = [-1] * n, [0] * n, [False] * n
    label = [0] * n
    stack = []
    counter = components = 0

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
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    label[w] = components
                    if w == node:
                        break
                components += 1
    return label, components


def _condense(adjacency: Adjacency) -> Condensation:
    """The SCCs of ``adjacency``, found by Tarjan's algorithm."""
    ids, src, dst = adjacency
    n = len(ids)
    bounds = np.searchsorted(src, np.arange(n + 1)).tolist()
    dst_list = dst.tolist()
    labels, count = _tarjan_labels([dst_list[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    label = np.array(labels, dtype=np.int64)
    # members grouped by component, each group in index order
    members = np.argsort(label, kind="stable")
    sizes = np.bincount(label, minlength=count)
    inside = label[src] == label[dst]
    return Condensation(ids, label, members[np.cumsum(sizes) - sizes],
                        src[inside] * n + dst[inside])


class Impact(dict):
    """Impact scores by ``FunctionId``, with the ``Condensation`` they were
    propagated over."""

    __slots__ = ("condensation",)

    def __init__(self, scores, condensation: Condensation):
        super().__init__(scores)
        self.condensation = condensation


def backward_propagate(adjacency: Adjacency, ranks: dict[FunctionId, float],
                       decay: float = 0.5, kept: Condensation | None = None) -> Impact:
    """Backward weight propagation with decay over the call graph.

    Leaves keep their own rank as propagated mass; every other function
    accumulates decayed mass from its callees, so rank concentrated in
    deep utility leaves flows back toward the middle of the call chain.
    Cycles are condensed; a component's mass is split equally among its
    members, and each sum runs in the order the module doc fixes.  Returns
    every function's score, its rank plus the propagated mass, with the
    condensation used: ``kept`` if it still holds for ``adjacency``, else
    a fresh one.
    """
    ids, src, dst = adjacency
    n = len(ids)
    condensation = kept if kept is not None and kept.holds_for(adjacency) else _condense(adjacency)
    label, first = condensation.label, condensation.first
    count = len(first)
    rank = np.fromiter(map(ranks.get, ids, repeat(0.0)), dtype=float, count=n)
    # bincount adds each component's members in index order
    mass = np.bincount(label, weights=rank, minlength=count).tolist()
    scaled = [m * decay for m in mass]

    # distinct (caller component, callee component's first member) pairs,
    # sorted: each caller's callees in ascending order of smallest member
    caller, callee = label[src], label[dst]
    across = caller != callee
    pairs = _distinct(caller[across] * n + first[callee[across]])
    # components come callees first, so a callee's mass is final before
    # the pass reaches a pair that reads it
    for component, group in groupby(zip((pairs // n).tolist(), label[pairs % n].tolist()),
                                    key=itemgetter(0)):
        total = 0.0
        for _, child in group:
            total += scaled[child]
        mass[component], scaled[component] = total, total * decay

    share = np.array(mass) / np.bincount(label, minlength=count)
    return Impact(zip(ids, (rank + share[label]).tolist()), condensation)


def inter_impact(scores: dict[FunctionId, float], function: FunctionId) -> float:
    """Raw inter-function impact; 0 for functions absent from the graph."""
    return scores.get(function, 0.0)
