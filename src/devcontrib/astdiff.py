"""Tree differencing: node mapping, edit scripts, and the weighted edit size.

Matching follows the classic two-phase scheme used by modern AST differs:
a greedy top-down pass maps isomorphic subtrees from the largest down, then
a bottom-up pass maps container nodes whose mapped-descendant overlap (dice
coefficient) clears a threshold.  A final recovery pass aligns leftover
children inside mapped containers so single-token edits (renames, literal
tweaks) surface as updates instead of delete/insert pairs.  Both trees'
subtrees are compared by their exact shapes (see ``syntax.ShapeTable``),
filled by one table for both trees before matching: equal shapes are
isomorphic subtrees, so proving a pair costs one comparison.

After the top-down pass most of a file usually sits in mapped isomorphic
subtrees.  A pair inside one keeps its label, its parent pair and its
sibling order, so it can never yield an update, a move or an alignment.
The mapping therefore holds only the anchors, the pairs an edit can start
from: the pairs mapped one by one, and the root pair of each isomorphic
subtree with the subtree's size.  Every other node of such a subtree is
mapped implicitly, to the node at its place below the partner root.  The
later passes visit only the anchors, and no walk enters a wholly mapped
subtree: their cost follows the changed region, not the file.  The edit
script also enters no wholly unmapped subtree, such as an added file or a
new method: it is one insert or delete, and its depth is its root's
height.  So the script's cost does not grow with the size of what is
added or removed whole.

Syntax trees keep no parent links.  Where the differ needs a node's
parent, on the after side of the bottom-up pass and on both sides of the
edit script, it takes it from one pre-order walk of that region
(``_region``): every anchor and all of its ancestors lie in it, and so
does the root of every maximal unmapped subtree.  The bottom-up pass reads
the before side in one post-order walk that needs no parents: a
container's mapped descendants are the mapped nodes passed between
entering and leaving it.

The edit script uses subtree-granular actions: a maximal unmapped subtree
becomes one insert or delete, a mapped pair with a changed label becomes an
update, and a mapped subtree whose parent or sibling rank changed becomes a
move.  Each action records the changed-subtree depth and the flags that
drive the weighting: whether the change touches only identifier, modifier
or annotation nodes (read from their kinds), and whether it sits inside a
blacklisted (logging/print) statement.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from operator import attrgetter

from .config import DEFAULT_BLACKLIST, AnalysisConfig
from .syntax import ShapeTable, SyntaxNode, SyntaxTree, is_log_call_statement

FILE_SCOPE = "<file-scope>"

MIN_HEIGHT = 2  # of the lowest subtrees the top-down pass maps


@dataclass
class EditAction:
    """One tree edit.

    The changed subtree's root is ``after_node``, or ``before_node`` for a
    delete.  An insert or a move lands where ``after_node`` sits in the
    after tree.
    """

    kind: str                      # insert | update | delete | move
    subtree_depth: int
    only_name_or_modifier: bool = False
    blacklisted: bool = False
    before_node: SyntaxNode | None = None
    after_node: SyntaxNode | None = None


@dataclass
class FunctionChangeSet:
    """All edit actions attributed to one function (or the file scope)."""

    function: str                  # qualified name, or FILE_SCOPE
    actions: list[EditAction] = field(default_factory=list)


class NodeMapping:
    """Partial one-to-one mapping between before- and after-tree nodes.

    ``b2a``/``a2b`` hold the anchors, in the order they were mapped: each
    pair added by ``add`` and the root pair of each successful
    ``add_isomorphic``.  ``iso_before`` and ``iso_after`` hold the roots
    of the isomorphic subtrees on each side.  A node below such a root is
    mapped too, to the node at its place below the partner root, but it is
    in neither dict; the differ never looks one up.
    """

    def __init__(self):
        self.b2a: dict[SyntaxNode, SyntaxNode] = {}
        self.a2b: dict[SyntaxNode, SyntaxNode] = {}
        self.iso_before: set[SyntaxNode] = set()
        self.iso_after: set[SyntaxNode] = set()

    def add(self, b: SyntaxNode, a: SyntaxNode):
        self.b2a[b] = a
        self.a2b[a] = b

    def add_isomorphic(self, b: SyntaxNode, a: SyntaxNode) -> bool:
        """Map the subtrees of ``b`` and ``a`` node-for-node if they are
        isomorphic, and return whether they are.  Both shapes must have
        been filled by one ``ShapeTable``."""
        if b.shape != a.shape:
            return False
        self.add(b, a)
        self.iso_before.add(b)
        self.iso_after.add(a)
        return True


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def _lcs_pairs(xs, ys, key):
    """Longest common subsequence of xs/ys under key equality; returns pairs.

    The traceback pairs two elements as soon as their keys agree, so a
    common prefix is paired directly and the table covers only the rest.
    """
    kx = [key(x) for x in xs]
    ky = [key(y) for y in ys]
    p = 0
    while p < len(kx) and p < len(ky) and kx[p] == ky[p]:
        p += 1
    pairs = list(zip(xs[:p], ys[:p]))
    xs, ys, kx, ky = xs[p:], ys[p:], kx[p:], ky[p:]
    n, m = len(kx), len(ky)
    if n == 0 or m == 0:
        return pairs
    # table[i][j]: LCS length of kx[i:] and ky[j:]
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row, below, k = table[i], table[i + 1], kx[i]
        for j in range(m - 1, -1, -1):
            if k == ky[j]:
                row[j] = below[j + 1] + 1
            else:
                row[j] = max(below[j], row[j + 1])
    i = j = 0
    while i < n and j < m:
        if kx[i] == ky[j]:
            pairs.append((xs[i], ys[j]))
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def _top_down(before_root, after_root, mapping):
    open_b = [before_root]
    open_a = [after_root]
    while open_b and open_a:
        hb = max(n.height for n in open_b)
        if hb < MIN_HEIGHT:
            break
        ha = max(n.height for n in open_a)
        if ha < MIN_HEIGHT:
            break
        if hb > ha:
            open_b = _expand(open_b, hb)
            continue
        if ha > hb:
            open_a = _expand(open_a, ha)
            continue
        level_b = [n for n in open_b if n.height == hb]
        level_a = [n for n in open_a if n.height == hb]
        by_shape = {}
        for a in level_a:
            by_shape.setdefault(a.shape, []).append(a)
        matched_b, matched_a = set(), set()
        for b in level_b:
            candidates = by_shape.get(b.shape, ())
            for a in candidates:
                if a not in matched_a and mapping.add_isomorphic(b, a):
                    matched_b.add(b)
                    matched_a.add(a)
                    break
        open_b = _expand(open_b, hb, matched=matched_b)
        open_a = _expand(open_a, hb, matched=matched_a)


def _expand(nodes, height, matched=()):
    """Drop matched nodes at ``height``, descend into unmatched ones."""
    out = []
    for n in nodes:
        if n.height != height:
            out.append(n)
        elif n not in matched:
            out.extend(n.children)
    return out


def _region(root, iso_roots, anchor_keys=None):
    """``(node, parent)`` for the nodes under ``root`` in pre-order, not
    descending below the isomorphic roots in ``iso_roots`` (which are
    yielded themselves); the parent of ``root`` is None.  Given the
    ``anchor_keys`` of that side, it does not descend below a node that
    cannot hold an anchor either (see ``_may_hold_anchor``)."""
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        if node not in iso_roots and (anchor_keys is None
                                      or _may_hold_anchor(node, anchor_keys)):
            stack.extend((c, node) for c in reversed(node.children))


def _may_hold_anchor(node, anchor_keys):
    """Whether an anchor may be ``node`` or lie below it, judged from the
    sorted ``(start, height)`` keys of one side's anchors.

    A node in the subtree starts within the node's span; if it starts
    where the node does, it is no higher.  An ancestor that starts there
    too, such as a file's root above its first class, is higher, so it
    does not count.
    """
    keys, start = anchor_keys, node.start
    i = bisect.bisect_right(keys, (start, node.height))
    if i and keys[i - 1][0] == start:
        return True
    i = bisect.bisect_left(keys, (start + 1,), i)
    return i < len(keys) and keys[i][0] <= node.end


def _bottom_up(before_root, after_root, mapping, threshold):
    """Map unmapped before containers, children first, each to the unmapped
    after node of its kind whose subtree holds the most partners of its
    mapped descendants (dice coefficient above ``threshold``).

    Only the region outside isomorphic subtrees is walked, once on each
    side.  The before region is walked in post-order, children left to
    right; the partners of the mapped nodes passed so far (isomorphic
    roots, and each container as it is mapped) are appended to one list.
    A container's mapped descendants are passed after it is entered and
    before it is left, so their partners are the slice of that list from
    its length on entry.

    The partners of a mapped descendant form one range of after-side
    pre-order positions: a whole isomorphic subtree, or one node.  A
    candidate is unmapped, so it is never inside an isomorphic subtree, and
    each range lies wholly inside or wholly outside the candidate's
    subtree; prefix sums over the sorted ranges count the partners inside.
    """
    if mapping.b2a:  # otherwise no node has a mapped descendant
        b2a, iso_b, iso_a = mapping.b2a, mapping.iso_before, mapping.iso_after
        a_parent = dict(_region(after_root, iso_a))  # in pre-order
        # pre-order position: the subtree of n spans positions
        # a_positions[n] .. a_positions[n] + n.size - 1
        a_positions, position = {}, 0
        for n in a_parent:
            a_positions[n] = position
            position += n.size if n in iso_a else 1

        passed = []  # partners of the mapped before nodes passed, in post-order
        # (node, None) until the node is entered, then (node, len(passed) on entry)
        stack = [(before_root, None)]
        while stack:
            b, low = stack.pop()
            if low is None:
                if b in iso_b:
                    passed.append(b2a[b])
                elif not b.is_leaf:
                    stack.append((b, len(passed)))
                    stack.extend((c, None) for c in reversed(b.children))
                continue
            partners = passed[low:]
            if not partners:
                continue
            partners.sort(key=a_positions.__getitem__)
            starts = [a_positions[p] for p in partners]
            covered = list(itertools.accumulate(
                [p.size if p in iso_a else 1 for p in partners], initial=0))
            # candidates: unmapped after nodes of b's kind above some partner
            above = set()
            for p in partners:
                node = a_parent[p]
                while node is not None and node not in above:
                    above.add(node)
                    node = a_parent[node]
            best, best_key = None, None
            for cand in above:
                if cand.kind != b.kind or cand in mapping.a2b:
                    continue
                first = a_positions[cand]
                cnt = covered[bisect.bisect_right(starts, first + cand.size - 1)] \
                    - covered[bisect.bisect_left(starts, first)]
                descendants = b.size + cand.size - 2
                dice = 2.0 * cnt / descendants if descendants else 0.0
                key = (dice, -first)
                if dice > threshold and (best_key is None or key > best_key):
                    best, best_key = cand, key
            if best is not None:
                mapping.add(b, best)
                passed.append(best)
    if before_root not in mapping.b2a and after_root not in mapping.a2b \
            and before_root.kind == after_root.kind:
        mapping.add(before_root, after_root)


def _recover(mapping):
    """Align unmapped children inside mapped containers.

    Three alignment passes per container, strongest key first: identical
    subtrees (equal shapes), then same kind+label, then same kind.  Pairs
    from the weaker passes are pushed back on the worklist so their
    children align too.  The children of an isomorphic pair are mapped
    already.
    """
    work = [pair for pair in mapping.b2a.items() if pair[0] not in mapping.iso_before]
    while work:
        b, a = work.pop()
        ub = [c for c in b.children if c not in mapping.b2a]
        ua = [c for c in a.children if c not in mapping.a2b]
        if not ub or not ua:
            continue
        for key, whole_subtree in (
            (attrgetter("shape"), True),
            (lambda n: (n.kind, n.label), False),
            (lambda n: n.kind, False),
        ):
            pairs = _lcs_pairs(ub, ua, key)
            for pb, pa in pairs:
                if not (whole_subtree and mapping.add_isomorphic(pb, pa)):
                    mapping.add(pb, pa)
                    work.append((pb, pa))
            ub = [c for c in ub if c not in mapping.b2a]
            ua = [c for c in ua if c not in mapping.a2b]
            if not ub or not ua:
                break


def map_trees(before: SyntaxTree, after: SyntaxTree,
              similarity_threshold: float = 0.5,
              shapes: ShapeTable | None = None) -> NodeMapping:
    """Two-phase greedy match between two trees of the same grammar.

    ``shapes`` fills both trees' shapes first if both roots reach
    ``MIN_HEIGHT``, else no pass reads one (an added or deleted file); when
    None, it is the table bound to either tree, else a new one.  Raises
    ``ValueError`` when a tree is bound to another table, whose shapes
    cannot be compared with this one's.
    """
    if shapes is None:
        shapes = before.shapes if before.shapes is not None else after.shapes
        if shapes is None:
            shapes = ShapeTable()
    if any(t.shapes is not None and t.shapes is not shapes for t in (before, after)):
        raise ValueError("the trees' shapes were filled by different tables")
    before.shapes = after.shapes = shapes
    if before.root.height >= MIN_HEIGHT and after.root.height >= MIN_HEIGHT:
        shapes.fill(before.root)
        shapes.fill(after.root)
    mapping = NodeMapping()
    _top_down(before.root, after.root, mapping)
    _bottom_up(before.root, after.root, mapping, similarity_threshold)
    _recover(mapping)
    return mapping


# ---------------------------------------------------------------------------
# edit script
# ---------------------------------------------------------------------------

def _unmapped_portion(node, mapped):
    """``node`` and the nodes not in ``mapped`` reachable from it through
    such children, level by level, and the number of levels they span."""
    portion, level, height = [], [node], 0
    while level:
        height += 1
        portion.extend(level)
        level = [c for n in level for c in n.children if c not in mapped]
    return portion, height


# Kinds of the nodes whose edits the name-only factor discounts.
_NAME_OR_MODIFIER = frozenset({"identifier", "modifier", "annotation"})


def _only_names_or_modifiers(nodes):
    """True when every node of a changed portion (never empty) is one of
    ``_NAME_OR_MODIFIER``."""
    return all(n.kind in _NAME_OR_MODIFIER for n in nodes)


def _inside_log_statement(node, parents, blacklist):
    while node is not None:
        if is_log_call_statement(node, blacklist):
            return True
        node = parents[node]
    return False


def _unmapped_subtree(node, mapped, anchor_keys):
    """``(subtree_depth, only_name_or_modifier)`` of the maximal unmapped
    subtree at ``node``.  A subtree that cannot hold an anchor holds no
    mapped node: its depth is its height, and the kind test stops at its
    first node that is not a name or modifier."""
    if not _may_hold_anchor(node, anchor_keys):
        return node.height, _only_names_or_modifiers(node.walk())
    portion, depth = _unmapped_portion(node, mapped)
    return depth, _only_names_or_modifiers(portion)


def edit_script(mapping: NodeMapping, before: SyntaxTree, after: SyntaxTree,
                blacklist=DEFAULT_BLACKLIST) -> list[EditAction]:
    """Derive subtree-granular edit actions from a node mapping.

    Applying the script to the before tree yields a tree isomorphic to the
    after tree.

    No walk enters a wholly unmapped subtree, such as an added file or a
    new method: it is one insert or delete whose depth is its root's
    height.  Every mapped node lies in the subtree of an anchor, so an
    unmapped subtree holds a mapped node exactly when it holds an anchor.
    The parser's spans nest (each child's span lies in its parent's), and
    a child is lower than its parent, so that is possible only when some
    anchor starts within the subtree's span, and no higher than its root
    if it starts where the root does.  A test that holds without a mapped
    node below, as for the all-zero spans of hand-built trees, only makes
    the walk descend: it costs time, never an action.  Spans that do not
    nest could hide a mapped node.
    """
    actions = []
    keys_b = sorted([(b.start, b.height) for b in mapping.b2a])
    keys_a = sorted([(a.start, a.height) for a in mapping.a2b])
    parent_b = dict(_region(before.root, mapping.iso_before, keys_b))
    parent_a = dict(_region(after.root, mapping.iso_after, keys_a))

    # deletes: maximal unmapped before subtrees
    for node, parent in parent_b.items():
        if node in mapping.b2a:
            continue
        if parent is None or parent in mapping.b2a:
            depth, name_only = _unmapped_subtree(node, mapping.b2a, keys_b)
            actions.append(EditAction(
                kind="delete",
                subtree_depth=depth,
                only_name_or_modifier=name_only,
                blacklisted=_inside_log_statement(node, parent_b, blacklist),
                before_node=node,
            ))

    # inserts: maximal unmapped after subtrees
    for node, parent in parent_a.items():
        if node in mapping.a2b:
            continue
        if parent is None or parent in mapping.a2b:
            depth, name_only = _unmapped_subtree(node, mapping.a2b, keys_a)
            actions.append(EditAction(
                kind="insert",
                subtree_depth=depth,
                only_name_or_modifier=name_only,
                blacklisted=_inside_log_statement(node, parent_a, blacklist),
                after_node=node,
            ))

    # updates and cross-parent moves over the anchors: a pair inside an
    # isomorphic subtree keeps its label, parent pair and sibling rank
    order_moved = _order_moves(mapping, parent_a)
    for b, a in mapping.b2a.items():
        if b.label != a.label:
            actions.append(EditAction(
                kind="update",
                subtree_depth=1,
                only_name_or_modifier=a.is_leaf and a.kind in _NAME_OR_MODIFIER,
                blacklisted=_inside_log_statement(a, parent_a, blacklist)
                or _inside_log_statement(b, parent_b, blacklist),
                before_node=b,
                after_node=a,
            ))
        pb, pa = parent_b[b], parent_a[a]
        cross = (pb is None) != (pa is None) \
            or (pb is not None and mapping.b2a.get(pb) is not pa)
        if cross or (b, a) in order_moved:
            actions.append(EditAction(
                kind="move",
                subtree_depth=a.height,
                only_name_or_modifier=_only_names_or_modifiers(a.walk()),
                blacklisted=_inside_log_statement(a, parent_a, blacklist)
                or _inside_log_statement(b, parent_b, blacklist),
                before_node=b,
                after_node=a,
            ))

    actions.sort(key=_action_sort_key)
    return actions


def _order_moves(mapping, parent_a):
    """Mapped pairs that changed sibling rank under the same mapped parent.

    A parent whose staying children's partners already stand in the same
    order among the after parent's children is skipped: the LCS would keep
    every pair, so nothing moved there.
    """
    moved = set()
    for pb, pa in mapping.b2a.items():
        if pb.is_leaf or pb in mapping.iso_before:  # children kept in order
            continue
        stay_b = [c for c in pb.children
                  if c in mapping.b2a and parent_a[mapping.b2a[c]] is pa]
        if len(stay_b) < 2:
            continue
        partners_in_b_order = [mapping.b2a[c] for c in stay_b]
        after_children = iter(pa.children)  # in order: a subsequence of them
        if all(p in after_children for p in partners_in_b_order):
            continue
        partners = set(partners_in_b_order)
        partners_in_a_order = [c for c in pa.children if c in partners]
        kept = {pair[0] for pair in _lcs_pairs(partners_in_b_order,
                                               partners_in_a_order, key=id)}
        for c in stay_b:
            a = mapping.b2a[c]
            if a not in kept:
                moved.add((c, a))
    return moved


def _action_sort_key(action):
    node = action.after_node if action.after_node is not None else action.before_node
    rank = {"delete": 0, "update": 1, "move": 2, "insert": 3}[action.kind]
    return (node.start, node.end, rank)


# ---------------------------------------------------------------------------
# grouping and the weighted edit size
# ---------------------------------------------------------------------------

def _containing_function(units, start, end):
    best = None
    for u in units:
        node = u.body
        if node.start <= start and end <= node.end and (
                best is None or node.end - node.start < best.body.end - best.body.start):
            best = u
    return best


def group_by_function(actions, functions_before, functions_after) -> list[FunctionChangeSet]:
    """Partition actions by the innermost function containing each change.

    A move crossing function boundaries lands in both the source and the
    target changeset.  Actions outside every function are grouped under the
    synthetic file-scope unit.
    """
    sets: dict[str, FunctionChangeSet] = {}

    def key_for(unit):
        return FILE_SCOPE if unit is None else unit.qualified_name

    def put(unit_key, action):
        cs = sets.get(unit_key)
        if cs is None:
            cs = sets[unit_key] = FunctionChangeSet(unit_key)
        cs.actions.append(action)

    for act in actions:
        targets = []
        if act.kind == "delete":
            node = act.before_node
            targets.append(key_for(_containing_function(functions_before,
                                                        node.start, node.end)))
        elif act.kind in ("insert", "update"):
            node = act.after_node
            targets.append(key_for(_containing_function(functions_after,
                                                        node.start, node.end)))
        else:  # move: charge source and target
            src = _containing_function(functions_before, act.before_node.start,
                                       act.before_node.end)
            dst = _containing_function(functions_after, act.after_node.start,
                                       act.after_node.end)
            targets.append(key_for(src))
            dst_key = key_for(dst)
            if dst_key != targets[0]:
                targets.append(dst_key)
        for t in targets:
            put(t, act)

    return [sets[k] for k in sorted(sets)]


def delta_ast(changeset: FunctionChangeSet, config: AnalysisConfig | None = None) -> float:
    """Weighted syntax edit size of one function's changeset.

    Sum over actions of kind-weight x subtree-depth, discounted by the
    name-only factor and zeroed for blacklisted (logging) subtrees.  The
    weights are ``config``'s ``ast_*`` values, the defaults when None.
    """
    cfg = config or AnalysisConfig()
    weights = {"insert": cfg.ast_add, "update": cfg.ast_update,
               "move": cfg.ast_move, "delete": cfg.ast_delete}
    total = 0.0
    for act in changeset.actions:
        if act.blacklisted:
            continue
        term = weights[act.kind] * act.subtree_depth
        if act.only_name_or_modifier:
            term = term * cfg.ast_name_factor
        total += term
    return total


def diff_file_pair(before: SyntaxTree, after: SyntaxTree,
                   similarity_threshold: float = 0.5,
                   blacklist=DEFAULT_BLACKLIST, shapes: ShapeTable | None = None):
    """Convenience wrapper: match, script, and group one file pair;
    ``shapes`` is passed to ``map_trees``.

    Returns (mapping, actions, changesets).
    """
    mapping = map_trees(before, after, similarity_threshold=similarity_threshold,
                        shapes=shapes)
    actions = edit_script(mapping, before, after, blacklist=blacklist)
    changesets = group_by_function(actions, before.functions, after.functions)
    return mapping, actions, changesets
