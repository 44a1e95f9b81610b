"""Reference implementations the tests check the program against.

* ``reference_tokenize`` is the per-character lexer that the compiled
  ``devcontrib.syntax.tokenize`` replaced; the two must give the same
  tokens, comments and errors on any text.  Its tokens are
  ``ReferenceToken`` tuples, one per position of ``tokenize``'s kind, text,
  start and end lists.
* ``reference_halstead_volume`` is a unit's Halstead volume counted by a
  loop over the body's ``reference_tokenize`` tokens, as
  ``complexity.halstead_volume`` counted it before it counted the token
  lists with ``Counter``; the two must be equal, bit for bit.
* ``reference_map_trees`` and ``reference_edit_script`` are the differ as
  it was before its passes learned to skip isomorphic subtrees: the passes
  walk every mapped pair and both whole trees, and the bottom-up pass is
  the first one written, which walks every descendant's ancestor chain.
  Trees hold no parent links, so these functions take them from
  ``parent_map``, built over the whole tree.  The program must map the
  same nodes and give the same actions in the same order.  They bucket
  subtrees on ``reference_shape``, a nested tuple of kinds and labels that
  reads no shape the program filled, prove an isomorphic pair with
  ``reference_isomorphic``, a plain recursive compare, and weigh edits
  with ``reference_classify``, the four-way node classification the
  program once used.  They share
  ``is_log_call_statement``, the parent-chain walk for it and the action
  order with the program.  The program's mapping keeps only the root pair
  of each isomorphic subtree; ``mapped_pairs`` expands it into every pair
  for the comparison.
* ``ReferenceShapeTable`` is ``syntax.ShapeTable`` as it keyed each
  shape by a nested tuple, ``(kind, label, tuple of child shapes)``, and
  summed a new shape's size from its children's entries in the size list.
  Filling the same trees in the same order, the program's table must give
  every node the same shape and size.
* ``reference_line_starts`` is the per-character scan that filled
  ``SyntaxTree.line_starts`` before a ``str.find`` loop did; the two must
  give the same offsets on any text.
* ``reference_comment_percentage`` is a function's comment share as the
  per-line scan computed it, testing every comment of the file against
  each line of the function; ``complexity.comment_percentage`` must give
  the same fraction for every unit.
* ``reference_lcs_pairs`` is the alignment table that computed every key
  twice per cell; ``devcontrib.astdiff._lcs_pairs`` must give its pairs.
* ``reference_containing_function`` is the scan of every unit that found
  each action's innermost unit before one sweep over the sorted bodies
  did: of the units whose body contains the span, the one with the
  shortest body, and among equal ones the first in ``units`` order.
  ``devcontrib.astdiff._innermost_units`` must pick the same unit.
* ``apply_edit_script`` replays an edit script on a copy of the before
  tree, to check that the script really turns it into the after tree.  It
  lands each insert and move at its ``after_node``'s parent and child
  index in the after tree.
* ``reference_changed_files`` is git ingest as it was before one reader
  served the whole history: a ``git diff-tree`` and a one-shot
  ``git cat-file --batch`` per commit.  ``devcontrib.repo.changed_files``
  must return equal changes for every commit.
* ``reference_targets`` and ``reference_adjacency`` are call-graph
  resolution and its view as they were before the dotted-suffix index and
  the interned edge arrays: a simple-name index filtered by comparing
  split names, and the node and edge sets built from every entry's sites
  and targets.  A ``CallGraph``'s targets and ``adjacency()`` must equal
  them.
* ``reference_backward_propagate`` is ``callgraph.backward_propagate``
  written plainly over ``networkx``'s strongly connected components and
  condensation: each component's mass is a left-to-right sum, over its
  members' ranks in index order when it calls no other component, else
  over its callee components' decayed mass in ascending order of their
  smallest member index.  The program's scores must equal it, bit for bit.
* ``reference_pagerank`` and ``reference_rank_propagation`` are the
  ranking as it was before it read and wrote arrays by position: PageRank
  divides each edge's gathered rank by its caller's out-degree and
  returns a dict by ``FunctionId``, and the propagation reads ranks from
  such a dict.  The program's rank and impact vectors, read by the same
  ids, must equal them with ``==`` on every float, and its iteration
  counts must equal theirs.
* ``build_call_graph`` builds a snapshot's call graph from scratch, every
  file parsed and resolved at once: a ``CallGraph`` kept up to date by
  ``update`` must equal it.
* ``reference_units`` finds a tree's function units and their call sites
  as the walk over the finished tree did before the parser built them: it
  numbers lambdas and anonymous classes in pre-order and names each unit
  from its declaration's nodes.  It shares ``callee_segments`` and
  ``FunctionUnit`` with the program.  ``SyntaxTree.functions`` must equal
  it in names, spans, body nodes and ordered calls.
* ``reference_call_sites`` is call-site collection as it was before unit
  finding collected the sites: a second walk over each method's and
  constructor's declaration.  It shares only ``callee_segments`` with the
  program.  A file entry's ``sites`` must equal it.
* ``reference_reaching_defs`` is the PDG's def-use edges as the gen/kill
  fixpoint over the CFG computed them, before a backward search from each
  use replaced it.  ``devcontrib.pdg._reaching_def_use_edges`` must give
  the same edges for every CFG.
* ``reference_fit_boxcox`` is ``scoring.fit_boxcox`` as it scored the
  lambda grid before the grid was evaluated in blocks: one
  ``_boxcox(ys, lam).var()`` per point of ``scoring._lambda_grid``.  The
  program must fit equal parameters, bit for bit, on any sample and grid.
"""

import enum
import itertools
import math
from typing import NamedTuple

import numpy as np

from devcontrib.astdiff import EditAction, _action_sort_key, _inside_log_statement
from devcontrib.callgraph import (
    EXTERNAL_PREFIX,
    Adjacency,
    CallGraph,
    CallSite,
    FunctionId,
    call_units,
)
from devcontrib.config import DEFAULT_BLACKLIST
from devcontrib.errors import CorruptHistory, MissingBlob, ParseError
from devcontrib.repo import _NULL_SHA, _STATUS_KIND, FileChange, _git
from devcontrib.scoring import BoxCoxParams, _boxcox, _lambda_grid
from devcontrib.syntax import (
    callee_segments,
    is_log_call_statement,
    language_for_path,
    parse_file,
)
from devcontrib.syntax import (
    _KEYWORDS,
    _OPERATORS,
    _TYPE_DECL_KINDS,
    Comment,
    FunctionUnit,
    SyntaxTree,
    function_body,
)

_PUNCT = set("(){}[];,.@")


def parent_map(root):
    """Every node under ``root`` mapped to its parent; the root to None."""
    parents = {root: None}
    for node in root.walk():
        for child in node.children:
            parents[child] = node
    return parents


def _descendants(node):
    for child in node.children:
        yield from child.walk()


def _ancestors(node, parents):
    node = parents[node]
    while node is not None:
        yield node
        node = parents[node]


def reference_line_starts(text: str) -> list[int]:
    """The offset of each line's first character, found one character at
    a time."""
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def reference_comment_percentage(function, tree) -> float:
    """The fraction of the lines of ``function``'s span that some comment
    of ``tree`` overlaps; 0 for an empty span."""
    start, end = function.span
    if end <= start:
        return 0.0
    first = tree.line_of(start)
    last = tree.line_of(max(start, end - 1))
    starts = tree.line_starts
    comment_lines = 0
    for idx in range(first, last + 1):
        ls = starts[idx]
        le = starts[idx + 1] if idx + 1 < len(starts) else len(tree.source_text)
        if any(c.start < le and ls < c.end for c in tree.comments):
            comment_lines += 1
    return comment_lines / (last - first + 1)


class ReferenceToken(NamedTuple):
    type: str          # ident / keyword / int / float / string / char / op / punct / eof
    text: str
    start: int
    end: int


def reference_tokenize(text: str):
    """The per-character tokenizer ``syntax.tokenize`` replaced; returns
    (tokens, comments) and raises the same ParseErrors."""
    tokens = []
    comments = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n\f":
            i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments.append(Comment(i, j))
            i = j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise ParseError("unterminated block comment", position=i)
            comments.append(Comment(i, j + 2))
            i = j + 2
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            word = text[i:j]
            if word in ("true", "false", "null"):
                tokens.append(ReferenceToken("literal_word", word, i, j))
            elif word in _KEYWORDS:
                tokens.append(ReferenceToken("keyword", word, i, j))
            else:
                tokens.append(ReferenceToken("ident", word, i, j))
            i = j
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            is_float = False
            if text[j] == "0" and j + 1 < n and text[j + 1] in "xX":
                j += 2
                while j < n and (text[j] in "0123456789abcdefABCDEF_"):
                    j += 1
            else:
                while j < n and (text[j].isdigit() or text[j] == "_"):
                    j += 1
                if j < n and text[j] == ".":
                    is_float = True
                    j += 1
                    while j < n and (text[j].isdigit() or text[j] == "_"):
                        j += 1
                if j < n and text[j] in "eE":
                    is_float = True
                    j += 1
                    if j < n and text[j] in "+-":
                        j += 1
                    while j < n and text[j].isdigit():
                        j += 1
            if j < n and text[j] in "lLfFdD":
                if text[j] in "fFdD":
                    is_float = True
                j += 1
            tokens.append(ReferenceToken("float" if is_float else "int", text[i:j], i, j))
            i = j
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise ParseError("unterminated string literal", position=i)
            tokens.append(ReferenceToken("string", text[i:j + 1], i, j + 1))
            i = j + 1
            continue
        if ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise ParseError("unterminated char literal", position=i)
            tokens.append(ReferenceToken("char", text[i:j + 1], i, j + 1))
            i = j + 1
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(ReferenceToken("op", op, i, i + len(op)))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(ReferenceToken("punct", ch, i, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(ReferenceToken("eof", "", n, n))
    return tokens, comments


def reference_halstead_volume(function, tree) -> float:
    """N * log2(eta) over the tokens of ``function``'s body, counted one
    token at a time per the table in ``complexity``'s module doc; 0 for a
    unit without a body or a body that does not lex."""
    body = function_body(function)
    start, end = body.span if body is not None else (function.body.start,) * 2
    try:
        tokens, _ = reference_tokenize(tree.source_text[start:end])
    except ParseError:
        return 0.0
    operators: dict[str, int] = {}
    operands: dict[str, int] = {}
    prev = None
    for tok in tokens:
        if tok.type == "eof":
            break
        if tok.type in ("ident",):
            operands[tok.text] = operands.get(tok.text, 0) + 1
        elif tok.type in ("int", "float", "string", "char", "literal_word"):
            operands[tok.text] = operands.get(tok.text, 0) + 1
        elif tok.type == "keyword":
            operators[tok.text] = operators.get(tok.text, 0) + 1
        elif tok.type == "op":
            operators[tok.text] = operators.get(tok.text, 0) + 1
        elif tok.type == "punct" and tok.text == "(" and prev is not None and (
                prev.type == "ident" or (prev.type == "keyword"
                                         and prev.text in ("this", "super"))):
            operators["()"] = operators.get("()", 0) + 1
        prev = tok
    n_total = sum(operators.values()) + sum(operands.values())
    eta = len(operators) + len(operands)
    if eta <= 1:
        return 0.0
    return n_total * math.log2(eta)


# ---------------------------------------------------------------------------
# node mapping
# ---------------------------------------------------------------------------

def reference_isomorphic(x, y) -> bool:
    """True when the subtrees of ``x`` and ``y`` have equal kinds, labels
    and child lists all the way down.  One frame per level, so a tree at
    ``MAX_TREE_DEPTH`` stays within the recursion limit."""
    if x.kind != y.kind or x.label != y.label or len(x.children) != len(y.children):
        return False
    for cx, cy in zip(x.children, y.children):
        if not reference_isomorphic(cx, cy):
            return False
    return True


def reference_shape(node, memo) -> tuple:
    """``(kind, label, child shapes)`` of ``node``'s subtree as nested
    tuples, equal exactly for isomorphic subtrees; ``memo`` keeps each
    node's tuple.  One frame per level, as ``reference_isomorphic``."""
    shape = memo.get(node)
    if shape is None:
        shape = memo[node] = (node.kind, node.label,
                              tuple([reference_shape(c, memo) for c in node.children]))
    return shape


class ReferenceShapeTable:
    def __init__(self):
        self._ids = {}
        self._sizes = []

    def fill(self, node):
        if node.shape is None:
            ids, sizes = self._ids, self._sizes
            stack, order = [node], []
            while stack:
                n = stack.pop()
                if n.shape is None:
                    order.append(n)
                    stack.extend(n.children)
            for n in reversed(order):
                key = (n.kind, n.label, tuple([c.shape for c in n.children]))
                shape = ids.get(key)
                if shape is None:
                    shape = ids[key] = len(sizes)
                    sizes.append(1 + sum([sizes[s] for s in key[2]]))
                n.shape = shape
                n.size = sizes[shape]
        return node.shape


def mapped_pairs(mapping) -> dict:
    """Every pair a ``NodeMapping`` maps, before node to after node: each
    anchor, and below each isomorphic root pair the nodes at the same
    place in the two subtrees."""
    pairs = {}
    for b, a in mapping.b2a.items():
        if b not in mapping.iso_before:
            pairs[b] = a
            continue
        stack = [(b, a)]
        while stack:
            nb, na = stack.pop()
            pairs[nb] = na
            stack.extend(zip(nb.children, na.children))
    return pairs


class ReferenceMapping:
    """A mapping that keeps only its pairs, in the order they were added."""

    def __init__(self):
        self.b2a = {}
        self.a2b = {}

    def add(self, b, a):
        self.b2a[b] = a
        self.a2b[a] = b

    def add_isomorphic(self, b, a):
        stack = [(b, a)]
        while stack:
            nb, na = stack.pop()
            self.add(nb, na)
            stack.extend(zip(nb.children, na.children))

    def has_before(self, node):
        return node in self.b2a

    def has_after(self, node):
        return node in self.a2b

    def __len__(self):
        return len(self.b2a)


def reference_lcs_pairs(xs, ys, key):
    """Longest common subsequence of xs/ys under key equality; returns pairs."""
    n, m = len(xs), len(ys)
    if n == 0 or m == 0:
        return []
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if key(xs[i]) == key(ys[j]):
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    pairs = []
    i = j = 0
    while i < n and j < m:
        if key(xs[i]) == key(ys[j]):
            pairs.append((xs[i], ys[j]))
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def reference_map_trees(before: SyntaxTree, after: SyntaxTree,
                        similarity_threshold: float = 0.5,
                        min_height: int = 2) -> ReferenceMapping:
    mapping = ReferenceMapping()
    memo = {}

    def shape(node):
        return reference_shape(node, memo)

    _reference_top_down(before.root, after.root, mapping, min_height, shape)
    _reference_bottom_up(before.root, after.root, mapping, similarity_threshold)
    _reference_recover(mapping, shape)
    return mapping


def _reference_top_down(before_root, after_root, mapping, min_height, shape):
    open_b = [before_root]
    open_a = [after_root]
    while open_b and open_a:
        hb = max(n.height for n in open_b)
        ha = max(n.height for n in open_a)
        if min(hb, ha) < min_height:
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
            by_shape.setdefault(shape(a), []).append(a)
        matched_b, matched_a = set(), set()
        for b in level_b:
            candidates = by_shape.get(shape(b), [])
            for a in candidates:
                if a in matched_a:
                    continue
                if reference_isomorphic(b, a):
                    mapping.add_isomorphic(b, a)
                    matched_b.add(b)
                    matched_a.add(a)
                    break
        open_b = _expand(open_b, hb, matched=matched_b)
        open_a = _expand(open_a, hb, matched=matched_a)


def _expand(nodes, height, matched=()):
    out = []
    for n in nodes:
        if n.height != height:
            out.append(n)
        elif n not in matched:
            out.extend(n.children)
    return out


def _reference_bottom_up(before_root, after_root, mapping, threshold):
    """The bottom-up pass as first written: it counts descendants and common
    mapped descendants by walking subtrees and ancestor chains."""
    desc_count = {}
    for root in (before_root, after_root):
        for node in root.walk():
            desc_count[node] = sum(1 for _ in _descendants(node))
    a_parents = parent_map(after_root)

    post = []

    def postorder(n):
        for c in n.children:
            postorder(c)
        post.append(n)

    postorder(before_root)
    a_positions = {n: i for i, n in enumerate(after_root.walk())}

    for b in post:
        if mapping.has_before(b) or b.is_leaf:
            continue
        common = {}
        for d in _descendants(b):
            partner = mapping.b2a.get(d)
            if partner is None:
                continue
            for anc in _ancestors(partner, a_parents):
                if not mapping.has_after(anc) and anc.kind == b.kind:
                    common[anc] = common.get(anc, 0) + 1
        best, best_key = None, None
        for cand, cnt in common.items():
            dice = 2.0 * cnt / (desc_count[b] + desc_count[cand]) \
                if (desc_count[b] + desc_count[cand]) else 0.0
            key = (dice, -a_positions[cand])
            if dice > threshold and (best_key is None or key > best_key):
                best, best_key = cand, key
        if best is not None:
            mapping.add(b, best)
    if not mapping.has_before(before_root) and not mapping.has_after(after_root) \
            and before_root.kind == after_root.kind:
        mapping.add(before_root, after_root)


def _reference_recover(mapping, shape):
    work = list(mapping.b2a.items())
    while work:
        b, a = work.pop()
        ub = [c for c in b.children if not mapping.has_before(c)]
        ua = [c for c in a.children if not mapping.has_after(c)]
        if not ub or not ua:
            continue
        for key, whole_subtree in (
            (shape, True),
            (lambda n: (n.kind, n.label), False),
            (lambda n: n.kind, False),
        ):
            pairs = reference_lcs_pairs(ub, ua, key)
            for pb, pa in pairs:
                if whole_subtree and reference_isomorphic(pb, pa):
                    mapping.add_isomorphic(pb, pa)
                else:
                    mapping.add(pb, pa)
                    work.append((pb, pa))
            ub = [c for c in ub if not mapping.has_before(c)]
            ua = [c for c in ua if not mapping.has_after(c)]
            if not ub or not ua:
                break


# ---------------------------------------------------------------------------
# edit script
# ---------------------------------------------------------------------------

class ReferenceCategory(enum.Enum):
    NAME_BEARING = "NameBearing"
    MODIFIER = "Modifier"
    LOG_STATEMENT = "LogStatement"
    OTHER = "Other"


def reference_classify(node, blacklist=DEFAULT_BLACKLIST) -> ReferenceCategory:
    """Identifier leaves are name-bearing; modifiers and annotations form
    the modifier class; call statements whose callee matches the
    blacklist are log statements; everything else is Other."""
    if node.kind == "identifier":
        return ReferenceCategory.NAME_BEARING
    if node.kind in ("modifier", "annotation"):
        return ReferenceCategory.MODIFIER
    if is_log_call_statement(node, blacklist):
        return ReferenceCategory.LOG_STATEMENT
    return ReferenceCategory.OTHER


def _name_or_modifier(node, blacklist):
    return reference_classify(node, blacklist) in (ReferenceCategory.NAME_BEARING,
                                                   ReferenceCategory.MODIFIER)


def _reference_only_names_or_modifiers(nodes, blacklist):
    saw = False
    for n in nodes:
        saw = True
        if not _name_or_modifier(n, blacklist):
            return False
    return saw


def _unmapped_height(node, is_mapped):
    height, level = 0, [node]
    while level:
        height += 1
        level = [c for n in level for c in n.children if not is_mapped(c)]
    return height


def _unmapped_portion_nodes(node, is_mapped):
    portion = [node]
    for n in portion:  # the list grows while it is read
        portion.extend([c for c in n.children if not is_mapped(c)])
    return portion


def reference_edit_script(mapping, before: SyntaxTree, after: SyntaxTree,
                          blacklist=DEFAULT_BLACKLIST) -> list[EditAction]:
    actions = []
    parent_b, parent_a = parent_map(before.root), parent_map(after.root)

    for node in before.root.walk():
        if mapping.has_before(node):
            continue
        if parent_b[node] is None or mapping.has_before(parent_b[node]):
            portion = _unmapped_portion_nodes(node, mapping.has_before)
            actions.append(EditAction(
                kind="delete",
                subtree_depth=_unmapped_height(node, mapping.has_before),
                only_name_or_modifier=_reference_only_names_or_modifiers(portion, blacklist),
                blacklisted=_inside_log_statement(node, parent_b, blacklist),
                before_node=node,
            ))

    for node in after.root.walk():
        if mapping.has_after(node):
            continue
        if parent_a[node] is None or mapping.has_after(parent_a[node]):
            portion = _unmapped_portion_nodes(node, mapping.has_after)
            actions.append(EditAction(
                kind="insert",
                subtree_depth=_unmapped_height(node, mapping.has_after),
                only_name_or_modifier=_reference_only_names_or_modifiers(portion, blacklist),
                blacklisted=_inside_log_statement(node, parent_a, blacklist),
                after_node=node,
            ))

    order_moved = _reference_order_moves(mapping, parent_a)
    for b, a in mapping.b2a.items():
        if b.label != a.label:
            actions.append(EditAction(
                kind="update",
                subtree_depth=1,
                only_name_or_modifier=a.is_leaf and _name_or_modifier(a, blacklist),
                blacklisted=_inside_log_statement(a, parent_a, blacklist)
                or _inside_log_statement(b, parent_b, blacklist),
                before_node=b,
                after_node=a,
            ))
        cross = False
        if parent_b[b] is not None and parent_a[a] is not None:
            cross = mapping.b2a.get(parent_b[b]) is not parent_a[a]
        elif (parent_b[b] is None) != (parent_a[a] is None):
            cross = True
        if cross or (b, a) in order_moved:
            portion = list(a.walk())
            actions.append(EditAction(
                kind="move",
                subtree_depth=a.height,
                only_name_or_modifier=_reference_only_names_or_modifiers(portion, blacklist),
                blacklisted=_inside_log_statement(a, parent_a, blacklist)
                or _inside_log_statement(b, parent_b, blacklist),
                before_node=b,
                after_node=a,
            ))

    actions.sort(key=_action_sort_key)
    return actions


def _reference_order_moves(mapping, parent_a):
    moved = set()
    for pb, pa in mapping.b2a.items():
        if pb.is_leaf:
            continue
        stay_b = [c for c in pb.children
                  if mapping.has_before(c) and parent_a[mapping.b2a[c]] is pa]
        if len(stay_b) < 2:
            continue
        partners_in_b_order = [mapping.b2a[c] for c in stay_b]
        partners = set(partners_in_b_order)
        partners_in_a_order = [c for c in pa.children if c in partners]
        kept = {pair[0] for pair in reference_lcs_pairs(partners_in_b_order,
                                                        partners_in_a_order, key=id)}
        for c in stay_b:
            a = mapping.b2a[c]
            if a not in kept:
                moved.add((c, a))
    return moved


# ---------------------------------------------------------------------------
# edit-script replay
# ---------------------------------------------------------------------------

class _WorkNode:
    __slots__ = ("kind", "label", "children", "parent")

    def __init__(self, kind, label):
        self.kind = kind
        self.label = label
        self.children = []
        self.parent = None


def reference_containing_function(units, start, end):
    best = None
    for u in units:
        node = u.body
        if node.start <= start and end <= node.end and (
                best is None or node.end - node.start < best.body.end - best.body.start):
            best = u
    return best


def _copy_tree(node):
    w = _WorkNode(node.kind, node.label)
    for c in node.children:
        cw = _copy_tree(c)
        cw.parent = w
        w.children.append(cw)
    return w


def _detach(w):
    if w.parent is not None:
        w.parent.children.remove(w)
        w.parent = None


def _shape_equal(w, node):
    if w.kind != node.kind or w.label != node.label:
        return False
    if len(w.children) != len(node.children):
        return False
    return all(_shape_equal(cw, cn) for cw, cn in zip(w.children, node.children))


def apply_edit_script(before: SyntaxTree, after: SyntaxTree,
                      mapping, actions: list[EditAction]) -> bool:
    """Replay the script on a copy of the before tree; True if the result
    is isomorphic to the after tree (kinds, labels, child order)."""
    work_of_before = {}

    def build(node):
        w = _copy_tree(node)
        for wn, bn in _zip_walk(w, node):
            work_of_before[bn] = wn
        return w

    def _zip_walk(w, n):
        yield w, n
        for cw, cn in zip(w.children, n.children):
            yield from _zip_walk(cw, cn)

    root = build(before.root)
    work_of_after = {}

    for act in actions:
        if act.kind == "update":
            work_of_before[act.before_node].label = act.after_node.label

    for act in actions:
        if act.kind == "delete":
            _detach(work_of_before[act.before_node])
        elif act.kind == "move":
            _detach(work_of_before[act.before_node])

    # placements in after coordinates, parents before children
    after_parents = parent_map(after.root)
    depth_of = {}
    for n in after.root.walk():
        depth_of[n] = len(list(_ancestors(n, after_parents)))

    def slot(after_node):
        parent = after_parents[after_node]
        return parent, (parent.children.index(after_node) if parent is not None else 0)

    placements = [a for a in actions if a.kind in ("insert", "move")]
    placements.sort(key=lambda a: (depth_of[a.after_node], slot(a.after_node)[1]))

    def materialize(after_node):
        w = _WorkNode(after_node.kind, after_node.label)
        work_of_after[after_node] = w
        for c in after_node.children:
            if c in mapping.a2b:
                continue  # arrives via its own move action
            cw = materialize(c)
            cw.parent = w
            w.children.append(cw)
        return w

    def working_parent(after_parent):
        if after_parent in work_of_after:
            return work_of_after[after_parent]
        b = mapping.a2b.get(after_parent)
        return work_of_before.get(b) if b is not None else None

    incoming = {}
    for act in placements:
        if act.kind == "insert":
            w = materialize(act.after_node)
        else:
            w = work_of_before[act.before_node]
            work_of_after[act.after_node] = w
        parent, index = slot(act.after_node)
        incoming.setdefault(parent, []).append((index, w))

    for after_parent in sorted(incoming, key=lambda n: depth_of.get(n, 0)):
        parent_w = working_parent(after_parent)
        if parent_w is None:
            return False
        for idx, w in sorted(incoming[after_parent], key=lambda t: t[0]):
            pos = min(idx, len(parent_w.children))
            parent_w.children.insert(pos, w)
            w.parent = parent_w

    if after.root in mapping.a2b:
        result_root = work_of_before[mapping.a2b[after.root]]
    else:
        result_root = work_of_after.get(after.root)
        if result_root is None:
            return False
    return _shape_equal(result_root, after.root)


def reference_changed_files(commit, tree) -> list[FileChange]:
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

    _reference_fill_contents(tree.path, changes)
    return changes


def _reference_fill_contents(repo_path: str, changes: list[FileChange]):
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


def _strip_signature(qualified: str) -> str:
    idx = qualified.find("(")
    return qualified if idx < 0 else qualified[:idx]


def _simple_name(qualified: str) -> str:
    return _strip_signature(qualified).rsplit(".", 1)[-1]


def _suffix_matches(candidates, dotted: str):
    parts = dotted.split(".")
    if len(parts) == 1:
        return sorted(candidates)
    out = []
    for fid in candidates:
        qparts = _strip_signature(fid.name).split(".")
        if qparts[-len(parts):] == parts:
            out.append(fid)
    return sorted(out)


def reference_targets(graph) -> dict[str, tuple]:
    """Every file's targets, resolved from ``graph``'s functions and sites:
    the caller's own file's functions whose name ends with the callee's
    dotted path, else the project's, else an ``external:`` node."""
    simple_index: dict[str, set] = {}
    for entry in graph.files.values():
        for fid in entry.functions:
            simple_index.setdefault(_simple_name(fid.name), set()).add(fid)

    def resolve(site):
        local = [fid for fid in graph.files[site.caller.file].functions
                 if _simple_name(fid.name) == site.simple]
        matches = _suffix_matches(local, site.dotted)
        if not matches:
            matches = _suffix_matches(simple_index.get(site.simple, ()), site.dotted)
        if not matches:
            matches = [FunctionId(EXTERNAL_PREFIX + site.dotted, "")]
        return tuple(matches)

    return {path: tuple(resolve(site) for site in entry.sites)
            for path, entry in graph.files.items()}


def reference_adjacency(graph) -> Adjacency:
    """``graph.adjacency()`` from sets of ``FunctionId``s: every function
    and every target a node, every distinct (caller, target) pair an edge."""
    nodes = set()
    for entry in graph.files.values():
        nodes.update(entry.functions)
        for targets in entry.targets:
            nodes.update(targets)
    ids = sorted(nodes)
    index = {fid: i for i, fid in enumerate(ids)}
    n = len(ids)
    codes = {index[site.caller] * n + index[t]
             for entry in graph.files.values()
             for site, targets in zip(entry.sites, entry.targets)
             for t in targets}
    codes = np.sort(np.fromiter(codes, dtype=np.int64, count=len(codes)))
    numbering = graph._interner.numbers
    numbers = np.array([numbering[fid] for fid in ids], dtype=np.int64)
    return Adjacency(numbers, codes // n, codes % n, numbering)


def reference_backward_propagate(adjacency: Adjacency, rank, decay: float = 0.5) -> list[float]:
    """Every node's rank plus its component's propagated mass split equally
    among the component's members, by position; see the module doc for the
    sums."""
    import networkx as nx

    _, src, dst, _ = adjacency
    rank = [float(r) for r in rank]
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(rank)))
    graph.add_edges_from(zip(src.tolist(), dst.tolist()))
    condensed = nx.condensation(graph)
    members = {c: sorted(condensed.nodes[c]["members"]) for c in condensed}
    mass = {}
    for c in reversed(list(nx.topological_sort(condensed))):
        total = 0.0
        callees = sorted(condensed.successors(c), key=lambda d: members[d][0])
        if callees:
            for d in callees:
                total += mass[d] * decay
        else:
            for node in members[c]:
                total += rank[node]
        mass[c] = total
    scores = [0.0] * len(rank)
    for c in condensed:
        for node in members[c]:
            scores[node] = rank[node] + mass[c] / len(members[c])
    return scores


def reference_pagerank(ids, src, dst, damping: float = 0.85, tol: float = 1e-8,
                       max_iter: int = 200):
    """PageRank by ``FunctionId`` over edges given as index pairs into
    ``ids``, each edge's gathered rank divided by its caller's out-degree;
    with the iterations run and whether they converged."""
    n = len(ids)
    if n == 0:
        return {}, 0, True
    out_degree = np.bincount(src, minlength=n).astype(float)
    dangling = out_degree == 0
    src_degree = out_degree[src]

    rank = np.full(n, 1.0 / n)
    for iteration in range(1, max_iter + 1):
        contrib = np.bincount(dst, weights=rank[src] / src_degree, minlength=n)
        dangling_mass = rank[dangling].sum()
        new_rank = (1.0 - damping) / n + damping * (contrib + dangling_mass / n)
        if np.abs(new_rank - rank).sum() < tol:
            return dict(zip(ids, new_rank.tolist())), iteration, True
        rank = new_rank
    return dict(zip(ids, rank.tolist())), max_iter, False


def reference_rank_propagation(ids, src, dst, ranks: dict, decay: float = 0.5) -> dict:
    """Impact by ``FunctionId``: the pass over ``numpy`` component labels
    and a dict of ranks, as the program ran it before its ranking read and
    wrote arrays by position.  The components are ``networkx``'s, numbered
    callee first."""
    import networkx as nx

    n = len(ids)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(src.tolist(), dst.tolist()))
    condensed = nx.condensation(graph)
    number = {c: i for i, c in enumerate(reversed(list(nx.topological_sort(condensed))))}
    label = np.zeros(n, dtype=np.int64)
    for node, c in condensed.graph["mapping"].items():
        label[node] = number[c]
    count = len(number)
    first = np.zeros(count, dtype=np.int64)
    for c in condensed:
        first[number[c]] = min(condensed.nodes[c]["members"])

    rank = np.fromiter(map(ranks.get, ids, itertools.repeat(0.0)), dtype=float, count=n)
    mass = np.bincount(label, weights=rank, minlength=count).tolist()
    scaled = [m * decay for m in mass]
    caller, callee = label[src], label[dst]
    across = caller != callee
    pairs = np.array(sorted(set((caller[across] * n + first[callee[across]]).tolist())),
                     dtype=np.int64)
    for component, group in itertools.groupby(
            zip((pairs // n).tolist(), label[pairs % n].tolist()), key=lambda pair: pair[0]):
        total = 0.0
        for _, child in group:
            total += scaled[child]
        mass[component], scaled[component] = total, total * decay
    share = np.array(mass) / np.bincount(label, minlength=count)
    return dict(zip(ids, (rank + share[label]).tolist()))


def build_call_graph(files: dict[str, str | None]) -> CallGraph:
    """Full build from {path: source_text}: every file with a grammar whose
    text parses is added, then every site is resolved."""
    graph = CallGraph()
    for path, text in sorted(files.items()):
        if language_for_path(path) is None or text is None:
            continue
        tree = parse_file(path, text)
        if tree is not None:
            graph._add_file(path, call_units(tree))
    graph._reindex((), [fid for entry in graph.files.values() for fid in entry.functions])
    for path in graph.files:
        graph.resolve_file(path)
    return graph


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


def reference_units(tree) -> list[FunctionUnit]:
    """The method, constructor and lambda units of ``tree`` in source
    order, named as ``FunctionUnit`` says, each method's and constructor's
    with its call sites in pre-order."""
    units = []
    _visit_units(tree.root, [], None, {"n": 0}, {"n": 0}, None, (), units)
    units.sort(key=lambda u: u.span)
    return units


def _method_signature(node, components):
    """``name(types)`` of a method or constructor declaration; a compact
    constructor, which has no parameter list, takes the record's
    ``components``."""
    name = None
    params = components
    for child in node.children:
        if child.kind == "identifier" and name is None:
            name = child.label
        elif child.kind == "param_list":
            params = child.children
    types = []
    for p in params:
        tleaf = next((c for c in p.children if c.kind == "type"), None)
        types.append(tleaf.label if tleaf is not None else "var")
    return f"{name}({','.join(types)})"


def _visit_units(node, containers, enclosing, lambda_counter, anonymous,
                 calls, components, units):
    """Append the units under ``node`` to ``units``, and its call sites to
    ``calls``, the list of the innermost enclosing method or constructor
    (None outside every one); not a closure, which would refer to itself
    and so hold the tree in a reference cycle.  ``anonymous`` counts the
    anonymous classes of the innermost enclosing type, and ``components``
    are its record components (empty when it is no record)."""
    kind = node.kind
    if calls is not None:
        if kind == "call_expr":
            name = _callee_name(callee_segments(node.children[0]))
            if name:
                calls.append(name)
        elif kind == "new_expr":
            name = _type_simple(node.children[0].label)
            if name:
                calls.append(name)
    if kind in _TYPE_DECL_KINDS.values():
        name = next((c.label for c in node.children if c.kind == "identifier"), "?")
        containers = containers + [name]
        anonymous = {"n": 0}
        components = next((c.children for c in node.children
                           if c.kind == "record_components"), ())
        for child in node.children:
            _visit_units(child, containers, None, lambda_counter, anonymous, calls,
                         components, units)
        return
    if kind == "new_expr" and node.children[-1].kind == "class_body":
        # arguments first: javac numbers a class in them before this one
        for child in node.children[:-1]:
            _visit_units(child, containers, enclosing, lambda_counter, anonymous,
                         calls, components, units)
        anonymous["n"] += 1
        containers = containers[:-1] + [f"{containers[-1]}${anonymous['n']}"]
        _visit_units(node.children[-1], containers, None, lambda_counter,
                     {"n": 0}, calls, (), units)
        return
    if kind in ("method_decl", "constructor_decl"):
        qname = ".".join(containers + [_method_signature(node, components)])
        unit = FunctionUnit(qname, node)
        units.append(unit)
        counter = {"n": 0}
        for child in node.children:
            _visit_units(child, containers, qname, counter, anonymous, unit.calls,
                         components, units)
        return
    if kind == "lambda_expr" and enclosing is not None:
        qname = f"{enclosing}$lambda{lambda_counter['n']}"
        lambda_counter["n"] += 1
        units.append(FunctionUnit(qname, node))
        for child in node.children:
            _visit_units(child, containers, qname, lambda_counter, anonymous, calls,
                         components, units)
        return
    for child in node.children:
        _visit_units(child, containers, enclosing, lambda_counter, anonymous, calls,
                     components, units)


def reference_call_sites(path: str, units) -> tuple[CallSite, ...]:
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


# ---------------------------------------------------------------------------
# dependence graph
# ---------------------------------------------------------------------------

def reference_reaching_defs(builder) -> set[tuple[int, int]]:
    """Def-use edges of a PDG builder's nodes and CFG: reaching definitions
    as a gen/kill fixpoint over in/out sets, then an edge from each
    definition that reaches a use of its variable, self-loops dropped."""
    nodes = builder.nodes
    preds = {n.id: set() for n in nodes}
    for a, b in builder.cfg_edges:
        preds[b].add(a)

    gen = {n.id: {(n.id, v) for v in n.defs} for n in nodes}
    defs_of_var: dict[str, set] = {}
    for n in nodes:
        for v in n.defs:
            defs_of_var.setdefault(v, set()).add((n.id, v))

    in_sets = {n.id: set() for n in nodes}
    out_sets = {n.id: set(gen[n.id]) for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            new_in = set()
            for p in preds[n.id]:
                new_in |= out_sets[p]
            kill = set()
            for v in n.defs:
                kill |= defs_of_var.get(v, set())
            new_out = gen[n.id] | (new_in - kill)
            if new_in != in_sets[n.id] or new_out != out_sets[n.id]:
                in_sets[n.id] = new_in
                out_sets[n.id] = new_out
                changed = True

    edges = set()
    for n in nodes:
        for v in n.uses:
            for d, var in in_sets[n.id]:
                if var == v and d != n.id:
                    edges.add((d, n.id))
    return edges


def reference_fit_boxcox(samples, lambda_min: float = -5.0, lambda_max: float = 5.0,
                         step: float = 0.01, min_samples: int = 30) -> BoxCoxParams:
    xs = np.asarray(list(samples), dtype=float)
    n = len(xs)
    if n == 0 or np.ptp(xs) == 0.0:
        return BoxCoxParams(degenerate=True, n=n)
    shift = 1.0 - xs.min() if xs.min() <= 0 else 0.0
    ys = xs + shift

    if n < min_samples:
        lam = 1.0
    else:
        log_sum = np.log(ys).sum()
        best_lam, best_key = None, None
        with np.errstate(all="ignore"):
            for lam_i in _lambda_grid(lambda_min, lambda_max, step):
                var = _boxcox(ys, lam_i).var()
                if not np.isfinite(var) or var <= 0:
                    continue
                llf = -0.5 * n * math.log(var) + (lam_i - 1.0) * log_sum
                key = (llf, -abs(lam_i - 1.0))
                if best_key is None or key > best_key:
                    best_key, best_lam = key, lam_i
        lam = best_lam if best_lam is not None else 1.0

    ts = _boxcox(ys, lam)
    mean_t = float(ts.mean())
    std_t = float(ts.std())
    if std_t == 0.0 or not np.isfinite(std_t):
        return BoxCoxParams(degenerate=True, n=n)
    return BoxCoxParams(lam=lam, shift=shift, mean_t=mean_t, std_t=std_t, n=n)
