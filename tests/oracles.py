"""Reference implementations the tests check the program against.

* ``reference_tokenize`` is the per-character lexer that the compiled
  ``devcontrib.syntax.tokenize`` replaced; the two must give the same
  tokens, comments and errors on any text.
* ``reference_map_trees`` and ``reference_edit_script`` are the differ as
  it was before its passes learned to skip isomorphic subtrees: the passes
  walk every mapped pair and both whole trees, and the bottom-up pass is
  the first one written, which walks every descendant's ancestor chain.
  Trees hold no parent links, so these functions take them from
  ``parent_map``, built over the whole tree.  The program must map the
  same nodes and give the same actions in the same order.  Only the
  per-node classification helpers are shared.
* ``reference_lcs_pairs`` is the alignment table that computed every key
  twice per cell; ``devcontrib.astdiff._lcs_pairs`` must give its pairs.
* ``apply_edit_script`` replays an edit script on a copy of the before
  tree, to check that the script really turns it into the after tree.
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
* ``build_call_graph`` builds a snapshot's call graph from scratch, every
  file parsed and resolved at once: a ``CallGraph`` kept up to date by
  ``update`` must equal it.
* ``reference_call_sites`` is call-site collection as it was before the
  walk that finds a tree's function units collected the sites: a second
  walk over each method's and constructor's declaration.  It shares only
  ``callee_segments`` with the program.  A file entry's ``sites`` must
  equal it.
"""

import itertools

import numpy as np

from devcontrib.astdiff import (
    EditAction,
    _action_sort_key,
    _child_index,
    _inside_log_statement,
    _only_names_or_modifiers,
)
from devcontrib.callgraph import EXTERNAL_PREFIX, Adjacency, CallGraph, CallSite, FunctionId
from devcontrib.config import DEFAULT_BLACKLIST
from devcontrib.errors import CorruptHistory, MissingBlob, ParseError
from devcontrib.repo import _NULL_SHA, _STATUS_KIND, FileChange, _git
from devcontrib.syntax import (
    NodeCategory,
    callee_segments,
    classify_node,
    language_for_path,
    parse_file,
)
from devcontrib.syntax import _KEYWORDS, _OPERATORS, Comment, SyntaxTree, _Token

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
            comments.append(Comment(i, j, text[i:j]))
            i = j
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise ParseError("unterminated block comment", position=i)
            comments.append(Comment(i, j + 2, text[i:j + 2]))
            i = j + 2
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            word = text[i:j]
            if word in ("true", "false", "null"):
                tokens.append(_Token("literal_word", word, i, j))
            elif word in _KEYWORDS:
                tokens.append(_Token("keyword", word, i, j))
            else:
                tokens.append(_Token("ident", word, i, j))
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
            tokens.append(_Token("float" if is_float else "int", text[i:j], i, j))
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
            tokens.append(_Token("string", text[i:j + 1], i, j + 1))
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
            tokens.append(_Token("char", text[i:j + 1], i, j + 1))
            i = j + 1
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(_Token("op", op, i, i + len(op)))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, i, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(_Token("eof", "", n, n))
    return tokens, comments


# ---------------------------------------------------------------------------
# node mapping
# ---------------------------------------------------------------------------

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
    _reference_top_down(before.root, after.root, mapping, min_height)
    _reference_bottom_up(before.root, after.root, mapping, similarity_threshold)
    _reference_recover(mapping)
    return mapping


def _reference_top_down(before_root, after_root, mapping, min_height):
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
        by_hash = {}
        for a in level_a:
            by_hash.setdefault(a.struct_hash, []).append(a)
        matched_b, matched_a = set(), set()
        for b in level_b:
            candidates = by_hash.get(b.struct_hash, [])
            for a in candidates:
                if a in matched_a:
                    continue
                if b.isomorphic_to(a):
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


def _reference_recover(mapping):
    work = list(mapping.b2a.items())
    while work:
        b, a = work.pop()
        ub = [c for c in b.children if not mapping.has_before(c)]
        ua = [c for c in a.children if not mapping.has_after(c)]
        if not ub or not ua:
            continue
        for key, whole_subtree in (
            (lambda n: (n.kind, n.label, n.struct_hash), True),
            (lambda n: (n.kind, n.label), False),
            (lambda n: n.kind, False),
        ):
            pairs = reference_lcs_pairs(ub, ua, key)
            for pb, pa in pairs:
                if whole_subtree and pb.isomorphic_to(pa):
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
                only_name_or_modifier=_only_names_or_modifiers(portion, blacklist),
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
                only_name_or_modifier=_only_names_or_modifiers(portion, blacklist),
                blacklisted=_inside_log_statement(node, parent_a, blacklist),
                after_node=node,
                dst_parent=parent_a[node],
                dst_index=_child_index(node, parent_a),
            ))

    order_moved = _reference_order_moves(mapping, parent_a)
    for b, a in mapping.b2a.items():
        if b.label != a.label:
            cls = classify_node(a, blacklist)
            actions.append(EditAction(
                kind="update",
                subtree_depth=1,
                only_name_or_modifier=a.is_leaf and cls in (
                    NodeCategory.NAME_BEARING, NodeCategory.MODIFIER),
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
                only_name_or_modifier=_only_names_or_modifiers(portion, blacklist),
                blacklisted=_inside_log_statement(a, parent_a, blacklist)
                or _inside_log_statement(b, parent_b, blacklist),
                before_node=b,
                after_node=a,
                dst_parent=parent_a[a],
                dst_index=_child_index(a, parent_a),
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
    placements = [a for a in actions if a.kind in ("insert", "move")]
    placements.sort(key=lambda a: (depth_of[a.after_node], a.dst_index))

    def materialize(after_node):
        w = _WorkNode(after_node.kind, after_node.label)
        work_of_after[after_node] = w
        for c in after_node.children:
            if mapping.has_after(c):
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
        incoming.setdefault(act.dst_parent, []).append((act.dst_index, w))

    for after_parent in sorted(incoming, key=lambda n: depth_of.get(n, 0)):
        parent_w = working_parent(after_parent)
        if parent_w is None:
            return False
        for idx, w in sorted(incoming[after_parent], key=lambda t: t[0]):
            pos = min(idx, len(parent_w.children))
            parent_w.children.insert(pos, w)
            w.parent = parent_w

    if mapping.has_after(after.root):
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
    return Adjacency(ids, codes // n, codes % n)


def build_call_graph(files: dict[str, str | None]) -> CallGraph:
    """Full build from {path: source_text}: every file with a grammar whose
    text parses is added, then every site is resolved."""
    graph = CallGraph()
    for path, text in sorted(files.items()):
        if language_for_path(path) is None or text is None:
            continue
        tree = parse_file(path, text)
        if tree is not None:
            graph._add_file(path, None, tree)
    graph._reindex((), [fid for entry in graph.files.values() for fid in entry.functions])
    for path in graph.files:
        graph.resolve_file(path)
    graph.version += 1
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
