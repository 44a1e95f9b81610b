"""Reference implementations the tests check the program against.

* ``reference_tokenize`` is the per-character lexer that the compiled
  ``devcontrib.syntax.tokenize`` replaced; the two must give the same
  tokens, comments and errors on any text.
* ``reference_map_trees`` is ``devcontrib.astdiff.map_trees`` with the
  bottom-up pass as first written, which walks every descendant's ancestor
  chain; the faster pass must map exactly the same nodes.
* ``apply_edit_script`` replays an edit script on a copy of the before
  tree, to check that the script really turns it into the after tree.
"""

from devcontrib.astdiff import EditAction, NodeMapping, _recover, _top_down
from devcontrib.errors import ParseError
from devcontrib.syntax import _KEYWORDS, _OPERATORS, Comment, SyntaxTree, _Token

_PUNCT = set("(){}[];,.@")


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

def reference_map_trees(before: SyntaxTree, after: SyntaxTree,
                        similarity_threshold: float = 0.5,
                        min_height: int = 2) -> NodeMapping:
    mapping = NodeMapping()
    _top_down(before.root, after.root, mapping, min_height)
    _reference_bottom_up(before.root, after.root, mapping, similarity_threshold)
    _recover(mapping)
    return mapping


def _reference_bottom_up(before_root, after_root, mapping, threshold):
    """The bottom-up pass as first written: it counts descendants and common
    mapped descendants by walking subtrees and ancestor chains."""
    desc_count = {}
    for root in (before_root, after_root):
        for node in root.walk():
            desc_count[node] = sum(1 for _ in node.descendants())

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
        for d in b.descendants():
            partner = mapping.b2a.get(d)
            if partner is None:
                continue
            for anc in partner.ancestors():
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
                      mapping: NodeMapping, actions: list[EditAction]) -> bool:
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
    depth_of = {}
    for i, n in enumerate(after.root.walk()):
        depth_of[n] = len(list(n.ancestors()))
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

