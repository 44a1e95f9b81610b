"""Per-function program dependence graphs and the intra-function impact range.

Nodes are statement-level: one node per simple statement, plus one header
node per control construct (its condition/selector part only, so edits in
a nested body do not touch the header's span).  Data-dependence edges come
from reaching definitions over a small intra-function CFG -- loop back
edges are wired, so definitions inside a loop body reach the whole body.
Control-dependence edges link each construct header to the statements
directly nested in its branches.

The impact of a change set is measured as reach ratios: the fraction of
nodes on forward/backward data-flow traces from the changed nodes, and the
fraction of nodes controlled by changed headers that guard more than one
statement.  Both ratios are fractions in [0, 1]; the fused impact range is
``1 + sqrt(ddg) + sqrt(cdg)``, which stays within [1, 3].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .syntax import FunctionUnit, SyntaxNode


@dataclass
class PDGNode:
    id: int
    kind: str
    span: tuple[int, int]
    defs: set[str] = field(default_factory=set)
    uses: set[str] = field(default_factory=set)


@dataclass
class FunctionPDG:
    nodes: list[PDGNode] = field(default_factory=list)
    ddg_edges: set[tuple[int, int]] = field(default_factory=set)
    cdg_edges: set[tuple[int, int]] = field(default_factory=set)

    def node_ids(self):
        return [n.id for n in self.nodes]

    def ddg_successors(self):
        succ = {n.id: set() for n in self.nodes}
        for a, b in self.ddg_edges:
            succ[a].add(b)
        return succ

    def ddg_predecessors(self):
        pred = {n.id: set() for n in self.nodes}
        for a, b in self.ddg_edges:
            pred[b].add(a)
        return pred

    def cdg_successors(self):
        succ = {n.id: set() for n in self.nodes}
        for a, b in self.cdg_edges:
            succ[a].add(b)
        return succ


# ---------------------------------------------------------------------------
# def/use extraction
# ---------------------------------------------------------------------------

def _root_identifier(node: SyntaxNode):
    while node.kind in ("field_access", "array_access", "paren_expr"):
        node = node.children[0]
    return node.label if node.kind == "identifier" else None


def _collect_uses(node: SyntaxNode, uses: set, defs: set):
    kind = node.kind
    if kind == "identifier":
        uses.add(node.label)
        return
    if kind == "assign_expr":
        lhs, rhs = node.children
        root = _root_identifier(lhs)
        if root is not None:
            defs.add(root)
            if node.label != "=" or lhs.kind != "identifier":
                uses.add(root)
        # index expressions on the lhs are reads
        if lhs.kind in ("array_access", "field_access"):
            for child in lhs.children[1:]:
                _collect_uses(child, uses, defs)
        _collect_uses(rhs, uses, defs)
        return
    if kind in ("unary_expr", "postfix_expr") and node.label in ("++", "--"):
        root = _root_identifier(node.children[0])
        if root is not None:
            defs.add(root)
            uses.add(root)
        return
    if kind == "call_expr":
        callee = node.children[0]
        if callee.kind == "field_access":
            _collect_uses(callee.children[0], uses, defs)
        for arg in node.children[1:]:
            _collect_uses(arg, uses, defs)
        return
    if kind == "field_access":
        _collect_uses(node.children[0], uses, defs)
        return
    if kind in ("type", "modifier", "annotation", "literal"):
        return
    for child in node.children:
        _collect_uses(child, uses, defs)


def _decl_defs_uses(decl: SyntaxNode):
    defs, uses = set(), set()
    for child in decl.children:
        if child.kind == "var_declarator":
            name = child.children[0]
            defs.add(name.label)
            for init in child.children[1:]:
                _collect_uses(init, uses, defs)
    return defs, uses


# ---------------------------------------------------------------------------
# CFG + PDG construction
# ---------------------------------------------------------------------------

_SIMPLE_STMTS = {
    "local_var_decl", "expr_stmt", "return_stmt", "throw_stmt",
    "assert_stmt", "break_stmt", "continue_stmt",
}

_BODY_LAST = {"if_stmt", "while_stmt", "foreach_stmt", "for_stmt",
              "synchronized_stmt"}


class _Builder:
    def __init__(self):
        self.nodes: list[PDGNode] = []
        self.cfg_edges: set[tuple[int, int]] = set()
        self.cdg_edges: set[tuple[int, int]] = set()

    def new_node(self, kind, span, defs=None, uses=None):
        node = PDGNode(len(self.nodes), kind, span,
                       defs or set(), uses or set())
        self.nodes.append(node)
        return node.id

    def wire(self, sources, targets):
        for s in sources:
            for t in targets:
                self.cfg_edges.add((s, t))

    def build_seq(self, stmts, ctx):
        """Returns (entries, exits, direct_nodes)."""
        entries, direct = [], []
        current = None  # None means "nothing yet", list = open exits
        for stmt in stmts:
            e, x, primary = self.build_stmt(stmt, ctx)
            if not e:
                continue
            if current is None:
                entries = e
            else:
                self.wire(current, e)
            current = x
            direct.extend(primary)
        return entries, (current if current is not None else []), direct

    def build_stmt(self, stmt, ctx):
        kind = stmt.kind
        if kind == "block":
            return self.build_seq(stmt.children, ctx)
        if kind == "empty_stmt" or kind == "empty_decl":
            return [], [], []
        if kind in _SIMPLE_STMTS:
            defs, uses = set(), set()
            if kind == "local_var_decl":
                defs, uses = _decl_defs_uses(stmt)
            else:
                for child in stmt.children:
                    _collect_uses(child, uses, defs)
            nid = self.new_node(kind, stmt.span, defs, uses)
            if kind in ("return_stmt", "throw_stmt"):
                return [nid], [], [nid]
            if kind == "break_stmt":
                ctx.setdefault("breaks", []).append(nid)
                return [nid], [], [nid]
            if kind == "continue_stmt":
                target = ctx.get("continue_target")
                if target is not None:
                    self.wire([nid], [target])
                return [nid], [], [nid]
            return [nid], [nid], [nid]
        if kind == "if_stmt":
            cond = stmt.children[0]
            uses, defs = set(), set()
            _collect_uses(cond, uses, defs)
            hid = self.new_node(kind, (stmt.start, cond.end), defs, uses)
            exits = []
            te, tx, tdirect = self.build_stmt(stmt.children[1], ctx)
            if te:
                self.wire([hid], te)
                exits.extend(tx)
            else:
                exits.append(hid)
            if len(stmt.children) > 2:
                ee, ex, edirect = self.build_stmt(stmt.children[2], ctx)
                if ee:
                    self.wire([hid], ee)
                    exits.extend(ex)
                else:
                    exits.append(hid)
                tdirect = tdirect + edirect
            else:
                exits.append(hid)
            for d in tdirect:
                self.cdg_edges.add((hid, d))
            return [hid], exits, [hid]
        if kind in ("while_stmt", "foreach_stmt", "for_stmt", "do_stmt"):
            return self.build_loop(stmt, ctx)
        if kind == "switch_stmt":
            return self.build_switch(stmt, ctx)
        if kind == "try_stmt":
            return self.build_try(stmt, ctx)
        if kind == "synchronized_stmt":
            expr, body = stmt.children
            uses, defs = set(), set()
            _collect_uses(expr, uses, defs)
            hid = self.new_node(kind, (stmt.start, expr.end), defs, uses)
            be, bx, bdirect = self.build_stmt(body, ctx)
            if be:
                self.wire([hid], be)
            return [hid], (bx if be else [hid]), [hid]
        # unknown statement form: opaque node
        nid = self.new_node(kind, stmt.span)
        return [nid], [nid], [nid]

    def build_loop(self, stmt, ctx):
        kind = stmt.kind
        body = stmt.children[-1] if kind != "do_stmt" else stmt.children[0]
        header_children = [c for c in stmt.children if c is not body]
        defs, uses = set(), set()
        for child in header_children:
            if child.kind == "local_var_decl":
                d, u = _decl_defs_uses(child)
                defs |= d
                uses |= u
            elif child.kind == "identifier" and kind == "foreach_stmt":
                defs.add(child.label)
            else:
                _collect_uses(child, uses, defs)
        if kind == "do_stmt":
            cond = stmt.children[1]
            span = (cond.start, cond.end)
        else:
            end = header_children[-1].end if header_children else stmt.start
            span = (stmt.start, end)
        hid = self.new_node(kind, span, defs, uses)
        inner = {"continue_target": hid, "breaks": []}
        be, bx, bdirect = self.build_stmt(body, inner)
        if kind == "do_stmt":
            entries = be if be else [hid]
            if be:
                self.wire(bx, [hid])
                self.wire([hid], be)
            exits = [hid] + inner["breaks"]
        else:
            entries = [hid]
            if be:
                self.wire([hid], be)
                self.wire(bx, [hid])
            exits = [hid] + inner["breaks"]
        for d in bdirect:
            self.cdg_edges.add((hid, d))
        return entries, exits, [hid]

    def build_switch(self, stmt, ctx):
        selector = stmt.children[0]
        uses, defs = set(), set()
        _collect_uses(selector, uses, defs)
        hid = self.new_node("switch_stmt", (stmt.start, selector.end), defs, uses)
        inner = {"breaks": []}
        inner["continue_target"] = ctx.get("continue_target")
        exits = [hid]
        prev_exits = []
        direct_all = []
        for group in stmt.children[1:]:
            stmts = [c for c in group.children
                     if c.kind not in ("case_label", "default_label")]
            ge, gx, gdirect = self.build_seq(stmts, inner)
            if group.kind == "switch_rule":  # a rule never falls through
                exits.extend(prev_exits)
                prev_exits = []
            if ge:
                self.wire([hid], ge)
                if prev_exits:
                    self.wire(prev_exits, ge)  # fall-through
                prev_exits = gx
                direct_all.extend(gdirect)
        exits.extend(prev_exits)
        exits.extend(inner["breaks"])
        for d in direct_all:
            self.cdg_edges.add((hid, d))
        return [hid], exits, [hid]

    def build_try(self, stmt, ctx):
        children = list(stmt.children)
        resources = [c for c in children if c.kind == "resource_spec"]
        body = next(c for c in children if c.kind == "block")
        catches = [c for c in children if c.kind == "catch_clause"]
        finallies = [c for c in children if c.kind == "finally_clause"]

        entries, exits = [], []
        pre = []
        for spec in resources:
            for res in spec.children:
                defs, uses = set(), set()
                name = next((c for c in res.children if c.kind == "identifier"), None)
                if name is not None:
                    defs.add(name.label)
                for c in res.children:
                    if c.kind not in ("identifier", "type", "modifier", "annotation"):
                        _collect_uses(c, uses, defs)
                pre.append(self.new_node("resource", res.span, defs, uses))
        first_body_node = len(self.nodes)
        be, bx, bdirect = self.build_seq(body.children, ctx)
        body_nodes = list(range(first_body_node, len(self.nodes)))
        if pre:
            entries = [pre[0]]
            for a, b in zip(pre, pre[1:]):
                self.wire([a], [b])
            if be:
                self.wire([pre[-1]], be)
                exits = bx
            else:
                exits = [pre[-1]]
        else:
            entries, exits = be, bx

        catch_exits = []
        for clause in catches:
            name = next((c for c in clause.children if c.kind == "identifier"), None)
            cblock = next(c for c in clause.children if c.kind == "block")
            hid = self.new_node("catch_clause", (clause.start, cblock.start),
                                {name.label} if name is not None else set(), set())
            self.wire(body_nodes, [hid])  # any body statement may raise
            if not body_nodes and entries:
                self.wire(entries, [hid])
            ce, cx, cdirect = self.build_seq(cblock.children, ctx)
            if ce:
                self.wire([hid], ce)
                catch_exits.extend(cx)
            else:
                catch_exits.append(hid)
            for d in cdirect:
                self.cdg_edges.add((hid, d))
            if not entries:
                entries = [hid]

        all_exits = exits + catch_exits
        for clause in finallies:
            fe, fx, fdirect = self.build_seq(clause.children[0].children, ctx)
            if fe:
                self.wire(all_exits, fe)
                all_exits = fx
        return (entries if entries else [], all_exits, [])


def build_pdg(function: FunctionUnit) -> FunctionPDG:
    """Statement-level PDG of one function body."""
    body = None
    if function.body.kind in ("method_decl", "constructor_decl"):
        body = next((c for c in function.body.children if c.kind == "block"), None)
    elif function.body.kind == "lambda_expr":
        body = function.body.children[1]
    builder = _Builder()
    if body is not None:
        if body.kind == "block":
            builder.build_seq(body.children, {})
        else:  # expression-bodied lambda
            uses, defs = set(), set()
            _collect_uses(body, uses, defs)
            builder.new_node("expr_stmt", body.span, defs, uses)
    pdg = FunctionPDG(nodes=builder.nodes, cdg_edges=builder.cdg_edges)
    pdg.ddg_edges = _reaching_def_use_edges(builder)
    return pdg


def _reaching_def_use_edges(builder: _Builder) -> set[tuple[int, int]]:
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


# ---------------------------------------------------------------------------
# change marking and impact ratios
# ---------------------------------------------------------------------------

def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def changed_pdg_nodes(pdg_before: FunctionPDG | None, pdg_after: FunctionPDG,
                      changeset) -> set[int]:
    """Ids of after-PDG nodes touched by the changeset's edit actions.

    Insert/update/move targets mark overlapping after statements directly;
    deletions are mapped to the nearest surviving statement by position, so
    a pure deletion still yields a non-empty changed set.
    """
    changed: set[int] = set()
    after_nodes = sorted(pdg_after.nodes, key=lambda n: n.span)
    if not after_nodes:
        return changed

    after_spans = []
    delete_spans = []
    for act in changeset.actions:
        if act.kind in ("insert", "update"):
            after_spans.append((act.after_node.start, act.after_node.end))
        elif act.kind == "move":
            if act.after_node is not None:
                after_spans.append((act.after_node.start, act.after_node.end))
            if act.before_node is not None:
                delete_spans.append((act.before_node.start, act.before_node.end))
        elif act.kind == "delete":
            delete_spans.append((act.before_node.start, act.before_node.end))

    for n in after_nodes:
        if any(_overlaps(n.span, s) for s in after_spans):
            changed.add(n.id)

    if delete_spans and pdg_before is not None:
        before_nodes = sorted(pdg_before.nodes, key=lambda n: n.span)
        survivors = [n for n in before_nodes
                     if not any(_overlaps(n.span, s) for s in delete_spans)]
        for n in before_nodes:
            if any(_overlaps(n.span, s) for s in delete_spans):
                rank = sum(1 for s in survivors if s.span[0] < n.span[0])
                idx = min(rank, len(after_nodes) - 1)
                changed.add(after_nodes[idx].id)
    return changed


def ddg_impact(pdg: FunctionPDG, changed: set[int]) -> float:
    """|forward + backward data-flow reach + changed| / |nodes|."""
    if not pdg.nodes or not changed:
        return 0.0
    succ = pdg.ddg_successors()
    pred = pdg.ddg_predecessors()
    reached = set(changed)
    for adjacency in (succ, pred):
        frontier = list(changed)
        seen = set(changed)
        while frontier:
            node = frontier.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        reached |= seen
    return len(reached) / len(pdg.nodes)


def cdg_impact(pdg: FunctionPDG, changed: set[int]) -> float:
    """Reach ratio of changed conditional headers (more than one controlled
    statement), the header itself included; 0 when no changed node qualifies."""
    if not pdg.nodes or not changed:
        return 0.0
    succ = pdg.cdg_successors()
    collected: set[int] = set()
    for node in changed:
        if len(succ.get(node, ())) > 1:
            frontier = [node]
            seen = {node}
            while frontier:
                cur = frontier.pop()
                for nxt in succ.get(cur, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            collected |= seen
    if not collected:
        return 0.0
    return len(collected) / len(pdg.nodes)


def impact_range(ddg: float, cdg: float) -> float:
    """Fused intra-function impact, always within [1, 3]."""
    return 1.0 + math.sqrt(ddg) + math.sqrt(cdg)
