from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devcontrib import pdg as pdg_module
from devcontrib.astdiff import diff_file_pair
from devcontrib.pdg import (
    FunctionPDG,
    PDGNode,
    build_pdg,
    cdg_impact,
    changed_pdg_nodes,
    ddg_impact,
    impact_range,
)
from devcontrib.syntax import parse_source
from oracles import reference_reaching_defs

IDIOMS = Path(__file__).resolve().parent / "fixtures" / "Idioms.java"


def _pdg(src, index=0):
    tree = parse_source(src, "java")
    return build_pdg(tree.functions[index])


def test_single_def_use_edge():
    pdg = _pdg("class C { void m() { int a = 1; int b = a; } }")
    assert (0, 1) in pdg.ddg_edges


def test_if_body_control_dependent_on_predicate():
    pdg = _pdg("class C { void m(int p) { if (p > 0) { a(); b(); } } }")
    assert (0, 1) in pdg.cdg_edges and (0, 2) in pdg.cdg_edges


SEVEN_PAIRS = """
    class C {
        int m(int p) {
            int a = 1;
            int b = a;
            int c = a + b;
            int d = c;
            c = d + b;
            return c;
        }
    }
    """


def test_fixture_with_seven_known_def_use_pairs():
    pdg = _pdg(SEVEN_PAIRS)
    # hand-enumerated def-use pairs:
    # a@0 -> b@1, a@0 -> c@2, b@1 -> c@2, c@2 -> d@3,
    # d@3 -> c@4, b@1 -> c@4, c@4 -> return@5
    expected = {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4), (4, 5)}
    assert pdg.ddg_edges == expected


LOOP_WITH_BREAK = """
    class C {
        int m(int p) {
            int acc = 0;
            for (int i = 0; i < p; i++) {
                acc = acc + i;
                if (acc > 10) {
                    break;
                }
            }
            return acc;
        }
    }
    """


def test_every_edge_endpoint_is_a_node():
    pdg = _pdg(LOOP_WITH_BREAK)
    ids = {n.id for n in pdg.nodes}
    assert len(ids) >= 1
    for a, b in pdg.ddg_edges | pdg.cdg_edges:
        assert a in ids and b in ids


def test_ddg_impact_boundaries():
    pdg = _pdg("class C { void m() { int a = 1; int b = a; int c = b; } }")
    assert ddg_impact(pdg, set()) == 0.0
    assert ddg_impact(pdg, {n.id for n in pdg.nodes}) == 1.0


def test_five_node_chain_middle_change_reaches_all():
    src = """
    class C { void m() {
        int a = 1;
        int b = a;
        int c = b;
        int d = c;
        int e = d;
    } }
    """
    pdg = _pdg(src)
    assert len(pdg.nodes) == 5
    assert ddg_impact(pdg, {2}) == 1.0


def test_cdg_impact_straight_line_zero():
    pdg = _pdg("class C { void m() { int a = 1; int b = a; } }")
    assert cdg_impact(pdg, {0}) == 0.0


def test_cdg_impact_predicate_controlling_four_of_ten():
    # 10 nodes total; the if-header controls 3 statements, so the affected
    # set is the header plus its 3 dependents: 4 of 10.
    src = """
    class C { void m(int p) {
        int a = 1;
        int b = 2;
        int c = 3;
        if (p > 0) {
            x();
            y();
            z();
        }
        int d = 4;
        int e = 5;
        int f = 6;
    } }
    """
    pdg = _pdg(src)
    assert len(pdg.nodes) == 10
    header = next(n.id for n in pdg.nodes if n.kind == "if_stmt")
    assert cdg_impact(pdg, {header}) == pytest.approx(0.4)


def test_cdg_impact_predicate_controlling_everything():
    src = """
    class C { void m(int p) {
        if (p > 0) {
            x();
            y();
            z();
        }
    } }
    """
    pdg = _pdg(src)
    header = next(n.id for n in pdg.nodes if n.kind == "if_stmt")
    assert cdg_impact(pdg, {header}) == 1.0


def test_cdg_single_statement_branch_does_not_qualify():
    pdg = _pdg("class C { void m(int p) { if (p > 0) { x(); } } }")
    header = next(n.id for n in pdg.nodes if n.kind == "if_stmt")
    assert cdg_impact(pdg, {header}) == 0.0


def test_impact_range_examples():
    assert impact_range(0.0, 0.0) == 1.0
    assert impact_range(1.0, 1.0) == 3.0
    assert impact_range(0.25, 0.0) == 1.5


def test_impacts_monotone_in_changed_set():
    rng = np.random.RandomState(21)
    pdg = _random_pdg(rng, 14)
    ids = [n.id for n in pdg.nodes]
    changed = set()
    last_d, last_c = 0.0, 0.0
    for nid in rng.permutation(ids):
        changed.add(int(nid))
        d = ddg_impact(pdg, changed)
        c = cdg_impact(pdg, changed)
        assert d >= last_d - 1e-15
        assert c >= last_c - 1e-15
        last_d, last_c = d, c


def _random_pdg(rng, max_nodes=20):
    n = int(rng.randint(1, max_nodes + 1))
    nodes = [PDGNode(i, "stmt", (i * 10, i * 10 + 5)) for i in range(n)]
    ddg = {(int(rng.randint(n)), int(rng.randint(n)))
           for _ in range(int(rng.randint(0, 3 * n)))}
    cdg = {(int(rng.randint(n)), int(rng.randint(n)))
           for _ in range(int(rng.randint(0, 2 * n)))}
    ddg = {(a, b) for a, b in ddg if a != b}
    cdg = {(a, b) for a, b in cdg if a != b}
    return FunctionPDG(nodes=nodes, ddg_edges=ddg, cdg_edges=cdg)


def _bfs(adjacency, starts):
    seen = set(starts)
    frontier = list(starts)
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_reachability_matches_bfs_oracle():
    rng = np.random.RandomState(33)
    for _ in range(200):
        pdg = _random_pdg(rng)
        ids = [n.id for n in pdg.nodes]
        k = int(rng.randint(0, len(ids) + 1))
        changed = set(int(x) for x in rng.choice(ids, size=k, replace=False)) if k else set()

        fwd = {a: set() for a in ids}
        bwd = {a: set() for a in ids}
        for a, b in pdg.ddg_edges:
            fwd[a].add(b)
            bwd[b].add(a)
        expected_ddg = (len(_bfs(fwd, changed) | _bfs(bwd, changed)) / len(ids)
                        if changed else 0.0)
        assert ddg_impact(pdg, changed) == pytest.approx(expected_ddg)

        csucc = {a: set() for a in ids}
        for a, b in pdg.cdg_edges:
            csucc[a].add(b)
        qualifying = {c for c in changed if len(csucc[c]) > 1}
        expected_set = _bfs(csucc, qualifying) if qualifying else set()
        expected_cdg = len(expected_set) / len(ids) if expected_set else 0.0
        assert cdg_impact(pdg, changed) == pytest.approx(expected_cdg)


def test_deleted_statement_maps_to_next_survivor():
    before_src = """
    class C { void m() {
        one();
        two();
        three();
    } }
    """
    after_src = before_src.replace("        two();\n", "")
    before = parse_source(before_src, "java")
    after = parse_source(after_src, "java")
    _, _, changesets = diff_file_pair(before, after)
    cs = next(c for c in changesets if c.function == "C.m()")
    unit_before = before.functions[0]
    pdg_after = build_pdg(after.functions[0])
    changed = changed_pdg_nodes(unit_before, pdg_after, cs)
    after_nodes = sorted(pdg_after.nodes, key=lambda n: n.span)
    three = next(n.id for n in after_nodes
                 if "three" in after.source_text[n.span[0]:n.span[1]])
    assert changed == {three}


def test_several_deletions_in_one_body_map_each_to_its_next_survivor():
    before_src = "class C { void m() { " + " ".join(f"s{i}();" for i in range(10)) + " } }"
    after_src = before_src
    for gone in (1, 2, 5, 9):
        after_src = after_src.replace(f" s{gone}();", "")
    before = parse_source(before_src, "java")
    after = parse_source(after_src, "java")
    _, _, [cs] = diff_file_pair(before, after)
    assert [a.kind for a in cs.actions] == ["delete"] * 4
    pdg_after = build_pdg(after.functions[0])
    changed = changed_pdg_nodes(before.functions[0], pdg_after, cs)
    # s1 and s2 go to s3 and s5 to s6; s9 has no survivor after it and
    # goes to the last statement, s8
    named = {after.source_text[n.span[0]:n.span[1]]: n.id for n in pdg_after.nodes}
    assert changed == {named["s3();"], named["s6();"], named["s8();"]}


def test_new_function_changed_set_covers_inserted_statement():
    before_src = "class C { void m() { one(); } }"
    after_src = "class C { void m() { one(); extra(); } }"
    before = parse_source(before_src, "java")
    after = parse_source(after_src, "java")
    _, _, changesets = diff_file_pair(before, after)
    cs = changesets[0]
    unit_before = before.functions[0]
    pdg_after = build_pdg(after.functions[0])
    changed = changed_pdg_nodes(unit_before, pdg_after, cs)
    assert len(changed) == 1
    assert changed_pdg_nodes(unit_before, pdg_after,
                             type(cs)(cs.function, [])) == set()


def test_only_deletions_read_the_before_statements(monkeypatch):
    source = "class C { void m() { int a = 1; one(); } }"
    before = parse_source(source, "java")
    after = parse_source(source.replace("int a = 1; one();", "one(); return;"), "java")
    _, _, [cs] = diff_file_pair(before, after)
    assert {a.kind for a in cs.actions} == {"delete", "insert"}
    unit_before = before.functions[0]
    pdg_after = build_pdg(after.functions[0])
    statements = pdg_module._statements
    read = []

    def counting(unit):
        read.append(unit)
        return statements(unit)

    def no_edges(builder):
        raise AssertionError("built the before side's def-use edges")

    monkeypatch.setattr(pdg_module, "_statements", counting)
    monkeypatch.setattr(pdg_module, "_reaching_def_use_edges", no_edges)
    inserts = type(cs)(cs.function, [a for a in cs.actions if a.kind == "insert"])
    assert changed_pdg_nodes(unit_before, pdg_after, inserts)
    assert read == []
    assert len(changed_pdg_nodes(unit_before, pdg_after, cs)) == 2
    assert read == [unit_before]


def test_ir_bounds_on_random_instances():
    rng = np.random.RandomState(55)
    for _ in range(200):
        pdg = _random_pdg(rng)
        ids = [n.id for n in pdg.nodes]
        k = int(rng.randint(0, len(ids) + 1))
        changed = set(int(x) for x in rng.choice(ids, size=k, replace=False)) if k else set()
        ir = impact_range(ddg_impact(pdg, changed), cdg_impact(pdg, changed))
        assert 1.0 <= ir <= 3.0


SWITCH_RULES = """
    class C {
        int m(int x) {
            switch (x) {
                case 1 -> x = 1;
                case 2 -> x = 2;
                default -> x = 3;
            }
            return x;
        }
    }
    """


def test_switch_rules_do_not_fall_through():
    pdg = _pdg(SWITCH_RULES)
    assert [n.kind for n in pdg.nodes] == [
        "switch_stmt", "expr_stmt", "expr_stmt", "expr_stmt", "return_stmt"]
    # each rule's definition reaches the return, none reaches the next rule
    assert pdg.ddg_edges == {(1, 4), (2, 4), (3, 4)}
    assert {(0, 1), (0, 2), (0, 3)} <= pdg.cdg_edges


SWITCH_GROUPS = """
    class C {
        int m(int x) {
            switch (x) {
                case 1: x = 1;
                case 2: x = x + 2;
            }
            return x;
        }
    }
    """


def test_switch_groups_still_fall_through():
    pdg = _pdg(SWITCH_GROUPS)
    assert (1, 2) in pdg.ddg_edges


# ---------------------------------------------------------------------------
# reaching definitions against the gen/kill fixpoint
# ---------------------------------------------------------------------------

def _assert_def_use_edges_equal_reference(src):
    """Every PDG built from ``src`` gets the def-use edges that the
    reference fixpoint computes over the same nodes and CFG."""
    search = pdg_module._reaching_def_use_edges
    pairs = []

    def both(builder):
        edges = search(builder)
        pairs.append((edges, reference_reaching_defs(builder)))
        return edges

    with mock.patch.object(pdg_module, "_reaching_def_use_edges", both):
        for unit in parse_source(src, "java").functions:
            build_pdg(unit)
    assert pairs
    for edges, expected in pairs:
        assert edges == expected


@pytest.mark.parametrize("src", [
    SEVEN_PAIRS, LOOP_WITH_BREAK, SWITCH_RULES, SWITCH_GROUPS,
    IDIOMS.read_text(encoding="utf-8"),
], ids=["seven_pairs", "loop_with_break", "switch_rules", "switch_groups", "idioms"])
def test_def_use_edges_equal_the_fixpoint_on_fixtures(src):
    _assert_def_use_edges_equal_reference(src)


_SIMPLE = ["a = b + c;", "b = a * 2;", "c++;", "f(a, b);", "d = c - d;",
           "int a = d;", "break;", "continue;", "return a;", "throw e(b);"]


def _random_statements(rng, depth):
    """Random statements over ``a``..``d`` with loops, branches, switches,
    try blocks and jumps nested up to ``depth`` levels."""
    out = []
    for _ in range(rng.randint(1, 5)):
        shape = rng.randint(8) if depth else 0
        if shape == 0 or shape == 1:
            out.append(_SIMPLE[rng.randint(len(_SIMPLE))])
            continue

        def body():
            return "{ " + " ".join(_random_statements(rng, depth - 1)) + " }"

        if shape == 2:
            out.append(f"if (a > b) {body()}" + (f" else {body()}" if rng.randint(2) else ""))
        elif shape == 3:
            out.append(f"while (c < d) {body()}")
        elif shape == 4:
            out.append(f"for (int i = a; i < b; i++) {body()}")
        elif shape == 5:
            out.append(f"do {body()} while (d > a);")
        elif shape == 6:
            if rng.randint(2):
                out.append(f"switch (a) {{ case 1 -> {body()} default -> {body()} }}")
            else:
                out.append("switch (b) { case 1: " + " ".join(_random_statements(rng, depth - 1))
                           + " case 2: " + " ".join(_random_statements(rng, depth - 1)) + " }")
        else:
            out.append(f"try {body()} catch (Exception e) {body()}"
                       + (f" finally {body()}" if rng.randint(2) else ""))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_def_use_edges_equal_the_fixpoint_on_generated_bodies(seed):
    rng = np.random.RandomState(seed)
    body = " ".join(_random_statements(rng, 3))
    _assert_def_use_edges_equal_reference(
        "class C { int m(int a, int b) { int c = 0, d = 1; " + body + " } }")
