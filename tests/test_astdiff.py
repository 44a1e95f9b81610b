import copy
import operator
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devcontrib import astdiff
from devcontrib.astdiff import (
    FILE_SCOPE,
    EditAction,
    FunctionChangeSet,
    NodeMapping,
    _lcs_pairs,
    delta_ast,
    diff_file_pair,
    edit_script,
    group_by_function,
    map_trees,
)
from devcontrib.config import AnalysisConfig
from devcontrib.syntax import (
    MAX_TREE_DEPTH,
    ShapeTable,
    SyntaxNode,
    SyntaxTree,
    parse_source,
)
from oracles import (
    apply_edit_script,
    mapped_pairs,
    reference_containing_function,
    reference_edit_script,
    reference_isomorphic,
    reference_lcs_pairs,
    reference_map_trees,
)
from test_member_reuse import _modified_pairs
from test_syntax import _generated_classes

BASE = """
class C {
    int add(int a, int b) {
        int sum = a + b;
        return sum;
    }
    void run(int n) {
        prepare(n);
        validate(n, n + 1);
        finish(n);
    }
}
"""


def _diff(before_src, after_src):
    before = parse_source(before_src, "java")
    after = parse_source(after_src, "java")
    mapping = map_trees(before, after)
    script = edit_script(mapping, before, after)
    return before, after, mapping, script


def test_identical_trees_total_mapping_empty_script():
    before, after, mapping, script = _diff(BASE, BASE)
    assert len(mapped_pairs(mapping)) == sum(1 for _ in before.root.walk())
    assert script == []
    assert apply_edit_script(before, after, mapping, script)


def test_disjoint_trees_empty_mapping():
    a = SyntaxTree(SyntaxNode("alpha", children=[SyntaxNode("beta", label="x")]), "a")
    b = SyntaxTree(SyntaxNode("gamma", children=[SyntaxNode("delta", label="y")]), "b")
    assert mapped_pairs(map_trees(a, b)) == {}


def test_rename_maps_everything_as_update():
    before, after, mapping, script = _diff(BASE, BASE.replace("sum", "total"))
    assert len(mapped_pairs(mapping)) == sum(1 for _ in before.root.walk())
    assert {a.kind for a in script} == {"update"}
    assert all(a.after_node.kind == "identifier" for a in script)
    assert all(a.only_name_or_modifier for a in script)
    assert all(a.subtree_depth == 1 for a in script)
    assert apply_edit_script(before, after, mapping, script)


WITH_MUL = BASE[:BASE.rfind("}")] + """    int mul(int a, int b) {
        if (a > 0) {
            return a * b;
        }
        return 0;
    }
}
"""


def test_new_function_single_insert_with_subtree_depth():
    before, after, mapping, script = _diff(BASE, WITH_MUL)
    inserts = [a for a in script if a.kind == "insert"]
    assert len(inserts) == 1
    method = next(u for u in after.functions
                  if u.qualified_name == "C.mul(int,int)")
    assert inserts[0].after_node is method.body
    assert inserts[0].subtree_depth == method.body.height
    assert not inserts[0].only_name_or_modifier
    assert apply_edit_script(before, after, mapping, script)


def test_statement_move_attributed_to_both_functions():
    moved = BASE.replace("        validate(n, n + 1);\n", "")
    moved = moved.replace("        int sum = a + b;",
                          "        int sum = a + b;\n        validate(n, n + 1);")
    before, after, mapping, script = _diff(BASE, moved)
    moves = [a for a in script if a.kind == "move"]
    assert len(moves) == 1
    changesets = group_by_function(script, before.functions, after.functions)
    holders = {cs.function for cs in changesets
               if any(a.kind == "move" for a in cs.actions)}
    assert holders == {"C.add(int,int)", "C.run(int)"}
    assert apply_edit_script(before, after, mapping, script)


def test_sibling_reorder_is_a_move():
    reordered = BASE.replace(
        "        prepare(n);\n        validate(n, n + 1);\n        finish(n);",
        "        finish(n);\n        prepare(n);\n        validate(n, n + 1);")
    before, after, mapping, script = _diff(BASE, reordered)
    assert {a.kind for a in script} == {"move"}
    assert apply_edit_script(before, after, mapping, script)


def test_comment_only_change_empty_script():
    commented = BASE.replace("int sum = a + b;",
                             "/* accumulate */ int sum = a + b; // done")
    _, _, _, script = _diff(BASE, commented)
    assert script == []


def test_whitespace_only_change_empty_script():
    spaced = BASE.replace("int sum = a + b;", "int  sum  =  a  +  b ;")
    spaced = spaced.replace("    void run", "\n\n      void run")
    _, _, _, script = _diff(BASE, spaced)
    assert script == []


def test_log_statement_insert_is_blacklisted_and_scores_zero():
    logged = BASE.replace("        return sum;",
                          '        log.debug("sum " + sum);\n        return sum;')
    before, after, mapping, script = _diff(BASE, logged)
    assert len(script) == 1
    assert script[0].kind == "insert"
    assert script[0].blacklisted
    changesets = group_by_function(script, before.functions, after.functions)
    assert delta_ast(changesets[0]) == 0.0


def test_annotation_insert_is_modifier_only():
    annotated = BASE.replace("    int add", "    @Deprecated\n    int add")
    _, _, _, script = _diff(BASE, annotated)
    assert len(script) == 1
    assert script[0].kind == "insert"
    assert script[0].only_name_or_modifier


def test_group_by_function_partition_preserves_actions():
    edited = BASE.replace("int sum = a + b;", "int sum = a * b;")
    edited = edited.replace("prepare(n);", "prepare(n + 2);")
    before, after, mapping, script = _diff(BASE, edited)
    changesets = group_by_function(script, before.functions, after.functions)
    assert {cs.function for cs in changesets} == {"C.add(int,int)", "C.run(int)"}
    assert sum(len(cs.actions) for cs in changesets) == len(script)


def test_import_edit_goes_to_file_scope():
    before_src = "import java.util.List;\n" + BASE
    after_src = "import java.util.Map;\n" + BASE
    before, after, mapping, script = _diff(before_src, after_src)
    changesets = group_by_function(script, before.functions, after.functions)
    assert [cs.function for cs in changesets] == [FILE_SCOPE]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_innermost_units_equal_one_scan_per_span(data):
    # brackets at rising positions, where a step of 0 makes bodies that
    # share a start or an end, touch, or are equal
    position, opened, bodies = 0, [], []
    for bracket in data.draw(st.lists(st.sampled_from("(.)"), max_size=40)):
        position += data.draw(st.integers(0, 2))
        if bracket == "(":
            opened.append(position)
        elif bracket == ")" and opened and opened[-1] < position:
            bodies.append((opened.pop(), position))
    bodies += data.draw(st.lists(st.sampled_from(bodies), max_size=3)) if bodies else []
    units = [types.SimpleNamespace(qualified_name=f"u{i}",
                                   body=types.SimpleNamespace(start=start, end=end))
             for i, (start, end) in enumerate(data.draw(st.permutations(bodies)))]
    spans = [(start, start + length) for start, length in data.draw(st.lists(
        st.tuples(st.integers(0, position + 1), st.integers(1, 4)), max_size=20))]
    found = astdiff._innermost_units(units, spans)
    assert [id(u) for u in found] == [
        id(reference_containing_function(units, s, e)) for s, e in spans]


def test_innermost_units_of_bodies_that_touch_share_an_end_or_are_equal():
    bodies = [(0, 10), (0, 4), (4, 10), (5, 7), (4, 10), (10, 12)]
    units = [types.SimpleNamespace(qualified_name=f"u{i}",
                                   body=types.SimpleNamespace(start=start, end=end))
             for i, (start, end) in enumerate(bodies)]
    spans = [(0, 1), (3, 4), (4, 5), (5, 6), (6, 7), (7, 10), (9, 11), (10, 11), (12, 13)]
    found = astdiff._innermost_units(units, spans)
    assert [u and u.qualified_name for u in found] == [
        "u1", "u1", "u2", "u3", "u3", "u2", None, "u5", None]
    assert found == [reference_containing_function(units, s, e) for s, e in spans]


def _edited_methods(n, literal):
    return "class C {\n" + "".join(f"    void m{i}() {{ f({literal}); }}\n"
                                   for i in range(n)) + "}\n"


def test_grouping_reads_each_unit_a_bounded_number_of_times():
    # a class of 2,000 methods whose bodies are all edited: a scan of every
    # unit per action would read each unit's body once per action
    n = 2000
    before = parse_source(_edited_methods(n, 1), "java")
    after = parse_source(_edited_methods(n, 2), "java")
    literals = [[node for node in tree.root.walk() if node.kind == "literal"]
                for tree in (before, after)]
    actions = []
    for b, a in zip(*literals):
        actions.append(EditAction("update", 1, before_node=b, after_node=a))
        actions.append(EditAction("delete", 1, before_node=b))
        actions.append(EditAction("move", 1, before_node=b, after_node=a))
    reads = 0

    class Counted:
        def __init__(self, unit):
            self.qualified_name, self._body = unit.qualified_name, unit.body

        @property
        def body(self):
            nonlocal reads
            reads += 1
            return self._body

    changesets = group_by_function(actions, list(map(Counted, before.functions)),
                                   list(map(Counted, after.functions)))
    assert reads <= 2 * (len(before.functions) + len(after.functions))
    assert [cs.function for cs in changesets] == sorted(f"C.m{i}()" for i in range(n))
    assert all([a.kind for a in cs.actions] == ["update", "delete", "move"]
               for cs in changesets)


# ---------------------------------------------------------------------------
# weighted edit size
# ---------------------------------------------------------------------------

def _action(kind, depth, name_only=False, blacklisted=False):
    return EditAction(kind=kind, subtree_depth=depth,
                      only_name_or_modifier=name_only, blacklisted=blacklisted)


def test_delta_empty_changeset_zero():
    assert delta_ast(FunctionChangeSet("m", [])) == 0.0


def test_delta_single_insert_depth_four():
    cs = FunctionChangeSet("m", [_action("insert", 4)])
    assert delta_ast(cs) == 4.0


def test_delta_mixed_example():
    cs = FunctionChangeSet("m", [
        _action("delete", 3), _action("move", 2), _action("update", 1, name_only=True),
    ])
    assert delta_ast(cs) == pytest.approx(0.24, abs=1e-12)


def test_delta_additive_over_disjoint_changesets():
    rng = np.random.RandomState(7)
    kinds = ["insert", "update", "delete", "move"]
    a = [_action(kinds[rng.randint(4)], int(rng.randint(1, 9)),
                 bool(rng.rand() < .3), bool(rng.rand() < .2)) for _ in range(20)]
    b = [_action(kinds[rng.randint(4)], int(rng.randint(1, 9)),
                 bool(rng.rand() < .3), bool(rng.rand() < .2)) for _ in range(15)]
    da = delta_ast(FunctionChangeSet("m", a))
    db = delta_ast(FunctionChangeSet("m", b))
    dab = delta_ast(FunctionChangeSet("m", a + b))
    assert dab == pytest.approx(da + db, rel=1e-12)


def test_delta_kind_ordering_for_fixed_subtree():
    w = AnalysisConfig()
    for depth in (1, 3, 7):
        d = delta_ast(FunctionChangeSet("m", [_action("delete", depth)]), w)
        m = delta_ast(FunctionChangeSet("m", [_action("move", depth)]), w)
        i = delta_ast(FunctionChangeSet("m", [_action("insert", depth)]), w)
        assert d <= m <= i
        assert d == pytest.approx(0.01 * i, rel=1e-12)
        assert m == pytest.approx(0.1 * i, rel=1e-12)


def test_delta_homogeneous_in_weights():
    rng = np.random.RandomState(11)
    kinds = ["insert", "update", "delete", "move"]
    actions = [_action(kinds[rng.randint(4)], int(rng.randint(1, 9)),
                       bool(rng.rand() < .3)) for _ in range(30)]
    cs = FunctionChangeSet("m", actions)
    base = AnalysisConfig()
    for c in (0.5, 2.0, 10.0):
        scaled = AnalysisConfig(ast_add=base.ast_add * c, ast_update=base.ast_update * c,
                                ast_move=base.ast_move * c, ast_delete=base.ast_delete * c,
                                ast_name_factor=base.ast_name_factor)
        assert delta_ast(cs, scaled) == pytest.approx(c * delta_ast(cs, base),
                                                      rel=1e-12)


def test_rename_update_uses_name_factor_exactly():
    # rename-only change vs the same-depth plain update (a literal tweak)
    _, _, _, rename_script = _diff(
        "class C { void m() { int alpha = 1; } }",
        "class C { void m() { int beta = 1; } }")
    _, _, _, literal_script = _diff(
        "class C { void m() { int alpha = 1; } }",
        "class C { void m() { int alpha = 2; } }")
    assert [a.kind for a in rename_script] == ["update"]
    assert [a.kind for a in literal_script] == ["update"]
    cs_rename = FunctionChangeSet("m", rename_script)
    cs_literal = FunctionChangeSet("m", literal_script)
    assert delta_ast(cs_rename) == pytest.approx(0.01 * delta_ast(cs_literal),
                                                 rel=1e-12)


def test_apply_script_on_varied_edits():
    variants = [
        BASE.replace("a + b", "a - b"),
        BASE.replace("int sum = a + b;", "int sum = a + b;\n        audit(sum);"),
        BASE.replace("        prepare(n);\n", ""),
        BASE.replace("validate(n, n + 1)", "validate(n, n + 2, true)"),
        BASE.replace("void run(int n)", "void run(int n, int m)"),
        BASE[:BASE.rfind("}")] + "    void extra() { helper(); }\n}\n",
    ]
    for after_src in variants:
        before, after, mapping, script = _diff(BASE, after_src)
        assert apply_edit_script(before, after, mapping, script), after_src


def test_diff_at_the_tree_depth_limit():
    terms = MAX_TREE_DEPTH - 6  # the tree of this file is terms + 6 deep
    before_src = "class C { String s() { return " + " + ".join(['"a"'] * terms) + "; } }"
    after_src = before_src.replace('"a"', '"b"', 1)
    before = parse_source(before_src, "java")
    after = parse_source(after_src, "java")
    _, actions, changesets = diff_file_pair(before, after)
    assert [a.kind for a in actions] == ["update"]
    assert [cs.function for cs in changesets] == ["C.s()"]
    short = parse_source('class C { String s() { return "a"; } }', "java")
    _, actions, _ = diff_file_pair(short, before)
    assert max(a.subtree_depth for a in actions) > MAX_TREE_DEPTH - 10


_STATEMENTS = [
    "int a = 1;", "a = a + b;", "b = compute(a, b);", "log.debug(a);",
    "if (a > b) { a = b; } else { b = a; }", "while (a < n) { a++; }",
    "for (int i = 0; i < n; i++) { total += i * a; }", "helper(a).run(b);",
    "String s = \"x\" + a;", "return;",
]


def _random_program(methods, order=None):
    """Method ``m<i>`` has the statements ``methods[i]``; ``order`` lists
    the methods in file order."""
    order = range(len(methods)) if order is None else order
    body = "\n".join(f"    void m{i}(int n) {{\n        " + "\n        ".join(methods[i])
                     + "\n    }" for i in order)
    return "class C {\n" + body + "\n}\n"


def _random_edit(rng, methods):
    """An edited copy of ``methods`` and the file order of its methods.  A
    deleted method leaves the order; a new method joins it at a random
    place and may receive a statement moved out of another method."""
    methods = [list(m) for m in methods]
    order = list(range(len(methods)))
    for _ in range(rng.randint(1, 4)):
        op = rng.randint(6)
        if op == 4:  # insert a whole new method
            body = [_STATEMENTS[rng.randint(len(_STATEMENTS))]
                    for _ in range(rng.randint(1, 5))]
            donors = [methods[i] for i in order if methods[i]]
            if donors and rng.randint(2):
                donor = donors[rng.randint(len(donors))]
                body.insert(rng.randint(len(body) + 1),
                            donor.pop(rng.randint(len(donor))))
            order.insert(rng.randint(len(order) + 1), len(methods))
            methods.append(body)
            continue
        if not order:
            continue
        if op == 5:  # delete a whole method
            del order[rng.randint(len(order))]
            continue
        target = methods[order[rng.randint(len(order))]]
        if op == 0 and target:
            del target[rng.randint(len(target))]
        elif op == 1:
            target.insert(rng.randint(len(target) + 1),
                          _STATEMENTS[rng.randint(len(_STATEMENTS))])
        elif op == 2 and target:  # move a statement to another method
            stmt = target.pop(rng.randint(len(target)))
            other = methods[order[rng.randint(len(order))]]
            other.insert(rng.randint(len(other) + 1), stmt)
        elif target:  # rename a variable in one statement
            i = rng.randint(len(target))
            target[i] = target[i].replace("a", "q", 1)
    return methods, order


def _random_sources(rng, reorder_and_empty=False):
    """Source texts of a random class and of an edited copy.  With
    ``reorder_and_empty``, two adjacent methods may also swap places, and
    one side may be empty: an added or a deleted file."""
    methods = [[_STATEMENTS[rng.randint(len(_STATEMENTS))]
                for _ in range(rng.randint(0, 6))] for _ in range(rng.randint(1, 4))]
    before_src = _random_program(methods)
    edited, order = _random_edit(rng, methods)
    if reorder_and_empty:
        if len(order) > 1 and rng.randint(2):
            i = rng.randint(len(order) - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        empty = rng.randint(4)
        if empty == 0:
            return "", _random_program(edited, order)
        if empty == 1:
            return before_src, ""
    return before_src, _random_program(edited, order)


def _assert_equals_reference(before_src, after_src):
    """The mapping and the ordered edit script equal the reference
    differ's, and the script turns the before tree into the after tree."""
    return _assert_trees_equal_reference(parse_source(before_src, "java"),
                                         parse_source(after_src, "java"))


def _assert_trees_equal_reference(before, after):
    mapping = map_trees(before, after)
    reference = reference_map_trees(before, after)
    assert mapped_pairs(mapping) == reference.b2a
    script = edit_script(mapping, before, after)
    assert script == reference_edit_script(reference, before, after)
    assert apply_edit_script(before, after, mapping, script)
    return script


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_mapping_equals_reference_and_script_replays(seed):
    _assert_equals_reference(*_random_sources(np.random.RandomState(seed)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_differ_equals_reference_on_reorders_and_empty_sides(seed):
    _assert_equals_reference(*_random_sources(np.random.RandomState(seed),
                                              reorder_and_empty=True))


# Nested programs: a statement is a string, or a compound
# ``[opener, closer, body]`` whose body is a list of statements; a member is
# a compound too.  Bodies nest at most _MAX_NESTING deep.
_MAX_NESTING = 3
_COMPOUNDS = [
    ("if (a > b) {", "}"), ("if (a < n) {", "} else { b = a; }"),
    ("while (a < n) {", "}"), ("for (int i = 0; i < n; i++) {", "}"), ("{", "}"),
    ("run(() -> {", "});"), ("Runnable r = new Runnable() { public void run() {", "} };"),
]
_MEMBERS = [
    ("void m{i}(int n) {{", "}}"), ("class In{i} {{ void k(int n) {{", "}} }}"),
    ("Runnable f{i} = () -> {{", "}};"),
    ("Object o{i} = new Object() {{ int k(int n) {{", "}} }};"),
]


def _nested_statement(rng, depth):
    if depth >= _MAX_NESTING or rng.randint(3):
        return _STATEMENTS[rng.randint(len(_STATEMENTS))]
    opener, closer = _COMPOUNDS[rng.randint(len(_COMPOUNDS))]
    return [opener, closer, _nested_body(rng, depth + 1)]


def _nested_body(rng, depth):
    return [_nested_statement(rng, depth) for _ in range(rng.randint(0, 4))]


def _nested_member(rng, i):
    opener, closer = _MEMBERS[rng.randint(len(_MEMBERS))]
    return [opener.format(i=i), closer.format(i=i), _nested_body(rng, 1)]


def _render(statements, indent):
    lines = []
    for s in statements:
        if isinstance(s, str):
            lines.append(indent + s)
        else:
            lines.append(indent + s[0])
            lines.extend(_render(s[2], indent + "    "))
            lines.append(indent + s[1])
    return lines


def _bodies(statements, depth=0):
    """``(body, depth)`` of every body in ``statements``, outermost first."""
    found = []
    for s in statements:
        if not isinstance(s, str):
            found.append((s[2], depth + 1))
            found.extend(_bodies(s[2], depth + 1))
    return found


def _nesting(statement):
    """How many bodies deep ``statement`` reaches."""
    if isinstance(statement, str):
        return 0
    return 1 + max((_nesting(s) for s in statement[2]), default=0)


def _nested_edit(rng, members):
    """Edit a deep copy of ``members``: statements are deleted, inserted,
    renamed, wrapped in a compound, unwrapped, or moved to any body; members
    are added, deleted, or moved past two others or more where they can be."""
    members = copy.deepcopy(members)
    for _ in range(rng.randint(1, 5)):
        op = rng.randint(9)
        if op == 0:  # a new member at any place
            members.insert(rng.randint(len(members) + 1),
                           _nested_member(rng, 10 + rng.randint(90)))
            continue
        if op == 1 and len(members) > 1:
            del members[rng.randint(len(members))]
            continue
        if op == 2 and len(members) > 2:  # not a swap of neighbours
            i = rng.randint(len(members))
            member = members.pop(i)
            places = [j for j in range(len(members) + 1) if abs(j - i) > 1]
            members.insert(places[rng.randint(len(places))] if places else 0, member)
            continue
        bodies = _bodies(members)
        body, depth = bodies[rng.randint(len(bodies))]
        if op == 3 or not body:
            body.insert(rng.randint(len(body) + 1), _nested_statement(rng, depth))
        elif op == 4:
            del body[rng.randint(len(body))]
        elif op == 5:  # rename in a statement at any depth
            i = rng.randint(len(body))
            if isinstance(body[i], str):
                body[i] = body[i].replace("a", "q", 1)
            else:
                body[i][0] = body[i][0].replace("a", "q", 1)
        elif op == 6:  # wrap a run of statements in a compound
            i = rng.randint(len(body))
            j = rng.randint(i, len(body)) + 1
            opener, closer = _COMPOUNDS[rng.randint(len(_COMPOUNDS))]
            wrapped = [opener, closer, body[i:j]]
            if depth + _nesting(wrapped) <= _MAX_NESTING:
                body[i:j] = [wrapped]
        elif op == 7:  # unwrap a compound
            i = rng.randint(len(body))
            if not isinstance(body[i], str):
                body[i:i + 1] = body[i][2]
        else:  # move a statement to any body, at any depth
            statement = body.pop(rng.randint(len(body)))
            targets = [b for b, d in _bodies(members)
                       if d + _nesting(statement) <= _MAX_NESTING]
            target = targets[rng.randint(len(targets))] if targets else body
            target.insert(rng.randint(len(target) + 1), statement)
    return members


def _nested_program(members):
    return "class C {\n" + "\n".join(_render(members, "    ")) + "\n}\n"


def _nested_sources(rng):
    members = [_nested_member(rng, i) for i in range(rng.randint(1, 5))]
    return _nested_program(members), _nested_program(_nested_edit(rng, members))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_differ_equals_reference_on_nested_members_and_distant_moves(seed):
    _assert_equals_reference(*_nested_sources(np.random.RandomState(seed)))


def test_nested_generator_parses_every_construct():
    kinds = set()
    for seed in range(20):
        for source in _nested_sources(np.random.RandomState(seed)):
            kinds.update(n.kind for n in parse_source(source, "java").root.walk())
    assert {"if_stmt", "while_stmt", "for_stmt", "block", "lambda_expr", "new_expr",
            "class_decl", "method_decl", "field_decl"} <= kinds


def _nested_ifs(depth, innermost):
    return ("class C {\n    void m(int a) {\n"
            + "".join(f"if (a > {i}) {{\na = a - {i};\n" for i in range(depth))
            + innermost + "\n" + "}\n" * depth + "    }\n}\n")


def test_matching_walks_each_region_a_bounded_number_of_times(monkeypatch):
    # one edit 100 blocks deep: every enclosing block is an unmapped
    # container of the bottom-up pass, and a walk of each one's region
    # would cost the depth times the region
    before = parse_source(_nested_ifs(100, "f(1);"), "java")
    after = parse_source(_nested_ifs(100, "f(2);"), "java")
    region, steps = astdiff._region, 0

    def counting_region(*args):
        nonlocal steps
        for item in region(*args):
            steps += 1
            yield item

    monkeypatch.setattr(astdiff, "_region", counting_region)
    mapping = map_trees(before, after)
    size = sum(1 for _ in before.root.walk())
    assert before.root.height > 200
    assert steps <= 2 * size
    monkeypatch.undo()
    assert len(mapping.b2a) > 100  # the bottom-up pass mapped every block
    script = edit_script(mapping, before, after)
    assert [(a.kind, a.before_node.label, a.after_node.label) for a in script] == [
        ("update", "1", "2")]
    assert apply_edit_script(before, after, mapping, script)


def test_differ_equals_reference_on_workload_edits():
    # a fixed sample of the seed-11 benchmark workloads' modified files
    pairs = _modified_pairs()
    for before_src, after_src in pairs[::6]:
        _assert_equals_reference(before_src, after_src)


def test_method_swap_is_one_order_move():
    methods = [["a = a + b;", "return;"], ["b = compute(a, b);"], ["int a = 1;"]]
    script = _assert_equals_reference(_random_program(methods),
                                      _random_program(methods, [1, 0, 2]))
    assert [(a.kind, a.after_node.kind) for a in script] == [("move", "method_decl")]


@pytest.mark.parametrize("side", ["before", "after"])
def test_added_or_deleted_file_is_one_action(side):
    before_src, after_src = (BASE, "") if side == "before" else ("", BASE)
    script = _assert_equals_reference(before_src, after_src)
    assert [a.kind for a in script] == ["delete" if side == "before" else "insert"]
    root = script[0].before_node or script[0].after_node
    assert root.kind == "class_decl"
    assert script[0].subtree_depth == root.height


class _Unreadable(list):
    """A child list that fails when it is iterated or indexed."""

    def __iter__(self):
        raise AssertionError("the edit script read below an inserted or deleted root")

    __reversed__ = __getitem__ = __iter__


@pytest.mark.parametrize("before_src, after_src", [(BASE, ""), ("", BASE), (BASE, WITH_MUL)],
                         ids=["deleted-file", "added-file", "new-method"])
def test_script_reads_nothing_below_an_inserted_or_deleted_root(before_src, after_src):
    before = parse_source(before_src, "java")
    after = parse_source(after_src, "java")
    mapping = map_trees(before, after)
    expected = reference_edit_script(reference_map_trees(before, after), before, after)
    [root] = [a.before_node if a.kind == "delete" else a.after_node
              for a in expected if a.kind in ("insert", "delete")]
    assert root.kind == ("method_decl" if after_src == WITH_MUL else "class_decl")
    sealed = 0
    for child in root.children:
        for grandchild in child.children:
            if grandchild.children:
                grandchild.children = _Unreadable(grandchild.children)
                sealed += 1
    assert sealed

    script = edit_script(mapping, before, after)
    assert script == expected
    assert [a.subtree_depth for a in script if a.kind in ("insert", "delete")] == [root.height]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_spans_nest_in_generated_sources(seed):
    # edit_script's pruning relies on this (see its docstring)
    for source in _random_sources(np.random.RandomState(seed), reorder_and_empty=True):
        for node in parse_source(source, "java").root.walk():
            for child in node.children:
                assert node.start <= child.start <= child.end <= node.end


def _state(mapping):
    return (list(mapping.b2a.items()), list(mapping.a2b.items()),
            set(mapping.iso_before), set(mapping.iso_after))


def test_calls_to_different_callees_get_different_shapes():
    before = parse_source("class C { void m() { f(1, 2); h(3); } }", "java")
    after = parse_source("class C { void m() { g(1, 2); h(3); } }", "java")
    block_b = before.functions[0].body.children[-1]
    block_a = after.functions[0].body.children[-1]
    (f_stmt, h_before), (g_stmt, h_after) = block_b.children, block_a.children
    script = _assert_trees_equal_reference(before, after)
    assert [(a.kind, a.before_node.label, a.after_node.label) for a in script] == [
        ("update", "f", "g")]
    # the differ filled every shape of both trees from one table;
    # only the callee's label tells the two statements apart
    assert before.shapes is after.shapes
    assert f_stmt.shape != g_stmt.shape and f_stmt.size == g_stmt.size
    assert h_before.shape == h_after.shape

    mapping = NodeMapping()
    assert mapping.add_isomorphic(h_before, h_after)
    assert (mapping.iso_before, mapping.iso_after) == ({h_before}, {h_after})
    state = _state(mapping)
    assert not mapping.add_isomorphic(f_stmt, g_stmt)
    assert _state(mapping) == state


IDIOMS = (Path(__file__).resolve().parent / "fixtures" / "Idioms.java").read_text()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_generated_classes(), _generated_classes())
def test_equal_shapes_are_exactly_the_isomorphic_subtrees(first, second):
    shapes = ShapeTable()
    nodes = [n for src in (first, second, IDIOMS)
             for n in parse_source(src, "java").root.walk()]
    classes = {}
    for node in nodes:
        classes.setdefault(shapes.fill(node), []).append(node)
        assert node.size == sum(1 for _ in node.walk())
    assert len(shapes) == len(classes)
    # equal shapes: every subtree is isomorphic to its class's first one
    for members in classes.values():
        assert all(reference_isomorphic(members[0], n) for n in members[1:])
    # different shapes: no two classes' subtrees are isomorphic
    by_kind = {}
    for members in classes.values():
        by_kind.setdefault(members[0].kind, []).append(members[0])
    for reps in by_kind.values():
        for i, x in enumerate(reps):
            assert not any(reference_isomorphic(x, y) for y in reps[i + 1:])


def test_a_diff_fills_both_trees_unless_a_side_is_empty():
    shapes = ShapeTable()
    before, after = parse_source(BASE, "java"), parse_source(WITH_MUL, "java")
    diff_file_pair(before, after, shapes=shapes)
    assert all(n.shape is not None for tree in (before, after) for n in tree.root.walk())
    filled = len(shapes)
    # an added and a deleted file: the empty side's root is a lone leaf, so
    # no pass reads a shape and neither tree is hashed
    for pair in ((parse_source("", "java"), parse_source(WITH_MUL.replace("mul", "div"),
                                                         "java")),
                 (parse_source(BASE.replace("add", "sub"), "java"), parse_source("", "java"))):
        mapping, actions, _ = diff_file_pair(*pair, shapes=shapes)
        assert len(actions) == 1 and not mapping.iso_before
        assert all(n.shape is None for tree in pair for n in tree.root.walk())
    assert len(shapes) == filled


def test_trees_filled_by_two_tables_are_refused():
    before, after = parse_source(BASE, "java"), parse_source(WITH_MUL, "java")
    other = parse_source(BASE.replace("a + b", "a - b"), "java")
    shapes = ShapeTable()
    map_trees(before, after, shapes=shapes)
    assert before.shapes is after.shapes is shapes
    # with no table given, the one either tree already has
    map_trees(other, before)
    assert other.shapes is shapes
    with pytest.raises(ValueError):
        map_trees(before, after, shapes=ShapeTable())
    fresh = parse_source(BASE, "java")
    map_trees(fresh, parse_source(WITH_MUL, "java"))
    assert fresh.shapes is not shapes
    with pytest.raises(ValueError):
        map_trees(fresh, after)
    with pytest.raises(ValueError):
        diff_file_pair(after, fresh)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), max_size=12), st.lists(st.integers(0, 3), max_size=12))
def test_lcs_pairs_equal_the_reference_table(keys_x, keys_y):
    xs = [("x", i, k) for i, k in enumerate(keys_x)]
    ys = [("y", j, k) for j, k in enumerate(keys_y)]
    key = operator.itemgetter(2)
    assert _lcs_pairs(xs, ys, key) == reference_lcs_pairs(xs, ys, key)
    assert _lcs_pairs(xs, xs, key) == reference_lcs_pairs(xs, xs, key)
