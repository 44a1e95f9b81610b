"""A file parsed against the tree of its previous version takes the members
whose text is unchanged from that tree, and the result equals a fresh
parse: nodes, units, comments, parse errors and the differ's output."""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devcontrib import syntax
from devcontrib.astdiff import diff_file_pair
from devcontrib.errors import ParseError
from devcontrib.syntax import MAX_TREE_DEPTH, ShapeTable, parse_source, tokenize
from oracles import ReferenceShapeTable
from test_syntax import IDIOMS, _generated_classes

_HISTORIES = Path(__file__).resolve().parents[1] / "benchmarks" / "histories.py"


@functools.cache
def _modified_pairs() -> list[tuple[str, str]]:
    """``(before, after)`` texts of each Java file that a commit of a
    seed-11 benchmark workload modifies, from the generator's in-memory
    plan of the history."""
    spec = importlib.util.spec_from_file_location("benchmark_histories", _HISTORIES)
    histories = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = histories  # its dataclasses look their module up
    spec.loader.exec_module(histories)
    pairs = []
    for workload in ("edit-heavy", "graph-heavy", "fork-heavy"):
        snapshots = {}
        for commit in histories.build_history(workload, 11).commits:
            files = dict(snapshots[commit.parents[0]]) if commit.parents else {}
            for op in commit.ops:
                if op[0] == "D":
                    files.pop(op[1], None)
                    continue
                _, path, data = op
                before = files.get(path)
                if path.endswith(".java") and before is not None and before != data:
                    pairs.append((before.decode(), data.decode()))
                files[path] = data
            snapshots[commit.mark] = files
    return pairs


_NAMES_AND_LITERALS = {"ident", "int", "float", "string", "char", "literal_word"}


@st.composite
def _token_edits(draw, text):
    """``text`` after one or two edits, each at a different token: delete
    it, repeat it, replace a name or literal by another of its kind (drawn
    more often, as it breaks the syntax least), or put a line break or a
    comment before it, which only moves what follows."""
    (kinds, texts, starts, ends), _ = tokenize(text)
    count = len(starts) - 1  # without the end token
    if not count:
        return text
    at = draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=2, unique=True))
    for i in sorted(at, reverse=True):
        start, end = starts[i], ends[i]
        edit = draw(st.sampled_from(
            ["delete", "repeat", "replace", "replace", "replace", "break", "comment"]))
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "repeat":
            text = text[:end] + " " + text[start:]
        elif edit == "replace" and kinds[i] in _NAMES_AND_LITERALS:
            alike = [t for k, t in zip(kinds, texts) if k == kinds[i]]
            text = text[:start] + draw(st.sampled_from(alike)) + text[end:]
        else:
            text = text[:start] + ("/* c */ " if edit == "comment" else "\n  ") + text[start:]
    return text


def _edited(texts):
    return texts.flatmap(lambda before: _token_edits(before).map(lambda after: (before, after)))


def _nodes(node):
    return [(n.kind, n.label, n.start, n.end, n.height) for n in node.walk()]


def _units(tree):
    inside = {id(n) for n in tree.root.walk()}
    assert all(id(u.body) in inside for u in tree.functions)
    return [(u.qualified_name, u.span, _nodes(u.body), u.calls) for u in tree.functions]


def _span(node):
    return None if node is None else (node.kind, node.start, node.end)


def _diff(before, after):
    _, actions, changesets = diff_file_pair(before, after)

    def key(action):
        return (action.kind, action.subtree_depth, action.only_name_or_modifier,
                action.blacklisted, _span(action.before_node), _span(action.after_node))

    return ([key(a) for a in actions],
            [(cs.function, [key(a) for a in cs.actions]) for cs in changesets])


def _assert_reparse_equals_fresh_parse(before_text, after_text):
    previous = parse_source(before_text, "java")
    try:
        fresh = parse_source(after_text, "java")
    except ParseError as error:
        with pytest.raises(ParseError) as raised:
            parse_source(after_text, "java", previous)
        assert (str(raised.value), raised.value.position) == (str(error), error.position)
        return
    reparsed = parse_source(after_text, "java", previous)
    assert _nodes(reparsed.root) == _nodes(fresh.root)
    assert _units(reparsed) == _units(fresh)
    assert reparsed.comments == fresh.comments
    assert _diff(previous, reparsed) == _diff(parse_source(before_text, "java"), fresh)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.deferred(lambda: st.sampled_from(_modified_pairs())).flatmap(
    lambda pair: st.one_of(st.just(pair), _token_edits(pair[1]).map(
        lambda after: (pair[0], after)))))
def test_reparse_after_a_workload_edit_equals_a_fresh_parse(versions):
    # the workload's own edit, or a few token edits after it
    _assert_reparse_equals_fresh_parse(*versions)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_edited(_generated_classes()), _edited(st.just(IDIOMS.read_text()))))
def test_reparse_after_token_edits_equals_a_fresh_parse(versions):
    _assert_reparse_equals_fresh_parse(*versions)


BEFORE = """class A {
    int count;
    void a() { f(1); }
    void b() { g(2); }
    class In { void n() { h(3); } void q() { } }
}
"""


def test_unchanged_members_are_shared_at_their_offset_and_copied_past_an_edit():
    before = parse_source(BEFORE, "java")
    ShapeTable().fill(before.root)
    after = parse_source(BEFORE.replace("f(1);", "f(1); f(10);"), "java", before)
    # count and the unchanged class In; a() is parsed again, b() shifted
    assert after.reused_members == 3
    assert after.shapes is before.shapes
    old, new = before.root.children[0].children[-1].children, \
        after.root.children[0].children[-1].children
    assert new[0] is old[0]
    assert new[1] is not old[1]
    shift = len(" f(10);")
    for copy, original in zip(new[2:], old[2:]):
        assert copy is not original
        assert [(n.start - shift, n.end - shift, n.height, n.shape, n.size)
                for n in copy.walk()] == \
            [(n.start, n.end, n.height, n.shape, n.size) for n in original.walk()]
    units = {u.qualified_name: u for u in before.functions}
    assert [(u.qualified_name, u.calls is units[u.qualified_name].calls)
            for u in after.functions] == [
        ("A.a()", False), ("A.b()", True), ("A.In.n()", True), ("A.In.q()", True)]


def test_a_member_copied_past_an_edit_keeps_its_shapes():
    text = BEFORE.replace("f(1);", "f(1); f(10);")
    before = parse_source(BEFORE, "java")
    before.shapes = shapes = ShapeTable()
    after = parse_source(text, "java", before)
    old, new = (tree.root.children[0].children[-1].children for tree in (before, after))
    # count is shared at its offset, a() parsed again, b() and In copied
    assert new[0] is old[0] and new[1] is not old[1]
    for copy, original in zip(new[2:], old[2:]):
        assert copy.shape is not None
        assert [(n.shape, n.size) for n in copy.walk()] == \
            [(n.shape, n.size) for n in original.walk()]
    # the parse filled only the members it copied
    assert before.root.shape is old[0].shape is old[1].shape is None
    filled = len(shapes)
    assert filled
    # a previous tree bound to no table is not filled: its copies are left
    # to the diff
    unbound = parse_source(BEFORE, "java")
    after = parse_source(text, "java", unbound)
    assert after.reused_members == 3 and after.shapes is unbound.shapes is not shapes
    assert all(n.shape is None for n in after.root.walk())
    assert len(shapes) == filled


# its tree is MAX_TREE_DEPTH levels deep, as deep as a tree may be
_DEEP = ("class C { void f() { } String s() { return "
         + " + ".join(['"a"'] * (MAX_TREE_DEPTH - 6)) + "; } }")


@pytest.mark.parametrize("before_text, after_text, reused", [
    # b()'s anonymous class is A$2 before and A$1 after
    ("class A { void a() { new X() { }; } void b() { new Y() { void k() { } }; } }",
     "class A { void a() { } void b() { new Y() { void k() { } }; } }", 0),
    # ... and stays A$2 when a() keeps its own
    ("class A { void a() { new X() { }; } void b() { new Y() { void k() { } }; } }",
     "class A { void a() { new X() { }; f(); } void b() { new Y() { void k() { } }; } }", 1),
    # a compact constructor is named with its record's component types
    ("class A { record R(int lo) { R { f(); } } }",
     "class A { record R(long lo) { R { f(); } } }", 0),
    # the same text in another type
    ("class A { void f() { } class B { } }",
     "class A { class B { void f() { } } }", 0),
    # the same text and type names in an anonymous class, whose field
    # initializers' calls are its method's
    ("class A$1 { int w = f(); } class A { void m() { } }",
     "class A { void m() { new Object() { int w = f(); }; } }", 0),
    # the same text first inside a comment, a string or a char literal
    # that opens before it and closes after it, where no token starts: the
    # copy is passed over and the member itself is taken
    ("class A { void f() { } }",
     "class A { /* void f() { } */ void f() { } }", 1),
    ("class A { void f() { } }",
     'class A { String s = "void f() { }"; void f() { } }', 1),
    ("class A { void f() { } }",
     "class A { char c = 'void f() { }'; void f() { } }", 1),
    ("class A { void f() { } }",
     "class A { // void f() { }\n void f() { } }", 1),
    # ... and only there
    ("class A { void f() { } }", "class A { /* void f() { } */ }", 0),
    ("class A { void f() { } }", "class A { // void f() { }\n}", 0),
    # an identifier that runs on into the text, which does not cost the
    # members after it
    ("class A { void f() { } void g() { } }", "class A { xvoid f() { } void g() { } }", 1),
    # a copy that the parse passes over, in an annotation's arguments
    ("class A { void f() { } void g() { } }",
     "class A { void g() { } @X( void f() { } ) int y; }", 0),
    # the same text first one brace deeper, in an edited method's body
    ("class A { void f() { } int x; }", "class A { void f() { int x; } int x; }", 1),
    # ... and not found further on, after the text up to it was lexed: a
    # member before that point is still taken
    ("class A { int x; void g() { } }", "class A { void g() { } void h() { int x; } }", 1),
    # non-ASCII digits and CRLF line ends before a taken member
    ("class A {\r\n  int x = 1;\r\n  void f() { }\r\n}\r\n",
     "class A {\r\n  int x = 1\u00b2;\r\n  int y\u0663 = 2;\r\n  void f() { }\r\n}\r\n", 1),
    # a member of the deepest tree, copied past an edit
    (_DEEP, _DEEP.replace("void f() { }", "void f() { g(); }"), 1),
])
def test_a_member_is_taken_only_where_it_parses_the_same(before_text, after_text, reused):
    after = parse_source(after_text, "java", parse_source(before_text, "java"))
    assert after.reused_members == reused
    _assert_reparse_equals_fresh_parse(before_text, after_text)


@pytest.mark.parametrize("after_text", [
    "class A { # void f() { } }",
    "class A { void f() { } # }",
    "class A { /* void f() { } }",
    "class A { void f() { } /* }",
    'class A { "void f() { } }',
    "class A { void f() { } ' }",
])
def test_a_lexer_error_near_a_taken_member_is_the_fresh_parses(after_text):
    _assert_reparse_equals_fresh_parse("class A { void f() { } }", after_text)


def test_a_reparse_lexes_only_the_text_outside_the_members_it_takes(monkeypatch):
    lexed = []
    lex = syntax._lex

    def recorded(text, scan, start, stop):
        lexed.append((start, stop))
        return lex(text, scan, start, stop)

    monkeypatch.setattr(syntax, "_lex", recorded)
    before = parse_source(BEFORE, "java")
    lexed.clear()
    text = BEFORE.replace("f(1);", "f(1); f(10);")
    after = parse_source(text, "java", before)
    count, _, b, inner = after.root.children[0].children[-1].children
    assert after.reused_members == 3
    # the text from count's end to b's start holds the edited a()
    assert lexed == [(0, count.start), (count.end, b.start), (b.end, inner.start),
                     (inner.end, len(text))]


def _filled(table, texts):
    """The shapes and sizes of the trees of ``texts``, each text parsed
    against the tree of the one before it and filled by ``table``."""
    trees, previous = [], None
    for text in texts:
        previous = parse_source(text, "java", previous)
        table.fill(previous.root)
        trees.append([(n.shape, n.size) for n in previous.root.walk()])
    return trees


def test_shapes_are_numbered_as_by_nested_keys_on_the_workload_trees():
    texts = [text for pair in _modified_pairs()[::3] for text in pair]
    assert _filled(ShapeTable(), texts) == _filled(ReferenceShapeTable(), texts)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_generated_classes(), min_size=1, max_size=3))
def test_shapes_are_numbered_as_by_nested_keys_on_generated_classes(texts):
    assert _filled(ShapeTable(), texts) == _filled(ReferenceShapeTable(), texts)


def test_trees_that_share_members_share_one_shape_table():
    before = parse_source(BEFORE, "java")
    after = parse_source(BEFORE.replace("g(2);", "g(3);"), "java", before)
    assert after.shapes is before.shapes is not None
    with pytest.raises(ValueError):
        diff_file_pair(after, parse_source(BEFORE, "java"), shapes=ShapeTable())
