from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devcontrib.astdiff import diff_file_pair
from devcontrib.complexity import comment_percentage, loc
from devcontrib.errors import ParseError
from devcontrib.syntax import (
    MAX_TREE_DEPTH,
    SyntaxNode,
    SyntaxTree,
    is_log_call_statement,
    parse_source,
    tokenize,
)
from oracles import (
    reference_comment_percentage,
    reference_isomorphic,
    reference_line_starts,
    reference_tokenize,
    reference_units,
)

IDIOMS = Path(__file__).resolve().parent / "fixtures" / "Idioms.java"

SAMPLE = """
package demo;

import java.util.List;

public class Greeter {
    private int count;

    @Override
    public String greet(String name, int times) {
        String out = "";
        for (int i = 0; i < times; i++) {
            out = out + name;
        }
        return out;
    }

    private int size(List<String> xs) {
        return xs.size();
    }

    private int size(int[] xs) {
        return xs.length;
    }
}
"""


def test_empty_source():
    tree = parse_source("", "java")
    assert tree.root.kind == "compilation_unit"
    assert tree.root.children == ()  # the empty tuple every leaf shares
    assert tree.functions == []


def test_single_function_extraction():
    tree = parse_source("class C { int one() { return 1; } }", "java")
    units = tree.functions
    assert len(units) == 1
    assert units[0].qualified_name == "C.one()"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_source("class C { int broken( { }", "java")
    assert exc.value.position is not None


def test_two_methods_and_overloads():
    tree = parse_source(SAMPLE, "java")
    names = [u.qualified_name for u in tree.functions]
    assert names == [
        "Greeter.greet(String,int)",
        "Greeter.size(List<String>)",
        "Greeter.size(int[])",
    ]


def test_nested_lambda_gets_synthesized_name():
    src = """
    class C {
        void m() {
            Runnable r = () -> { helper(); };
        }
    }
    """
    tree = parse_source(src, "java")
    names = [u.qualified_name for u in tree.functions]
    assert names[0] == "C.m()"
    assert names[1].endswith("$lambda0")
    # round trip: the lambda's body is inside the enclosing method's span
    units = tree.functions
    assert units[0].span[0] <= units[1].span[0] <= units[1].span[1] <= units[0].span[1]


def test_depth_rule_everywhere():
    tree = parse_source(SAMPLE, "java")
    for node in tree.root.walk():
        if node.children:
            assert node.height == 1 + max(c.height for c in node.children)
        else:
            assert node.height == 1


def test_spans_nest_properly():
    # the differ's edit script relies on this (see ``astdiff.edit_script``)
    for source in (SAMPLE, IDIOMS.read_text()):
        for node in parse_source(source, "java").root.walk():
            for child in node.children:
                assert node.start <= child.start <= child.end <= node.end


def test_deterministic_reparse():
    t1 = parse_source(SAMPLE, "java")
    t2 = parse_source(SAMPLE, "java")
    assert reference_isomorphic(t1.root, t2.root)
    spans1 = [(n.kind, n.start, n.end) for n in t1.root.walk()]
    spans2 = [(n.kind, n.start, n.end) for n in t2.root.walk()]
    assert spans1 == spans2


def _one_action(before_src, after_src):
    _, actions, _ = diff_file_pair(parse_source(before_src, "java"),
                                   parse_source(after_src, "java"))
    [action] = actions
    return action


def test_classify_identifier_is_name_bearing():
    action = _one_action("class C { void m() { int value = 1; } }",
                         "class C { void m() { int total = 1; } }")
    assert (action.kind, action.after_node.kind) == ("update", "identifier")
    assert action.only_name_or_modifier


def test_classify_annotation_and_modifier():
    annotation = _one_action(SAMPLE, SAMPLE.replace("@Override", "@Deprecated"))
    assert (annotation.kind, annotation.after_node.label) == ("update", "@Deprecated")
    assert annotation.after_node.kind == "annotation"
    assert annotation.only_name_or_modifier
    modifier = _one_action(SAMPLE, SAMPLE.replace("private int count;",
                                                  "protected int count;"))
    assert (modifier.kind, modifier.after_node.kind) == ("update", "modifier")
    assert modifier.only_name_or_modifier


@pytest.mark.parametrize("call", [
    "log.debug(msg)", "logger.info(msg)", "print(msg)",
    "System.out.println(msg)", "System.err.print(msg)",
])
def test_classify_log_statements(call):
    tree = parse_source(f"class C {{ void m(String msg) {{ {call}; }} }}", "java")
    stmt = next(n for n in tree.root.walk() if n.kind == "expr_stmt")
    assert is_log_call_statement(stmt)


def test_non_blacklisted_call_is_other():
    tree = parse_source("class C { void m() { compute(); } }", "java")
    stmt = next(n for n in tree.root.walk() if n.kind == "expr_stmt")
    assert not is_log_call_statement(stmt)


def test_comments_not_in_tree():
    src = "class C { /* a block */ void m() { } // trailing\n }"
    tree = parse_source(src, "java")
    assert len(tree.comments) == 2
    for node in tree.root.walk():
        assert node.kind != "comment"


def _comment_lines(tree, span):
    """(comment_lines, total_lines) over the physical lines a span covers,
    read off comment_percentage and loc, which only look at a unit's span;
    the per-line reference must give the same share."""
    region = SimpleNamespace(span=span)
    total = loc(region, tree)
    share = comment_percentage(region, tree)
    assert share == reference_comment_percentage(region, tree)
    return (round(share * total), total)


def test_comment_metrics_no_comments():
    src = "class C {\n" + "".join(f"    int f{i};\n" for i in range(8)) + "}\n"
    tree = parse_source(src, "java")
    assert _comment_lines(tree, (0, len(src) - 1)) == (0, 10)


def test_comment_metrics_block_comment_three_of_twelve():
    lines = ["class C {"]
    lines += ["    int a1;", "    /* one", "       two", "       three */"]
    lines += [f"    int b{i};" for i in range(6)]
    lines += ["}"]
    src = "\n".join(lines) + "\n"
    tree = parse_source(src, "java")
    assert _comment_lines(tree, (0, len(src) - 1)) == (3, 12)


def test_comment_metrics_all_comment_region():
    src = "class C {\n// x\n// y\n// z\n}\n"
    tree = parse_source(src, "java")
    start = src.index("// x")
    end = src.index("}")
    assert _comment_lines(tree, (start, end - 1)) == (3, 3)


@pytest.mark.parametrize("text", [
    IDIOMS.read_text(), "", "class C {\n  int x;\n}", "class C {\r\n  int x;\r\n}\r\n",
    "\n\nclass Café { String s = \"ü€\"; }\n// 日本語\n\n",
], ids=["fixture", "empty", "no-final-newline", "crlf", "non-ascii"])
def test_line_starts_equal_the_per_character_scan(text):
    tree = SyntaxTree(SyntaxNode("compilation_unit"), text)
    assert tree.line_starts == reference_line_starts(text)


def test_unknown_language_raises():
    with pytest.raises(ParseError):
        parse_source("whatever", "cobol")


def _lex(text):
    """``tokenize``'s tokens as (kind, text, start, end) tuples, and its
    comments; or its error's message and position."""
    try:
        columns, comments = tokenize(text)
    except ParseError as exc:
        return (str(exc), exc.position)
    return list(zip(*columns)), comments


def _reference_lex(text):
    try:
        return reference_tokenize(text)
    except ParseError as exc:
        return (str(exc), exc.position)


# Fragments the lexer treats specially, next to arbitrary characters: number
# shapes, quotes and escapes, comment marks, operators, non-ASCII letters,
# decimal and non-decimal digits, numerics that are no digits, and
# whitespace outside the grammar.
_FRAGMENTS = st.sampled_from([
    "0x1F", "0X", "1_0", "1.5e-3", "2f", "7L", ".5", ".", "...", "e", "_", "$",
    '"', "'", "\\", "/", "*", "//", "/*", "*/", "\n", " ", ">>>=", ">>", "<",
    "é", "ª", "中", "\u0301", "²", "¹", "①", "٣", "𝟘", "½", "Ⅻ", "\v", "\xa0",
])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_FRAGMENTS, st.characters()), max_size=24).map("".join))
def test_tokenize_matches_reference_lexer(text):
    assert _lex(text) == _reference_lex(text)


def test_tokenize_matches_reference_lexer_on_a_file():
    assert _lex(SAMPLE) == reference_tokenize(SAMPLE)


@pytest.mark.parametrize("text", ["", "  \n", "a ", "a // c", "/* c */\n", "x\t"])
def test_tokenize_ends_in_one_eof_token_at_the_end_of_the_text(text):
    (kinds, texts, starts, ends), _ = tokenize(text)
    assert kinds.count("eof") == 1
    assert (kinds[-1], texts[-1], starts[-1], ends[-1]) == ("eof", "", len(text), len(text))


@pytest.mark.parametrize("text, message, position", [
    ("x = ' + \"a #", "unterminated char literal", 4),
    ("a ½ /* b", "unexpected character '½'", 2),
    ("\"a\\\\\" # '", "unexpected character '#'", 6),
])
def test_tokenize_reports_the_first_fault_in_the_text(text, message, position):
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert (str(exc.value), exc.value.position) == (message, position)


def _method(body):
    return "class C { int m(int x) { " + body + " } }"


@pytest.mark.parametrize("source", [
    _method("return " + "(" * 400 + "x" + ")" * 400 + ";"),
    _method("if (x > 0) { " * 300 + "x++;" + " }" * 300),
    _method("String s = " + " + ".join(['"a"'] * 3000) + ";"),
], ids=["parentheses", "ifs", "concatenation"])
def test_deep_nesting_is_a_parse_error(source):
    with pytest.raises(ParseError):
        parse_source(source, "java")


def test_a_call_on_a_long_name_chain_fails_only_by_the_depth_check():
    # the parse names each call it builds; past the recursion limit that
    # naming must not be what fails, so the error keeps its position
    with pytest.raises(ParseError) as exc:
        parse_source(_method("x" + ".a" * 2000 + "();"), "java")
    assert exc.value.position is not None


def _concatenation(terms):
    # the tree is ``terms`` + 6 levels deep
    return "class C { String s() { return " + " + ".join(['"a"'] * terms) + "; } }"


def test_tree_depth_limit_is_exact():
    tree = parse_source(_concatenation(MAX_TREE_DEPTH - 6), "java")
    assert tree.root.height == MAX_TREE_DEPTH
    assert [u.qualified_name for u in tree.functions] == ["C.s()"]
    assert reference_isomorphic(tree.root,
                                parse_source(_concatenation(MAX_TREE_DEPTH - 6)).root)
    with pytest.raises(ParseError) as exc:
        parse_source(_concatenation(MAX_TREE_DEPTH - 5), "java")
    assert exc.value.position is not None


def test_syntax_tree_rejects_a_deep_chain():
    # built from the leaf up, as the parser builds: a node's height is set
    # from its children when it is made
    node = SyntaxNode("block")
    for _ in range(MAX_TREE_DEPTH):
        node = SyntaxNode("block", [node])
    assert node.height == MAX_TREE_DEPTH + 1
    with pytest.raises(ParseError):
        SyntaxTree(node, "")


@st.composite
def _spine_trees(draw):
    """A chain of nodes around ``MAX_TREE_DEPTH`` long, where some chain
    nodes get a short side chain before or after the next chain node, so
    the deepest level may be reached on more than one path.  Each node
    starts at its own offset."""
    length = draw(st.integers(MAX_TREE_DEPTH - 3, MAX_TREE_DEPTH + 3))
    sides = draw(st.lists(st.tuples(st.integers(0, length - 1), st.integers(1, 5),
                                    st.booleans()), max_size=10))
    # Spine node ``i`` starts at ``i``; side chains follow in drawn order.
    # Nodes are built from the leaves up, so every node gets its final
    # children when it is made; a later side chain "before" the next chain
    # node goes in front of the earlier ones, a later one "after" behind.
    heads = [[] for _ in range(length)]
    tails = [[] for _ in range(length)]
    start = length
    for level, side_length, before in sides:
        side = None
        for offset in reversed(range(side_length)):
            side = SyntaxNode("block", [side] if side else None, start + offset)
        start += side_length
        if before:
            heads[level].insert(0, side)
        else:
            tails[level].append(side)
    node = None
    for level in reversed(range(length)):
        node = SyntaxNode("block", heads[level] + ([node] if node else []) + tails[level],
                          level)
    return node


def _starts_by_depth(root):
    """{depth: starts of the nodes at that depth}, the root at depth 1."""
    out, stack = {}, [(root, 1)]
    while stack:
        node, depth = stack.pop()
        out.setdefault(depth, set()).add(node.start)
        stack.extend((child, depth + 1) for child in node.children)
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_spine_trees())
def test_syntax_tree_raises_exactly_when_too_deep_at_a_too_deep_node(root):
    starts = _starts_by_depth(root)
    if max(starts) <= MAX_TREE_DEPTH:
        assert SyntaxTree(root, "").root is root
        return
    with pytest.raises(ParseError) as exc:
        SyntaxTree(root, "")
    assert exc.value.position in starts[MAX_TREE_DEPTH + 1]


def test_function_units_are_extracted_once_per_tree():
    # the parse builds the units; reading them derives nothing again
    tree = parse_source(SAMPLE, "java")
    assert tree.functions is tree.functions
    # equal names, spans and calls, and the very body nodes of the tree
    # (a ``SyntaxNode`` equals only itself)
    assert tree.functions == reference_units(tree)


def test_a_local_declaration_that_backs_off_drops_what_its_initializer_built():
    # the declaration attempt parses ``c = f(…)``, meets ``2`` where a name
    # must follow the comma, and the loop's init is parsed again as
    # expressions: each unit, call and number must be taken once
    src = ("class A { void m() { for (a < b > c = f(() -> g(1), "
           "new Object() { void k() { h(); } }), 2; ; ) { } } }")
    tree = parse_source(src, "java")
    assert [(u.qualified_name, u.calls) for u in tree.functions] == [
        ("A.m()", ["f", "g", "Object"]), ("A.m()$lambda0", []), ("A$1.k()", ["h"])]
    assert tree.functions == reference_units(tree)


_CALLEES = st.sampled_from(["f", "g", "a.b", "p.q.r", "this.h", "super.k"])
_CHAINED = st.sampled_from(["m", "b.c"])


def _expression_forms(inner):
    """Expressions built from ``inner`` ones: calls, call chains, creations,
    anonymous classes (one with a member class), and lambdas, whose blocks
    hold local declarations and a loop whose declaration attempt backs
    off."""
    args = st.lists(inner, max_size=2).map(", ".join)
    return st.one_of(
        st.builds("{}({})".format, _CALLEES, args),
        st.builds("{}({}).{}({})".format, _CALLEES, args, _CHAINED, args),
        st.builds("{}().m({}).n({})".format, _CALLEES, args, args),
        st.builds("new Foo<Bar>({})".format, args),
        st.builds("new Base({}) {{ int w = {}; void k() {{ {}; }} }}".format,
                  args, inner, inner),
        st.builds("new Base() {{ void k() {{ {}; }} }}.run({})".format, inner, args),
        st.builds("({} + {})".format, inner, inner),
        st.builds("y -> {}".format, inner),
        st.builds("(String y) -> {}".format, inner),
        st.builds("() -> {{ {}; }}".format, inner),
        st.builds("() -> {{ int v = {}; {}; }}".format, inner, inner),
        st.builds("new Object() {{ class L {{ int w = {}; void n() {{ {}; }} }} }}".format,
                  inner, inner),
        st.builds("() -> {{ for (a < b > c = {}, 2; ; ) {{ }} }}".format, inner),
    )


_EXPRESSIONS = st.recursive(st.sampled_from(["x", "1", "s"]), _expression_forms,
                            max_leaves=12)


@st.composite
def _generated_classes(draw):
    e = [draw(_EXPRESSIONS) for _ in range(6)]
    return f"""
    class A {{
        Runnable r = {e[0]};
        A(int x) {{ this({e[1]}); }}
        void m(int x, String... s) {{ {e[2]}; int v = {e[3]}; }}
        class In {{ void n(int[] xs) {{ {e[4]}; }} }}
        record R(int lo, long[] hi) {{ R {{ {e[5]}; }} }}
    }}
    """


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_generated_classes())
def test_units_equal_the_reference_walk_on_generated_classes(src):
    tree = parse_source(src, "java")
    assert tree.functions == reference_units(tree)


def _shape(node):
    """(kind, label, children) with labels kept on leaves only."""
    if not node.children:
        return (node.kind, node.label)
    return (node.kind, [_shape(c) for c in node.children])


def test_record_declaration_is_a_container_with_its_components():
    src = """
    public record Range<T>(int lo, int hi) implements Comparable<Range> {
        Range { check(lo); }
        static int width(int x) { return x; }
    }
    """
    tree = parse_source(src, "java")
    (decl,) = tree.root.children
    assert decl.kind == "record_decl"
    assert [c.kind for c in decl.children] == [
        "modifier", "identifier", "record_components", "type", "class_body"]
    assert _shape(decl.children[2]) == ("record_components", [
        ("param", [("type", "int"), ("identifier", "lo")]),
        ("param", [("type", "int"), ("identifier", "hi")]),
    ])
    names = [u.qualified_name for u in tree.functions]
    # javac names the compact constructor after the record's components
    assert names == ["Range.Range(int,int)", "Range.width(int)"]


def test_record_is_a_keyword_only_before_a_declaration():
    src = """
    class C {
        record Point(int x, int y) { }
        int record(int record) { record = record + 1; return record; }
    }
    """
    tree = parse_source(src, "java")
    names = [u.qualified_name for u in tree.functions]
    assert names == ["C.record(int)"]
    body = tree.root.children[0].children[-1]
    assert [c.kind for c in body.children] == ["record_decl", "method_decl"]


def test_switch_rules_parse_to_one_label_and_one_body():
    src = """
    class C {
        int m(int x) {
            switch (x) {
                case 1, 2 -> x = x + 1;
                case RED -> { x = 0; }
                case 3 -> throw new IllegalStateException();
                default -> x = x - 1;
            }
            return x;
        }
    }
    """
    unit = parse_source(src, "java").functions[0]
    switch = next(n for n in unit.body.walk() if n.kind == "switch_stmt")
    rules = switch.children[1:]
    assert [r.kind for r in rules] == ["switch_rule"] * 4
    assert [[c.kind for c in r.children] for r in rules] == [
        ["case_label", "expr_stmt"], ["case_label", "block"],
        ["case_label", "throw_stmt"], ["default_label", "expr_stmt"]]
    assert _shape(rules[0].children[0]) == (
        "case_label", [("literal", "1"), ("literal", "2")])
    assert _shape(rules[1].children[0]) == ("case_label", [("identifier", "RED")])


def test_colon_labels_may_list_several_constants():
    src = "class C { void m(int x) { switch (x) { case 1, 2: f(); default: g(); } } }"
    unit = parse_source(src, "java").functions[0]
    switch = next(n for n in unit.body.walk() if n.kind == "switch_stmt")
    assert [g.kind for g in switch.children[1:]] == ["switch_group", "switch_group"]
    assert _shape(switch.children[1].children[0]) == (
        "case_label", [("literal", "1"), ("literal", "2")])
