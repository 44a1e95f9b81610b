import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devcontrib.errors import ParseError
from devcontrib.syntax import (
    MAX_TREE_DEPTH,
    NodeCategory,
    SyntaxNode,
    SyntaxTree,
    classify_node,
    comment_metrics,
    extract_functions,
    parse_source,
    tokenize,
)
from oracles import reference_tokenize

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
    assert tree.root.children == []
    assert extract_functions(tree) == []


def test_single_function_extraction():
    tree = parse_source("class C { int one() { return 1; } }", "java")
    units = extract_functions(tree)
    assert len(units) == 1
    assert units[0].qualified_name == "C.one()"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_source("class C { int broken( { }", "java")
    assert exc.value.position is not None


def test_two_methods_and_overloads():
    tree = parse_source(SAMPLE, "java")
    names = [u.qualified_name for u in extract_functions(tree)]
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
    names = [u.qualified_name for u in extract_functions(tree)]
    assert names[0] == "C.m()"
    assert names[1].endswith("$lambda0")
    # round trip: the lambda's body is inside the enclosing method's span
    units = extract_functions(tree)
    assert units[0].span[0] <= units[1].span[0] <= units[1].span[1] <= units[0].span[1]


def test_depth_rule_everywhere():
    tree = parse_source(SAMPLE, "java")
    for node in tree.root.walk():
        if node.children:
            assert node.height == 1 + max(c.height for c in node.children)
        else:
            assert node.height == 1


def test_spans_nest_properly():
    tree = parse_source(SAMPLE, "java")
    for node in tree.root.walk():
        for child in node.children:
            assert node.start <= child.start <= child.end <= node.end


def test_deterministic_reparse():
    t1 = parse_source(SAMPLE, "java")
    t2 = parse_source(SAMPLE, "java")
    assert t1.root.isomorphic_to(t2.root)
    spans1 = [(n.kind, n.start, n.end) for n in t1.root.walk()]
    spans2 = [(n.kind, n.start, n.end) for n in t2.root.walk()]
    assert spans1 == spans2


def test_classify_identifier_is_name_bearing():
    tree = parse_source("class C { void m() { int value = 1; } }", "java")
    leaf = next(n for n in tree.root.walk()
                if n.kind == "identifier" and n.label == "value")
    assert classify_node(leaf) is NodeCategory.NAME_BEARING


def test_classify_annotation_and_modifier():
    tree = parse_source(SAMPLE, "java")
    annotation = next(n for n in tree.root.walk() if n.kind == "annotation")
    assert annotation.label == "@Override"
    assert classify_node(annotation) is NodeCategory.MODIFIER
    modifier = next(n for n in tree.root.walk() if n.kind == "modifier")
    assert classify_node(modifier) is NodeCategory.MODIFIER


@pytest.mark.parametrize("call", [
    "log.debug(msg)", "logger.info(msg)", "print(msg)",
    "System.out.println(msg)", "System.err.print(msg)",
])
def test_classify_log_statements(call):
    tree = parse_source(f"class C {{ void m(String msg) {{ {call}; }} }}", "java")
    stmt = next(n for n in tree.root.walk() if n.kind == "expr_stmt")
    assert classify_node(stmt) is NodeCategory.LOG_STATEMENT


def test_non_blacklisted_call_is_other():
    tree = parse_source("class C { void m() { compute(); } }", "java")
    stmt = next(n for n in tree.root.walk() if n.kind == "expr_stmt")
    assert classify_node(stmt) is NodeCategory.OTHER


def test_comments_not_in_tree():
    src = "class C { /* a block */ void m() { } // trailing\n }"
    tree = parse_source(src, "java")
    assert len(tree.comments) == 2
    for node in tree.root.walk():
        assert node.kind != "comment"


def test_comment_metrics_no_comments():
    src = "class C {\n" + "".join(f"    int f{i};\n" for i in range(8)) + "}\n"
    tree = parse_source(src, "java")
    assert comment_metrics(tree, (0, len(src) - 1)) == (0, 10)


def test_comment_metrics_block_comment_three_of_twelve():
    lines = ["class C {"]
    lines += ["    int a1;", "    /* one", "       two", "       three */"]
    lines += [f"    int b{i};" for i in range(6)]
    lines += ["}"]
    src = "\n".join(lines) + "\n"
    tree = parse_source(src, "java")
    assert comment_metrics(tree, (0, len(src) - 1)) == (3, 12)


def test_comment_metrics_all_comment_region():
    src = "class C {\n// x\n// y\n// z\n}\n"
    tree = parse_source(src, "java")
    start = src.index("// x")
    end = src.index("}")
    assert comment_metrics(tree, (start, end - 1)) == (3, 3)


def test_unknown_language_raises():
    with pytest.raises(ParseError):
        parse_source("whatever", "cobol")


def _lex(lexer, text):
    try:
        return lexer(text)
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
    assert _lex(tokenize, text) == _lex(reference_tokenize, text)


def test_tokenize_matches_reference_lexer_on_a_file():
    assert tokenize(SAMPLE) == reference_tokenize(SAMPLE)


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


def _concatenation(terms):
    # the tree is ``terms`` + 6 levels deep
    return "class C { String s() { return " + " + ".join(['"a"'] * terms) + "; } }"


def test_tree_depth_limit_is_exact():
    tree = parse_source(_concatenation(MAX_TREE_DEPTH - 6), "java")
    assert tree.root.height == MAX_TREE_DEPTH
    assert [u.qualified_name for u in tree.functions] == ["C.s()"]
    assert tree.root.isomorphic_to(parse_source(_concatenation(MAX_TREE_DEPTH - 6)).root)
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


def test_function_units_are_extracted_once_per_tree(monkeypatch):
    from devcontrib import syntax

    calls = []

    def counting(tree):
        calls.append(tree)
        return extract_functions(tree)

    monkeypatch.setattr(syntax, "extract_functions", counting)
    tree = parse_source(SAMPLE, "java")
    assert tree.functions is tree.functions
    assert calls == [tree]


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
    names = [u.qualified_name for u in extract_functions(tree)]
    assert names == ["Range.Range()", "Range.width(int)"]


def test_record_is_a_keyword_only_before_a_declaration():
    src = """
    class C {
        record Point(int x, int y) { }
        int record(int record) { record = record + 1; return record; }
    }
    """
    tree = parse_source(src, "java")
    names = [u.qualified_name for u in extract_functions(tree)]
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
    unit = extract_functions(parse_source(src, "java"))[0]
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
    unit = extract_functions(parse_source(src, "java"))[0]
    switch = next(n for n in unit.body.walk() if n.kind == "switch_stmt")
    assert [g.kind for g in switch.children[1:]] == ["switch_group", "switch_group"]
    assert _shape(switch.children[1].children[0]) == (
        "case_label", [("literal", "1"), ("literal", "2")])
