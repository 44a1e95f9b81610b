import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devcontrib.complexity import (
    comment_percentage,
    compute_raw,
    cyclomatic,
    halstead_volume,
    loc,
)
from devcontrib.syntax import FunctionUnit, SyntaxTree, parse_source
from oracles import reference_comment_percentage, reference_halstead_volume
from test_syntax import SAMPLE, _generated_classes

IDIOMS = Path(__file__).resolve().parent / "fixtures" / "Idioms.java"


def _unit(src, index=0):
    tree = parse_source(src, "java")
    return tree.functions[index], tree


def test_loc_one_line_function():
    unit, tree = _unit("class C { int one() { return 1; } }")
    assert loc(unit, tree) == 1


def test_loc_counts_physical_lines_including_blanks():
    src = """class C {
    void m() {
        int a = 1;

        int b = 2;

        int c = 3;

        int d = 4;
        use(a, b, c, d);
    }
}"""
    unit, tree = _unit(src)
    # span covers 10 physical lines, 3 of them blank
    assert loc(unit, tree) == 10


def test_loc_fixture_of_known_line_count():
    body_lines = [f"        int v{i} = {i};" for i in range(40)]
    src = "class C {\n    void m() {\n" + "\n".join(body_lines) + "\n    }\n}"
    unit, tree = _unit(src)
    assert loc(unit, tree) == 42


def test_cc_straight_line():
    unit, _ = _unit("class C { void m() { int a = 1; int b = a; use(b); } }")
    assert cyclomatic(unit) == 1


def test_cc_single_if():
    unit, _ = _unit("class C { void m(int p) { if (p > 0) { use(p); } } }")
    assert cyclomatic(unit) == 2


def test_cc_if_with_shortcircuit_plus_loop():
    src = """
    class C {
        void m(int a, int b) {
            if (a > 0 && b > 0) {
                use(a);
            }
            for (int i = 0; i < a; i++) {
                use(i);
            }
        }
    }
    """
    unit, _ = _unit(src)
    assert cyclomatic(unit) == 4


def test_cc_counts_cases_catches_and_ternary():
    src = """
    class C {
        int m(int k) {
            switch (k) {
                case 0:
                    return 1;
                case 1:
                    return 2;
                default:
                    break;
            }
            try {
                run(k);
            } catch (RuntimeException e) {
                reset();
            }
            return k > 0 ? k : -k;
        }
    }
    """
    unit, _ = _unit(src)
    # 1 + case0 + case1 + catch + ternary (default label not a decision)
    assert cyclomatic(unit) == 5


def test_hv_empty_body_zero():
    unit, tree = _unit("class C { void m() { } }")
    assert halstead_volume(unit, tree) == 0.0


def test_hv_hand_counted_example():
    # body "a = b + c": operators {=, +} N1=2; operands {a, b, c} N2=3
    unit, tree = _unit("class C { void m() { a = b + c; } }")
    assert halstead_volume(unit, tree) == pytest.approx(5 * math.log2(5), rel=1e-12)


def test_hv_duplicating_statement_doubles_volume():
    one, tree1 = _unit("class C { void m() { a = b + c; } }")
    two, tree2 = _unit("class C { void m() { a = b + c; a = b + c; } }")
    v1 = halstead_volume(one, tree1)
    v2 = halstead_volume(two, tree2)
    assert v2 == pytest.approx(2 * v1, rel=1e-12)


def test_hv_call_parentheses_counted_once_per_call():
    # operators: ()x2, =; operands: r, f, g, x -> N=8 eta=7... hand count:
    # tokens r = f ( g ( x ) ) -> operators {=, ()x2} N1=3 eta1=2
    # operands {r, f, g, x} N2=4 eta2=4
    unit, tree = _unit("class C { void m() { r = f(g(x)); } }")
    assert halstead_volume(unit, tree) == pytest.approx(7 * math.log2(6), rel=1e-12)


def test_pcom_zero_without_comments():
    unit, tree = _unit("class C { void m() { int a = 1; } }")
    assert comment_percentage(unit, tree) == 0.0


def test_pcom_three_of_twelve():
    lines = ["class C {", "    void m() {"]
    lines += ["        /* alpha", "           beta", "           gamma */"]
    lines += [f"        int v{i} = {i};" for i in range(7)]
    lines += ["    }"]
    src = "\n".join(lines) + "\n}"
    unit, tree = _unit(src)
    assert loc(unit, tree) == 12
    assert comment_percentage(unit, tree) == pytest.approx(0.25)


def test_pcom_full_comment_function():
    src = "class C {\n    void m() { /* a\n b\n c */ }\n}"
    unit, tree = _unit(src)
    assert comment_percentage(unit, tree) == 1.0


_BLOCK = ["/* c */", "/* a\n   b */", "/** doc\n * more\n */"]
_STATEMENT = ["int v = 1;", "f(a, b);", "Runnable r = () -> { g(); };",
              "if (a > b) { a = b; }", "return;"]


@st.composite
def _commented_sources(draw):
    """A class whose lines carry comments in random places: block comments
    before code on its line, any comment after it, comment-only lines, and
    comments that span lines, between methods as well as in them."""
    lead = st.sampled_from([""] * 3 + [c + " " for c in _BLOCK])
    trail_block = st.sampled_from([""] * 3 + [" " + c for c in _BLOCK])
    trail = st.one_of(trail_block, st.just(" // t"))
    lines = ["class C {"]
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["// between", *_BLOCK, ""])))
        one_line = draw(st.booleans())
        body = [draw(lead) + draw(st.sampled_from(_STATEMENT))
                + draw(trail_block if one_line else trail)
                for _ in range(draw(st.integers(0, 4)))]
        header = draw(lead) + f"void m{i}(int a, int b) {{"
        if one_line:
            lines.append(" ".join([header, *body, "}"]) + draw(trail))
            continue
        lines.append(header + draw(trail))
        for stmt in body:
            lines.append(stmt)
            if draw(st.booleans()):
                lines.append(draw(st.sampled_from(["// alone", *_BLOCK, ""])))
        lines.append(draw(lead) + "}" + draw(trail))
    lines.append("}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_commented_sources())
@example(IDIOMS.read_text(encoding="utf-8"))
@example("class C {\n    /* c */ void m() {}\n}\n")
@example("class C {\n    void m() {\n        f();\n    } // t\n}\n")
@example("class C {\n    /* a\n       b */ void m() {\n    } /* c\n    d */\n}\n")
def test_comment_percentage_equals_the_per_line_reference(source):
    tree = parse_source(source, "java")
    units = tree.functions
    assert units
    for unit in units:
        assert comment_percentage(unit, tree) == reference_comment_percentage(unit, tree), \
            unit.qualified_name


def test_metrics_bounds_and_comment_insertion_invariance():
    before_src = """
    class C {
        int m(int p) {
            int a = 1;
            if (p > a) {
                a = p;
            }
            return a;
        }
    }
    """
    after_src = before_src.replace("int a = 1;", "// pick the larger value\n            int a = 1;")
    before, btree = _unit(before_src)
    after, atree = _unit(after_src)
    raw_before = compute_raw(before, btree)
    raw_after = compute_raw(after, atree)
    assert raw_before.cc == raw_after.cc
    assert raw_before.hv == raw_after.hv
    assert raw_after.loc == raw_before.loc + 1
    assert raw_after.pcom > raw_before.pcom
    assert raw_before.cc >= 1 and raw_before.hv >= 0 and 0 <= raw_before.pcom <= 1
    assert raw_before.loc >= 1


def _assert_hv_equals_the_token_loop(source):
    tree = parse_source(source, "java")
    for unit in tree.functions:
        assert halstead_volume(unit, tree) == reference_halstead_volume(unit, tree)


@pytest.mark.parametrize("source", [IDIOMS.read_text(), SAMPLE], ids=["idioms", "sample"])
def test_hv_equals_the_token_loop(source):
    _assert_hv_equals_the_token_loop(source)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_generated_classes())
def test_hv_equals_the_token_loop_on_generated_classes(src):
    _assert_hv_equals_the_token_loop(src)


def test_halstead_volume_is_zero_for_untokenizable_body():
    unit, tree = _unit('class C { String s() { return "a;b"; } }')
    # same length, so the unit's span now covers an unterminated literal
    broken = SyntaxTree(tree.root, tree.source_text.replace('"a;b"', '"a;b;'))
    assert halstead_volume(unit, broken) == 0.0
    assert halstead_volume(unit, tree) > 0.0


def test_cc_counts_switch_rules_like_case_labels():
    src = """
    class C {
        int m(int k) {
            switch (k) {
                case 0 -> k = 1;
                case 1, 2 -> k = 2;
                default -> k = 3;
            }
            return k;
        }
    }
    """
    unit, _ = _unit(src)
    # 1 + two case labels (default label not a decision)
    assert cyclomatic(unit) == 3
