"""Syntax trees hold no reference cycles, so a commit's trees are freed by
reference counting as soon as the last layer drops them."""

import gc

import pytest

from devcontrib.astdiff import diff_file_pair
from devcontrib.callgraph import extract_call_sites
from devcontrib.syntax import parse_source

BEFORE = """
class C {
    int add(int a, int b) {
        int sum = a + b;
        return sum;
    }
    void run(java.util.List<Integer> xs) {
        xs.forEach(x -> log.info("x " + x));
        new Helper().apply(add(1, 2));
        for (int i = 0; i < xs.size(); i++) { total += xs.get(i); }
    }
}
"""

AFTER = BEFORE.replace("int sum = a + b;", "int sum = a + b + 1;") \
    .replace("new Helper()", "new Worker()")


def _parse_and_use(steps):
    before = parse_source(BEFORE, "java")
    if steps >= 2:
        units = before.functions
        assert units
    if steps >= 3:
        assert extract_call_sites("C.java", before.functions)
    if steps >= 4:
        after = parse_source(AFTER, "java")
        _, actions, changesets = diff_file_pair(before, after)
        assert actions and changesets


@pytest.mark.parametrize("steps", [1, 2, 3, 4],
                         ids=["parse", "functions", "call_sites", "diff"])
def test_dropped_trees_leave_no_cyclic_garbage(steps):
    gc.collect()
    gc.disable()
    try:
        _parse_and_use(steps)
        assert gc.collect() == 0
    finally:
        gc.enable()
