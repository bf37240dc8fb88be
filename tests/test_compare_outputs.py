"""tests/compare_outputs.py prints a differing file as a unified diff without
context, but shows a long line only near its first difference."""
import difflib

from hypothesis import given
from hypothesis import strategies as st

from tests.compare_outputs import CONTEXT, LONG, diff_lines

SHORT_LINES = st.lists(st.text("ab", max_size=4), max_size=6)


@given(SHORT_LINES, SHORT_LINES)
def test_short_lines_print_as_difflib_does(parent, change):
    assert diff_lines(parent, change) == list(
        difflib.unified_diff(parent, change, "parent", "change", n=0, lineterm=""))


def test_a_long_line_shows_the_offset_and_the_text_around_its_first_difference():
    parent = '{"format": 3, "params": "' + "A" * 500 + "x" * 300 + '"}'
    change = '{"format": 3, "params": "' + "A" * 500 + "y" * 300 + '"}'
    at = 25 + 500
    window = "A" * (CONTEXT // 2)
    assert len(parent) > LONG
    assert diff_lines(["same", parent], ["same", change]) == [
        "--- parent", "+++ change", "@@ -2 +2 @@",
        f"-[{len(parent)} characters, first difference at {at}] {window}{'x' * (CONTEXT // 2)}",
        f"+[{len(change)} characters, first difference at {at}] {window}{'y' * (CONTEXT // 2)}",
    ]


def test_a_long_line_without_a_counterpart_differs_at_its_start():
    line = "z" * (LONG + 1)
    assert diff_lines([line], []) == [
        "--- parent", "+++ change", "@@ -1 +0,0 @@",
        f"-[{LONG + 1} characters, first difference at 0] {'z' * CONTEXT}",
    ]
