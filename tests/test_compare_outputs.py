"""tests/compare_outputs.py prints a differing file as a unified diff without
context, but shows a long line only near its first difference, and digests
what each artifact loads, whatever its encoding, and what a learned one
forecasts row by row."""
import difflib
import json
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from robustcast import partition
from robustcast.partition import Fit, FixedPartition, load_artifact
from tests.compare_outputs import (
    CONTEXT, LONG, _subset_fits, diff_lines, digest, print_digests,
)

GOLDEN = Path(__file__).parent / "data" / "learned_lr_q5.json"

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


def label(line: str) -> str:
    """What a digest line is about: `subset 3` for a subset's line, the
    first word of a line without a colon, such as `deploy`."""
    return line.split(":")[0] if ":" in line else line.split(" ")[0]


def _copy(params):
    return replace(params, arrays={k: v.copy() for k, v in params.arrays.items()})


def test_a_digest_shows_each_subset_and_split_and_not_how_sets_are_shared():
    part = load_artifact(GOLDEN)
    lines = digest(part).splitlines()
    assert lines[:2] == ["kind learned", f"layout {json.dumps(asdict(part.arch))}"]
    assert "leaf_ids [3, 4, 5, 7, 8]" in lines
    assert "split 1: leaf 0 feature 1 adv True" in lines
    assert sum(line.startswith("subset ") for line in lines) == len(part.subsets) == 9
    # a copy of the root's opt set, which subsets 1 and 3 inherit, digests alike
    assert digest(replace(part, opt=Fit(_copy(part.opt.params), part.opt.loss))) == \
        digest(part)
    # one bit of it changes the line of each subset that uses it, and the
    # forecasts of the rows that reach one of them
    flipped = _copy(part.opt.params)
    flipped.arrays["w"].view("u8")[0] ^= 1
    changed = digest(replace(part, opt=Fit(flipped, part.opt.loss))).splitlines()
    assert {label(line) for line, other in zip(lines, changed, strict=True)
            if line != other} == {"subset 0", "subset 1", "subset 3", "deploy"}


def test_a_subset_digests_alike_in_either_record_layout():
    # a checkout before subsets held their fits stored them as four fields
    for subset in load_artifact(GOLDEN).subsets:
        old = SimpleNamespace(params_opt=subset.opt.params, lower_bound=subset.opt.loss,
                              params_adv=subset.adv.params, upper_bound=subset.adv.loss)
        fits = (subset.opt.params, subset.opt.loss, subset.adv.params, subset.adv.loss)
        assert _subset_fits(old) == _subset_fits(subset) == fits


def test_a_learned_digest_holds_its_one_row_forecasts_cold_or_warm(monkeypatch):
    part = load_artifact(GOLDEN)
    first = digest(part)  # builds the plans of its rows' patterns
    assert part._plans
    assert digest(part) == first  # every plan cached
    assert [label(line) for line in first.splitlines()].count("deploy") == 1
    # one-row deployment that moves a forecast by one bit shows in the digest
    run = partition._run_plan
    monkeypatch.setattr(partition, "_run_plan",
                        lambda plan, x: np.nextafter(run(plan, x), np.inf))
    moved = digest(replace(part)).splitlines()
    assert [label(line) for line, other in zip(first.splitlines(), moved, strict=True)
            if line != other] == ["deploy"]


def test_a_fixed_digest_lists_each_fit_shared_or_not():
    part = load_artifact(GOLDEN)
    shared = FixedPartition([Fit(part.opt.params, 0.5), Fit(part.opt.params, 1.5)])
    copied = FixedPartition([Fit(part.opt.params, 0.5), Fit(_copy(part.opt.params), 1.5)])
    assert digest(shared) == digest(copied)
    assert [line.split(" params ")[0] for line in digest(shared).splitlines()[2:]] == [
        "subset 0: loss 0.5", "subset 1: loss 1.5"]


def test_print_digests_shows_a_file_that_does_not_load_by_its_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[]", encoding="utf-8")
    print_digests([str(GOLDEN), str(bad)])
    found = json.loads(capsys.readouterr().out)
    assert found[str(GOLDEN)] == digest(load_artifact(GOLDEN))
    assert found[str(bad)].startswith("load error ParseError: artifact ")
