"""The artifact file format: one table of distinct parameter sets that the
rest of the file refers to by index, each array stored as the base64 of its
little-endian float64 bytes."""
import base64
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcast.exceptions import DomainError, ParseError
from robustcast.models import Architecture, ModelParams, init_params
from robustcast.partition import (
    Fit,
    FixedPartition,
    FixedSubset,
    Partition,
    PartitionConfig,
    Split,
    UncertaintySet,
    load_artifact,
    param_sets,
    save_artifact,
)

# -0.0, subnormals, the float64 extremes and non-finite values, mixed with
# whatever floats hypothesis draws (subnormals included)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.1e-308, -2.2250738585072014e-308,
           1.7976931348623157e308, np.inf, -np.inf, np.nan]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


@st.composite
def artifacts(draw):
    """A bare model, fixed partition or learned partition (tree depth 0-3)
    of either family, plain or adaptive. Sets are shared, copied, or copied
    with another bias_index, as well as drawn afresh, so the table has
    repeats of one object, repeats of one content, and near-repeats to keep
    apart; a learned child's inherited sets are its parent's objects."""
    family = draw(st.sampled_from(["lr", "nn"]))
    adaptive = draw(st.booleans())
    n_mask = draw(st.integers(0, 3))
    p = n_mask + 1
    maskable = tuple(range(n_mask))
    hidden = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)) if family == "nn" else ()
    arch = Architecture(input_dim=p, hidden=hidden, bias_index=n_mask)

    def fresh() -> ModelParams:
        params = init_params(arch, family, adaptive, seed=0, maskable=maskable)
        arrays = {}
        for name, block in params.arrays.items():
            values = draw(st.lists(FLOATS, min_size=block.size, max_size=block.size))
            arrays[name] = np.array(values, dtype=np.float64).reshape(block.shape)
        return replace(params, arrays=arrays)

    def reuse(params: ModelParams) -> ModelParams:
        how = draw(st.sampled_from(["same", "copy", "bias", "fresh"]))
        if how == "same":
            return params
        if how == "copy":
            return params.copy()
        return replace(params, bias_index=None) if how == "bias" else fresh()

    kind = draw(st.sampled_from(["model", "fixed", "learned"]))
    uset = UncertaintySet(n_features=p, maskable=maskable, budget=n_mask)
    if kind == "model":
        return fresh()
    if kind == "fixed":
        first = fresh()
        subsets = [FixedSubset(first, 0.5)]
        subsets += [FixedSubset(reuse(first), 0.5 + c) for c in range(1, n_mask + 1)]
        return FixedPartition(uncertainty=uset, subsets=subsets)
    part = Partition(uset, PartitionConfig(max_subsets=5), Fit(fresh(), 0.1), Fit(fresh(), 0.2))
    depth = [0]
    for _ in range(draw(st.integers(0, 4))):
        leaves = [i for i in part.leaf_ids if part.subsets[i].free and depth[i] < 3]
        if not leaves:
            break
        leaf = draw(st.sampled_from(leaves))
        parent = part.subsets[leaf]
        j = draw(st.sampled_from(parent.free))
        adv = draw(st.sampled_from([None, Fit(reuse(parent.params_adv), 0.2)]))
        split = Split(leaf, j, Fit(reuse(parent.params_opt), 0.1), adv)
        part = replace(part, splits=(*part.splits, split))
        depth += [depth[leaf] + 1] * 2
    return part


def saved(artifact) -> tuple[bytes, object]:
    """The bytes save_artifact writes for the artifact, and what loading
    them returns."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact.json"
        save_artifact(artifact, path)
        return path.read_bytes(), load_artifact(path)


def content(params: ModelParams) -> tuple:
    return (params.family, params.adaptive, params.n_features, params.maskable,
            params.bias_index,
            tuple((k, v.shape, v.tobytes()) for k, v in params.arrays.items()))


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(artifacts())
    def test_every_array_comes_back_bit_for_bit(self, artifact):
        data, back = saved(artifact)
        assert type(back) is type(artifact)
        sets, back_sets = param_sets(artifact), param_sets(back)
        assert len(back_sets) == len(sets)
        for params, loaded in zip(sets, back_sets):
            assert content(loaded) == content(params)
            for block in loaded.arrays.values():
                assert block.dtype == np.float64
                assert block.flags.owndata and block.flags.writeable
                assert block.flags.aligned and block.flags.c_contiguous
        assert saved(back)[0] == data

    @settings(max_examples=120, deadline=None)
    @given(artifacts())
    def test_the_table_holds_each_distinct_set_once(self, artifact):
        data, _ = saved(artifact)
        table = [json.dumps(entry) for entry in json.loads(data)["params"]]
        assert len(set(table)) == len(table)
        assert len(table) == len({content(p) for p in param_sets(artifact)})

    def test_inherited_sets_are_stored_once(self):
        # the golden tree's 9 subsets refer to 18 sets, 10 of them distinct
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        refs = [s[k] for s in obj["subsets"].values() for k in ("params_opt", "params_adv")]
        assert (len(refs), len(obj["params"])) == (18, 10)
        assert sorted(set(refs)) == list(range(10))


GOLDEN = Path(__file__).parent / "data" / "learned_lr_q5.json"
GOLDEN_V1 = Path(__file__).parent / "data" / "learned_lr_q5_v1.json"


class TestFormat:
    def test_the_golden_file_holds_the_v1_files_arrays(self):
        # the v1 file lists each array's values; parsed here, not by the package
        v1 = json.loads(GOLDEN_V1.read_text(encoding="utf-8"))
        part = load_artifact(GOLDEN)
        assert list(range(len(part.subsets))) == sorted(int(sid) for sid in v1["subsets"])
        for sid, subset in v1["subsets"].items():
            for key in ("params_opt", "params_adv"):
                expected, loaded = subset[key], getattr(part.subsets[int(sid)], key)
                assert list(loaded.arrays) == list(expected["arrays"])
                for name, block in expected["arrays"].items():
                    want = np.asarray(block["data"], dtype=np.float64).reshape(block["shape"])
                    got = loaded.arrays[name]
                    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_a_v1_file_is_a_domain_error_naming_it(self):
        with pytest.raises(DomainError, match="learned_lr_q5_v1.json.*format"):
            load_artifact(GOLDEN_V1)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda obj: obj.pop("format"), id="no-format"),
        pytest.param(lambda obj: obj.update(format=1), id="format-1"),
        pytest.param(lambda obj: obj.update(format=3), id="format-3"),
        pytest.param(lambda obj: obj.update(format="2"), id="format-text"),
    ])
    def test_another_format_is_a_domain_error_naming_the_file(self, tmp_path, edit):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        edit(obj)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match="old.json.*format"):
            load_artifact(path)


def nn_model() -> ModelParams:
    return init_params(Architecture(input_dim=3, hidden=(4, 2), bias_index=2), "nn", True,
                       seed=5, maskable=(0, 1))


def fixed_artifact(budget: int) -> FixedPartition:
    """A fixed partition over `budget` maskable features, val_loss l + 0.5
    for subset l."""
    arch = Architecture(input_dim=budget + 1, bias_index=budget)
    params = init_params(arch, "lr", True, seed=1, maskable=tuple(range(budget)))
    uset = UncertaintySet(n_features=budget + 1, maskable=tuple(range(budget)), budget=budget)
    return FixedPartition(uset, [FixedSubset(params, c + 0.5) for c in range(budget + 1)])


def _cut_one_float(block):
    block["f8"] = base64.b64encode(base64.b64decode(block["f8"])[:-8]).decode("ascii")


def _shape(name, shape, floats=None):
    def edit(obj):
        block = obj["params"][0]["arrays"][name]
        block["shape"] = shape
        if floats is not None:
            block["f8"] = array_b64(np.zeros(floats))
    return edit


def array_b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


class TestMalformedFile:
    """Every malformed parameter block or table reference is a ParseError or
    DomainError naming the file, never an exception from deep in predict."""

    @pytest.mark.parametrize("edit, error", [
        pytest.param(lambda obj: _cut_one_float(obj["params"][0]["arrays"]["W0"]), ParseError,
                     id="bytes-short-of-shape"),
        pytest.param(lambda obj: obj["params"][0]["arrays"]["b0"].update(f8="AAAA!AAA"),
                     ParseError, id="not-base64"),
        pytest.param(lambda obj: obj["params"][0]["arrays"]["b0"].update(f8="AAAAA"),
                     ParseError, id="base64-bad-padding"),
        pytest.param(lambda obj: obj["params"][0]["arrays"]["b0"].update(shape=[-4]),
                     ParseError, id="negative-shape"),
        pytest.param(lambda obj: obj.update(model=1), ParseError, id="index-out-of-range"),
        pytest.param(lambda obj: obj.update(model=-1), ParseError, id="index-negative"),
        pytest.param(lambda obj: obj.update(model="0"), ParseError, id="index-text"),
        pytest.param(lambda obj: obj.update(model=0.0), ParseError, id="index-float"),
        pytest.param(lambda obj: obj.update(model=False), ParseError, id="index-bool"),
        pytest.param(lambda obj: obj["params"][0]["arrays"].pop("w_out"), DomainError,
                     id="block-missing"),
        pytest.param(lambda obj: obj["params"][0]["arrays"].update(
            W9=obj["params"][0]["arrays"]["W1"]), DomainError, id="block-extra"),
        pytest.param(lambda obj: obj["params"][0].update(adaptive=False), DomainError,
                     id="blocks-of-another-adaptivity"),
        pytest.param(lambda obj: obj["params"][0].update(family="lr"), DomainError,
                     id="blocks-of-another-family"),
        pytest.param(lambda obj: obj["params"][0].update(family="gbm"), DomainError,
                     id="unknown-family"),
        pytest.param(_shape("W1", [4, 2]), DomainError, id="W-transposed"),
        pytest.param(_shape("b1", [1], floats=1), DomainError, id="bias-narrower-than-W"),
        pytest.param(_shape("w_out", [3], floats=3), DomainError, id="output-wider-than-W"),
        pytest.param(_shape("D0", [2, 2], floats=4), DomainError, id="D-of-a-hidden-width"),
        pytest.param(_shape("D_out", [2, 1], floats=2), DomainError, id="D-short-a-column"),
        pytest.param(lambda obj: obj["params"][0].update(maskable=[0, 3]), DomainError,
                     id="maskable-out-of-range"),
        pytest.param(lambda obj: obj["params"][0].update(maskable=[1, 0]), DomainError,
                     id="maskable-unsorted"),
        pytest.param(lambda obj: obj["params"][0].update(bias_index=3), DomainError,
                     id="bias-index-out-of-range"),
        pytest.param(lambda obj: obj["params"][0].update(arrays=[]), ParseError,
                     id="arrays-not-an-object"),
        pytest.param(lambda obj: obj["params"][0].update(adaptive=False, arrays={
            "w_out": {"shape": [3], "f8": array_b64([1.0, 2.0, 3.0])},
            "b_out": {"shape": [1], "f8": array_b64([0.5])}}), DomainError,
                     id="network-without-hidden-layer"),
    ])
    def test_a_malformed_model_is_rejected_naming_the_file(self, tmp_path, edit, error):
        path = tmp_path / "bad.json"
        save_artifact(nn_model(), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        edit(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(error, match="bad.json"):
            load_artifact(path)

    @pytest.mark.parametrize("key, ref", [
        ("params_opt", 10), ("params_adv", -1), ("params_opt", None), ("params_adv", 1.0),
    ])
    def test_a_bad_subset_reference_is_a_parse_error(self, tmp_path, key, ref):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        obj["subsets"]["4"][key] = ref
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ParseError, match="ref.json"):
            load_artifact(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda obj: obj.update(subsets=list(obj["subsets"].values())),
                     id="subsets-a-list"),
        pytest.param(lambda obj: obj["subsets"].update(x=obj["subsets"].pop("8")), id="id-x"),
        pytest.param(lambda obj: obj["subsets"]["3"].update(LB="0.005"), id="LB-text"),
        pytest.param(lambda obj: obj["subsets"]["3"].update(UB=True), id="UB-bool"),
        pytest.param(lambda obj: obj["subsets"]["3"].update(lb_inherited=1), id="lb-inherited-int"),
        pytest.param(lambda obj: obj["subsets"]["3"].update(ub_inherited="no"),
                     id="ub-inherited-text"),
        pytest.param(lambda obj: obj["uncertainty"].update(budget=1.5), id="budget-1.5"),
    ])
    def test_a_malformed_learned_file_is_a_parse_error(self, tmp_path, edit):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        edit(obj)
        path = tmp_path / "learned.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ParseError, match="learned.json"):
            load_artifact(path)

    @pytest.mark.parametrize("edit, error", [
        pytest.param(lambda obj: obj["subsets"]["3"].update(LB=float("nan")), DomainError,
                     id="LB-NaN"),
        pytest.param(lambda obj: obj["subsets"]["3"].update(UB=float("inf")), DomainError,
                     id="UB-inf"),
        pytest.param(lambda obj: obj["config"].update(max_subsets=1.5), ParseError,
                     id="max-subsets-1.5"),
        pytest.param(lambda obj: obj["config"].update(max_subsets=True), ParseError,
                     id="max-subsets-bool"),
        pytest.param(lambda obj: obj["config"].update(epsilon=True), ParseError,
                     id="epsilon-bool"),
        pytest.param(lambda obj: obj["subsets"]["0"]["free"].__setitem__(0, 0.0), ParseError,
                     id="free-entry-float"),
        pytest.param(lambda obj: obj["subsets"]["3"]["opt_pattern"].__setitem__(0, True),
                     ParseError, id="pattern-entry-bool"),
        pytest.param(lambda obj: obj["subsets"]["4"].update(parent_id=1.0), ParseError,
                     id="parent-id-float"),
        pytest.param(lambda obj: obj["subsets"]["1"].update(parent_id=False), ParseError,
                     id="parent-id-bool"),
        pytest.param(lambda obj: obj["subsets"]["0"].update(split_feature=1.0), ParseError,
                     id="split-feature-float"),
        pytest.param(lambda obj: obj["subsets"]["3"].update(relgap=0.2), DomainError,
                     id="relgap-not-of-the-bounds"),
        pytest.param(lambda obj: obj["subsets"]["3"].update(relgap=True), ParseError,
                     id="relgap-bool"),
        pytest.param(lambda obj: obj["subsets"]["3"]["opt_pattern"].__setitem__(2, 1),
                     DomainError, id="available-child-marks-a-free-feature-missing"),
        pytest.param(lambda obj: obj["subsets"]["4"]["opt_pattern"].__setitem__(0, 0),
                     DomainError, id="missing-child-keeps-its-split-available"),
        pytest.param(lambda obj: obj["subsets"]["4"].update(free=[0, 2]), DomainError,
                     id="child-keeps-its-split-free"),
        pytest.param(lambda obj: obj["subsets"]["0"].update(free=[0, 1]), DomainError,
                     id="root-short-of-the-maskable-set"),
        pytest.param(lambda obj: obj["subsets"]["0"].update(parent_id=0), DomainError,
                     id="root-with-a-parent"),
    ])
    def test_an_inconsistent_learned_file_exits_3(self, tmp_path, edit, error):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        edit(obj)
        path = tmp_path / "learned.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(error, match="learned.json"):
            load_artifact(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda obj: obj.update(subsets=obj["subsets"][:3]), id="short-of-budget"),
        pytest.param(lambda obj: obj.update(subsets=[]), id="empty"),
        pytest.param(lambda obj: obj.update(subsets={"0": obj["subsets"][0]}), id="an-object"),
        pytest.param(lambda obj: obj["subsets"][1].update(count="x"), id="count-text"),
        pytest.param(lambda obj: obj["subsets"][1].update(count=1.5), id="count-float"),
        pytest.param(lambda obj: obj["subsets"][1].update(count=True), id="count-bool"),
        pytest.param(lambda obj: obj["subsets"][1].update(count=0), id="count-repeated"),
        pytest.param(lambda obj: obj["subsets"].reverse(), id="counts-out-of-order"),
        pytest.param(lambda obj: obj["subsets"][2].update(val_loss="x"), id="val-loss-text"),
    ])
    def test_a_malformed_fixed_file_is_a_parse_error(self, tmp_path, edit):
        path = tmp_path / "fixed.json"
        save_artifact(fixed_artifact(budget=12), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        edit(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ParseError, match="fixed.json"):
            load_artifact(path)

    @pytest.mark.parametrize("kind, edit", [
        pytest.param("learned", lambda obj: obj["config"].update(epsilon=float("nan")),
                     id="epsilon-NaN"),
        pytest.param("learned", lambda obj: obj["config"].update(epsilon=float("inf")),
                     id="epsilon-Infinity"),
        pytest.param("learned", lambda obj: obj["subsets"]["5"].update(relgap=float("nan")),
                     id="relgap-NaN"),
        pytest.param("fixed", lambda obj: obj["subsets"][2].update(val_loss=float("nan")),
                     id="val-loss-NaN"),
        pytest.param("fixed", lambda obj: obj["subsets"][0].update(val_loss=float("-inf")),
                     id="val-loss-minus-Infinity"),
    ])
    def test_a_number_that_is_not_finite_is_a_domain_error(self, tmp_path, kind, edit):
        path = tmp_path / f"{kind}.json"
        if kind == "learned":
            path.write_bytes(GOLDEN.read_bytes())
        else:
            save_artifact(fixed_artifact(budget=3), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        edit(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match=f"{kind}.json.*finite"):
            load_artifact(path)

    def test_a_fixed_file_stores_each_position_as_its_count(self, tmp_path):
        fixed = fixed_artifact(budget=3)
        data, back = saved(fixed)
        assert [s["count"] for s in json.loads(data)["subsets"]] == [0, 1, 2, 3]
        assert [s.val_loss for s in back.subsets] == [0.5, 1.5, 2.5, 3.5]

    def test_a_linear_block_of_another_width_is_a_domain_error(self, tmp_path):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        obj["params"][3]["arrays"]["w"] = {"shape": [3], "f8": array_b64([1.0, 2.0, 3.0])}
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match="narrow.json.*w"):
            load_artifact(path)
