"""The artifact file format: the models' layout stated once, and a table of
the fits the artifact trained, each once, in order, each block stored as the
base64 of its little-endian float64 bytes."""
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
    Partition,
    PartitionConfig,
    Split,
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
    with one value's sign flipped, as well as drawn afresh, so fits repeat
    one object, repeat one content, and nearly repeat one another; a learned
    child's inherited sets are its parent's objects. All sets of one
    artifact share its layout."""
    family = draw(st.sampled_from(["lr", "nn"]))
    adaptive = draw(st.booleans())
    n_mask = draw(st.integers(0, 3))
    p = n_mask + 1
    maskable = tuple(range(n_mask))
    hidden = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)) if family == "nn" else ()
    arch = Architecture(family, adaptive, p, hidden, bias_index=n_mask, maskable=maskable)

    def fresh() -> ModelParams:
        params = init_params(arch, seed=0)
        arrays = {}
        for name, block in params.arrays.items():
            values = draw(st.lists(FLOATS, min_size=block.size, max_size=block.size))
            arrays[name] = np.array(values, dtype=np.float64).reshape(block.shape)
        return replace(params, arrays=arrays)

    def reuse(params: ModelParams) -> ModelParams:
        how = draw(st.sampled_from(["same", "copy", "sign", "fresh"]))
        if how == "same":
            return params
        if how == "fresh":
            return fresh()
        arrays = {k: v.copy() for k, v in params.arrays.items()}
        if how == "sign":  # another content by one bit (0.0 and NaN included)
            first = next(iter(arrays.values()))
            first.flat[0] = -first.flat[0]
        return replace(params, arrays=arrays)

    kind = draw(st.sampled_from(["model", "fixed", "learned"]))
    if kind == "model":
        return fresh()
    if kind == "fixed":
        first = fresh()
        subsets = [Fit(first, 0.5)]
        subsets += [Fit(reuse(first), 0.5 + c) for c in range(1, n_mask + 1)]
        return FixedPartition(subsets)
    part = Partition(n_mask, PartitionConfig(max_subsets=5), Fit(fresh(), 0.1), Fit(fresh(), 0.2))
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


def blocks(params: ModelParams) -> tuple:
    return tuple((k, v.shape, v.tobytes()) for k, v in params.arrays.items())


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(artifacts())
    def test_every_array_comes_back_bit_for_bit(self, artifact):
        data, back = saved(artifact)
        assert type(back) is type(artifact)
        sets, back_sets = param_sets(artifact), param_sets(back)
        assert len(back_sets) == len(sets)
        for params, loaded in zip(sets, back_sets):
            assert loaded.arch == params.arch
            assert blocks(loaded) == blocks(params)
            for block in loaded.arrays.values():
                assert block.dtype == np.float64
                assert block.flags.owndata and block.flags.writeable
                assert block.flags.aligned and block.flags.c_contiguous
        assert saved(back)[0] == data

    @settings(max_examples=120, deadline=None)
    @given(artifacts())
    def test_the_table_holds_each_trained_fit_once_in_order(self, artifact):
        # equal contents stay apart: only the fits count, not their bytes
        if isinstance(artifact, Partition):
            fits = [artifact.opt, artifact.adv]
            for split in artifact.splits:
                fits += [split.opt] if split.adv is None else [split.opt, split.adv]
            sets = [fit.params for fit in fits]
        elif isinstance(artifact, FixedPartition):
            sets = [fit.params for fit in artifact.subsets]
        else:
            sets = [artifact]
        assert all(a is b for a, b in zip(param_sets(artifact), sets, strict=True))
        data, _ = saved(artifact)
        assert json.loads(data)["params"] == [
            {name: array_b64(block) for name, block in params.arrays.items()} for params in sets]

    def test_inherited_sets_are_stored_once(self):
        # the golden tree's root fits and its 4 splits, each of which trained
        # both fits: its 9 subsets use 18 sets, 10 of them its own
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert [split["adv"] for split in obj["splits"]] == [True] * 4
        assert (len(obj["subsets"]), len(obj["params"])) == (9, 10)
        part = load_artifact(GOLDEN)
        used = [p for s in part.subsets for p in (s.params_opt, s.params_adv)]
        assert len(used) == 18 and len({id(p) for p in used}) == 10


GOLDEN = Path(__file__).parent / "data" / "learned_lr_q5.json"
GOLDEN_V1 = Path(__file__).parent / "data" / "learned_lr_q5_v1.json"


class TestFormat:
    def test_the_golden_file_holds_the_v1_files_arrays(self):
        # the v1 file lists each array's values; parsed here, not by the package
        v1 = json.loads(GOLDEN_V1.read_text(encoding="utf-8"))
        part = load_artifact(GOLDEN)
        assert list(range(len(part.subsets))) == sorted(int(sid) for sid in v1["subsets"])
        for sid, subset in v1["subsets"].items():
            for key in ("params_opt", "params_adv"):  # the v1 file's keys
                expected, loaded = subset[key], getattr(part.subsets[int(sid)], key)
                assert list(loaded.arrays) == list(expected["arrays"])
                for name, block in expected["arrays"].items():
                    want = np.asarray(block["data"], dtype=np.float64).reshape(block["shape"])
                    got = loaded.arrays[name]
                    assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_a_v1_file_is_a_domain_error_naming_it(self):
        with pytest.raises(DomainError, match="learned_lr_q5_v1.json.*format"):
            load_artifact(GOLDEN_V1)

    # the format must be the integer 5: Python's 5.0 equals 5
    @pytest.mark.parametrize("kind", ["learned", "fixed", "model"])
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda obj: obj.pop("format"), id="no-format"),
        pytest.param(lambda obj: obj.update(format=1), id="format-1"),
        pytest.param(lambda obj: obj.update(format=2), id="format-2"),
        pytest.param(lambda obj: obj.update(format=3), id="format-3"),
        pytest.param(lambda obj: obj.update(format=4), id="format-4"),
        pytest.param(lambda obj: obj.update(format=5.0), id="format-5.0"),
        pytest.param(lambda obj: obj.update(format=True), id="format-true"),
        pytest.param(lambda obj: obj.update(format="5"), id="format-text"),
    ])
    def test_another_format_is_a_domain_error_naming_the_file(self, tmp_path, edit, kind):
        path = tmp_path / "old.json"
        write_artifact(path, kind)
        obj = json.loads(path.read_text(encoding="utf-8"))
        edit(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match="old.json.*format.*retrain"):
            load_artifact(path)

    @pytest.mark.parametrize("kind", ["learned", "fixed", "model"])
    def test_a_loaded_file_builds_its_one_layout_once(self, tmp_path, monkeypatch, kind):
        path = tmp_path / f"{kind}.json"
        write_artifact(path, kind)
        built, check = [], Architecture.__post_init__
        monkeypatch.setattr(Architecture, "__post_init__",
                            lambda arch: (built.append(arch), check(arch))[1])
        artifact = load_artifact(path)
        assert built == [artifact.arch]
        assert all(params.arch is artifact.arch for params in param_sets(artifact))


def nn_model() -> ModelParams:
    return init_params(Architecture("nn", True, 3, (4, 2), bias_index=2, maskable=(0, 1)), seed=5)


def fixed_artifact(budget: int) -> FixedPartition:
    """A fixed partition over `budget` maskable features, val_loss l + 0.5
    for subset l."""
    arch = Architecture("lr", True, budget + 1, bias_index=budget, maskable=tuple(range(budget)))
    params = init_params(arch, seed=1)
    return FixedPartition([Fit(params, c + 0.5) for c in range(budget + 1)])


def _floats(name, floats):
    """An edit giving block `name` of the first table entry `floats` zeros."""
    def edit(obj):
        obj["params"][0][name] = array_b64(np.zeros(floats))
    return edit


def _layout(**fields):
    def edit(obj):
        obj["layout"].update(fields)
    return edit


def array_b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


class TestMalformedFile:
    """Every malformed parameter block, table or split is a ParseError or
    DomainError naming the file, never an exception from deep in predict."""

    # nn_model's layout: 3 inputs, hidden widths (4, 2), 2 maskable features
    @pytest.mark.parametrize("edit, error", [
        pytest.param(_floats("W0", 11), DomainError, id="bytes-short-of-shape"),
        pytest.param(lambda obj: obj["params"][0].update(b0="AAAA!AAA"),
                     ParseError, id="not-base64"),
        pytest.param(lambda obj: obj["params"][0].update(b0="AAAAA"),
                     ParseError, id="base64-bad-padding"),
        pytest.param(lambda obj: obj["params"][0].update(b0=[0.0] * 4),
                     ParseError, id="block-a-list"),
        pytest.param(_layout(hidden=[4, -2]), DomainError, id="negative-hidden-width"),
        pytest.param(lambda obj: obj["params"].append(obj["params"][0]), DomainError,
                     id="table-of-two-sets"),
        pytest.param(lambda obj: obj.update(params=[]), DomainError, id="table-empty"),
        pytest.param(lambda obj: obj.update(params=obj["params"][0]), ParseError,
                     id="table-an-object"),
        pytest.param(lambda obj: obj.update(params="W0"), ParseError, id="table-text"),
        pytest.param(lambda obj: obj.update(model=0), ParseError, id="format-4-model-index"),
        pytest.param(lambda obj: obj["params"][0].pop("w_out"), DomainError,
                     id="block-missing"),
        pytest.param(lambda obj: obj["params"][0].update(W9=obj["params"][0]["W1"]),
                     DomainError, id="block-extra"),
        pytest.param(lambda obj: obj["params"][0].update(W0=obj["params"][0].pop("W0")),
                     DomainError, id="blocks-out-of-order"),
        pytest.param(_layout(adaptive=False), DomainError, id="blocks-of-another-adaptivity"),
        pytest.param(_layout(family="lr", hidden=[]), DomainError,
                     id="blocks-of-another-family"),
        pytest.param(_layout(family="gbm"), DomainError, id="unknown-family"),
        pytest.param(_layout(hidden=[2, 4]), DomainError, id="hidden-widths-swapped"),
        pytest.param(_floats("b1", 1), DomainError, id="bias-narrower-than-W"),
        pytest.param(_floats("w_out", 3), DomainError, id="output-wider-than-W"),
        pytest.param(_floats("D0", 4), DomainError, id="D-of-a-hidden-width"),
        pytest.param(_floats("D_out", 2), DomainError, id="D-short-a-column"),
        pytest.param(_layout(maskable=[0, 3]), DomainError, id="maskable-out-of-range"),
        pytest.param(_layout(maskable=[1, 0]), DomainError, id="maskable-unsorted"),
        pytest.param(_layout(bias_index=3), DomainError, id="bias-index-out-of-range"),
        pytest.param(_layout(input_dim=3.0), DomainError, id="input-dim-float"),
        pytest.param(_layout(adaptive=1), DomainError, id="adaptive-a-number"),
        pytest.param(_layout(hidden=4), ParseError, id="hidden-not-a-list"),
        pytest.param(lambda obj: obj.update(layout=[]), ParseError, id="layout-not-an-object"),
        pytest.param(lambda obj: obj["params"].__setitem__(0, []), ParseError,
                     id="entry-not-an-object"),
        pytest.param(lambda obj: obj.update(layout=dict(obj["layout"], adaptive=False, hidden=[]),
                                            params=[{"w_out": array_b64([1.0, 2.0, 3.0]),
                                                     "b_out": array_b64([0.5])}]),
                     DomainError, id="network-without-hidden-layer"),
    ])
    def test_a_malformed_model_is_rejected_naming_the_file(self, tmp_path, edit, error):
        path = tmp_path / "bad.json"
        save_artifact(nn_model(), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        edit(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(error, match="bad.json"):
            load_artifact(path)

    # nn_model's W0 is (4, 3), its b_out (1,) and its D_out (2, 2)
    @pytest.mark.parametrize("name, floats", [
        ("W0", 11), ("W0", 13), ("b_out", 0), ("b_out", 2), ("D_out", 3), ("D_out", 5),
    ])
    def test_a_block_of_another_float_count_is_a_domain_error_naming_it(self, tmp_path, name,
                                                                          floats):
        path = tmp_path / "bad.json"
        save_artifact(nn_model(), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        _floats(name, floats)(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match=f"bad.json: block {name} holds {8 * floats} bytes"):
            load_artifact(path)

    @pytest.mark.parametrize("key, value", [
        ("leaf", "1"), ("leaf", None), ("leaf", 1.0), ("adv", 1),
    ])
    def test_a_split_value_of_the_wrong_type_is_a_parse_error(self, tmp_path, key, value):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        obj["splits"][1][key] = value
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
        pytest.param(lambda obj: obj["splits"][2].update(adv="no"), id="adv-text"),
        pytest.param(lambda obj: obj.update(budget=1.5), id="budget-1.5"),
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
        pytest.param(lambda obj: obj["splits"][1].update(leaf=1.0), ParseError,
                     id="leaf-float"),
        pytest.param(lambda obj: obj["splits"][0].update(leaf=False), ParseError,
                     id="leaf-bool"),
        pytest.param(lambda obj: obj["subsets"]["0"].update(split_feature=1.0), ParseError,
                     id="split-feature-float"),
        pytest.param(lambda obj: obj["splits"][1].update(leaf=0), DomainError,
                     id="root-split-twice"),
        pytest.param(lambda obj: obj.update(budget=4), DomainError, id="budget-above-maskable"),
    ])
    def test_an_inconsistent_learned_file_exits_3(self, tmp_path, edit, error):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        edit(obj)
        path = tmp_path / "learned.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(error, match="learned.json"):
            load_artifact(path)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda obj: obj.update(losses={"0": obj["losses"][0]}), id="an-object"),
        pytest.param(lambda obj: obj["losses"].__setitem__(2, "x"), id="loss-text"),
    ])
    def test_a_malformed_fixed_file_is_a_parse_error(self, tmp_path, edit):
        path = tmp_path / "fixed.json"
        save_artifact(fixed_artifact(budget=12), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        edit(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ParseError, match="fixed.json"):
            load_artifact(path)

    def test_a_fixed_file_without_subsets_is_a_domain_error(self, tmp_path):
        # its fit count states a budget of -1
        path = tmp_path / "fixed.json"
        save_artifact(fixed_artifact(budget=3), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["losses"], obj["params"] = [], []
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match="fixed.json.*budget -1"):
            load_artifact(path)

    def test_a_shorter_fixed_file_states_a_smaller_budget(self, tmp_path):
        path = tmp_path / "fixed.json"
        save_artifact(fixed_artifact(budget=3), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["losses"], obj["params"] = obj["losses"][:3], obj["params"][:3]
        path.write_text(json.dumps(obj), encoding="utf-8")
        back = load_artifact(path)
        assert back.budget == 2
        assert [s.loss for s in back.subsets] == [0.5, 1.5, 2.5]

    @pytest.mark.parametrize("kind, edit", [
        pytest.param("learned", lambda obj: obj["config"].update(epsilon=float("nan")),
                     id="epsilon-NaN"),
        pytest.param("learned", lambda obj: obj["config"].update(epsilon=float("inf")),
                     id="epsilon-Infinity"),
        pytest.param("fixed", lambda obj: obj["losses"].__setitem__(2, float("nan")),
                     id="loss-NaN"),
        pytest.param("fixed", lambda obj: obj["losses"].__setitem__(0, float("-inf")),
                     id="loss-minus-Infinity"),
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

    def test_a_linear_block_of_another_width_is_a_domain_error(self, tmp_path):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        obj["params"][3]["w"] = array_b64([1.0, 2.0, 3.0])
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match="narrow.json.*w"):
            load_artifact(path)


def write_artifact(path: Path, kind: str) -> None:
    """The golden learned file, a budget-3 fixed file or a bare nn model, at path."""
    if kind == "learned":
        path.write_bytes(GOLDEN.read_bytes())
    elif kind == "fixed":
        save_artifact(fixed_artifact(budget=3), path)
    else:
        save_artifact(nn_model(), path)


def _drop(obj, keys: tuple) -> None:
    for key in keys[:-1]:
        obj = obj[key]
    del obj[keys[-1]]


LEARNED_SUBSET_KEYS = ("LB", "UB", "split_feature")
LAYOUT_KEYS = ("family", "adaptive", "input_dim", "hidden", "bias_index", "maskable")


class TestFormatKeys:
    """Format 5 states each value once: every key it writes is read, and a
    key it never writes, such as a derived value format 2 stored or a
    reference format 4 stored, is refused wherever it sits."""

    @pytest.mark.parametrize("kind, keys", [
        *[pytest.param("learned", (key,), id=f"learned-{key}")
          for key in ("kind", "budget", "config", "splits", "leaf_ids", "subsets", "layout",
                      "params")],
        *[pytest.param("learned", ("config", key), id=f"learned-config-{key}")
          for key in ("max_subsets", "epsilon")],
        *[pytest.param("learned", ("subsets", "3", key), id=f"learned-subset-{key}")
          for key in LEARNED_SUBSET_KEYS],
        *[pytest.param("learned", ("splits", 1, key), id=f"learned-split-{key}")
          for key in ("leaf", "adv")],
        *[pytest.param("learned", ("layout", key), id=f"learned-layout-{key}")
          for key in LAYOUT_KEYS],
        *[pytest.param("fixed", (key,), id=f"fixed-{key}")
          for key in ("kind", "losses", "layout", "params")],
        pytest.param("fixed", ("layout", "maskable"), id="fixed-layout-maskable"),
        *[pytest.param("model", (key,), id=f"model-{key}")
          for key in ("kind", "layout", "params")],
        pytest.param("model", ("layout", "hidden"), id="model-layout-hidden"),
    ])
    def test_a_file_lacking_a_written_key_is_a_parse_error(self, tmp_path, kind, keys):
        path = tmp_path / f"{kind}.json"
        write_artifact(path, kind)
        obj = json.loads(path.read_text(encoding="utf-8"))
        _drop(obj, keys)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ParseError, match=f"{kind}.json.*'{keys[-1]}'"):
            load_artifact(path)

    # the values format 2 stored beside each subset's lineage, and the
    # lineage and table references format 4 stored
    @pytest.mark.parametrize("sid, key, value", [
        pytest.param("4", "fixed", {"0": 1, "1": 1}, id="fixed"),
        pytest.param("3", "opt_pattern", [0, 0, 0], id="opt-pattern"),
        pytest.param("0", "free", [0, 1, 2], id="free"),
        pytest.param("3", "relgap", 0.1, id="relgap"),
        pytest.param("4", "lb_inherited", False, id="lb-inherited"),
        pytest.param("3", "parent_id", 1, id="parent-id"),
        pytest.param("4", "ub_inherited", True, id="ub-inherited"),
        pytest.param("3", "params_opt", 0, id="params-opt"),
        pytest.param("4", "params_adv", 3, id="params-adv"),
    ])
    def test_a_learned_subset_holding_an_older_key_is_refused(self, tmp_path, sid, key, value):
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        obj["subsets"][sid][key] = value
        path = tmp_path / "learned.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ParseError, match=f"learned.json: subset {sid} holds the key '{key}'"):
            load_artifact(path)

    # the other values format 2 stored, and the fixed subsets and model
    # reference format 4 stored, each contradicting the file it is added to
    @pytest.mark.parametrize("kind, key, edit", [
        pytest.param("learned", "tree", lambda obj: obj.update(tree={"subset": 0, "feature": 2}),
                     id="tree"),
        pytest.param("learned", "uncertainty", lambda obj: obj.update(
            uncertainty={"n_features": 9, "maskable": [5], "budget": 1}), id="learned-uncertainty"),
        pytest.param("fixed", "uncertainty", lambda obj: obj.update(
            uncertainty={"n_features": 9, "maskable": [5], "budget": 1}), id="fixed-uncertainty"),
        pytest.param("fixed", "subsets", lambda obj: obj.update(
            subsets=[{"val_loss": 9.0, "params": 0, "count": c} for c in range(4)]),
                     id="fixed-subsets"),
        pytest.param("model", "model", lambda obj: obj.update(model=1), id="model"),
    ])
    def test_a_derived_value_left_in_the_file_is_refused(self, tmp_path, kind, key, edit):
        path = tmp_path / f"{kind}.json"
        write_artifact(path, kind)
        obj = json.loads(path.read_bytes())
        edit(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ParseError, match=f"{kind}.json: .* holds the key '{key}'"):
            load_artifact(path)

    # one unwritten key in each kind of object a file holds
    @pytest.mark.parametrize("kind, keys", [
        pytest.param("learned", (), id="learned"),
        pytest.param("learned", ("config",), id="learned-config"),
        pytest.param("learned", ("subsets", "3"), id="learned-subset"),
        pytest.param("learned", ("layout",), id="learned-layout"),
        pytest.param("fixed", (), id="fixed"),
        pytest.param("learned", ("splits", 1), id="learned-split"),
        pytest.param("fixed", ("layout",), id="fixed-layout"),
        pytest.param("model", (), id="model"),
        pytest.param("model", ("layout",), id="model-layout"),
    ])
    def test_a_key_no_writer_writes_is_a_parse_error(self, tmp_path, kind, keys):
        path = tmp_path / f"{kind}.json"
        write_artifact(path, kind)
        obj = json.loads(path.read_bytes())
        target = obj
        for key in keys:
            target = target[key]
        target["extra"] = 1
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ParseError, match=f"{kind}.json: .* holds the key 'extra', "
                                             "which its writer never writes"):
            load_artifact(path)


class TestTableHoldsTheFits:
    """A file's table holds the fits the rest of the file states, each once:
    a learned file's root fits and each split's opt fit and trained adv fit,
    a fixed file's one fit per loss, a model file's one set. A set more or
    fewer is a DomainError naming the file, never a set that loads unused."""

    # the golden file states 10 fits, the budget-3 fixed file 4, a model 1
    @pytest.mark.parametrize("kind, fits", [("learned", 10), ("fixed", 4), ("model", 1)])
    @pytest.mark.parametrize("change", [1, -1], ids=["a-set-more", "a-set-fewer"])
    def test_a_table_of_another_length_is_a_domain_error(self, tmp_path, kind, fits, change):
        path = tmp_path / f"{kind}.json"
        write_artifact(path, kind)
        obj = json.loads(path.read_bytes())
        assert len(obj["params"]) == fits
        if change > 0:
            obj["params"].append(obj["params"][0])
        else:
            obj["params"].pop()
        path.write_text(json.dumps(obj), encoding="utf-8")
        held = fits + change
        with pytest.raises(DomainError, match=f"{kind}.json: its table holds {held} parameter "
                                              f"sets, not the {fits} fits it states"):
            load_artifact(path)

    @pytest.mark.parametrize("losses", [3, 5])
    def test_fixed_losses_of_another_length_are_a_domain_error(self, tmp_path, losses):
        path = tmp_path / "fixed.json"
        write_artifact(path, "fixed")
        obj = json.loads(path.read_bytes())
        obj["losses"] = [c + 0.5 for c in range(losses)]
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match="fixed.json: its table holds 4 parameter sets, "
                                              f"not the {losses} fits it states"):
            load_artifact(path)

    def test_a_split_that_claims_another_adv_fit_is_a_domain_error(self, tmp_path):
        # the flag alone decides which table entry is whose fit
        obj = json.loads(GOLDEN.read_bytes())
        obj["splits"][3]["adv"] = False
        path = tmp_path / "learned.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(DomainError, match="learned.json: its table holds 10 parameter sets, "
                                              "not the 9 fits it states"):
            load_artifact(path)
