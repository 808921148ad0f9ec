from __future__ import annotations

import copy
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import cartonfold.model as model_module
from cartonfold.collision import sweep
from cartonfold.geometry import (
    ORTHONORMAL_TOL,
    Aabb,
    OrientedBox,
    Transform,
    obb_intersect,
    rotate_about_axis,
    rotation_matrix,
    world_aabb,
)
from cartonfold.model import (
    CartonSpec,
    JointVector,
    PanelSpec,
    SpecValidationError,
    build_tree,
    forward_kinematics,
    load_spec,
    panel_pose_from_frame,
    parse_spec,
    serialize_spec,
    spec_from_mapping,
    sweep_angles,
)

from .conftest import SHIPPED_SPECS, SPEC_DIR, free_flap_spec

TWO_PANEL_DOC = """
panels:
  - {id: 1, parent: null, dims_mm: [100, 200, 2]}
  - {id: 2, parent: 1, dims_mm: [60, 190, 2], crease_anchor_mm: [195, 0, 0],
     crease_dir: [-1, 0, 0], theta_init_deg: 0, theta_final_deg: 90}
root_pose: {translation_mm: [0, 0, 1]}
environment: [{name: table, half_space: true}]
"""


class TestParseSpec:
    def test_minimal_two_panel_document(self):
        spec = parse_spec(TWO_PANEL_DOC)
        assert len(spec.panels) == 2
        assert spec.root.id == 1
        flap = spec.panel(2)
        assert flap.theta_final == pytest.approx(math.pi / 2)
        assert flap.foldable

    @pytest.mark.parametrize("quote", ("", "'", '"'), ids=("plain", "single", "double"))
    @pytest.mark.parametrize("pid", (2**53 + 1, 2**63 - 1))
    def test_integer_ids_stay_exact(self, pid, quote):
        # Neither id is a float: a round trip through one would give 2**53
        # and 2**63.
        spec = parse_spec(TWO_PANEL_DOC.replace("id: 2,", f"id: {quote}{pid}{quote},"))
        assert [panel.id for panel in spec.panels] == [1, pid]

    def test_parent_cycle_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
  - {id: 2, parent: 3, dims_mm: [10, 10, 1], crease_anchor_mm: [0, 0, 0],
     crease_dir: [1, 0, 0], theta_init_deg: 0, theta_final_deg: 90}
  - {id: 3, parent: 2, dims_mm: [10, 10, 1], crease_anchor_mm: [0, 0, 0],
     crease_dir: [1, 0, 0], theta_init_deg: 0, theta_final_deg: 90}
"""
        with pytest.raises(SpecValidationError, match="cycle"):
            parse_spec(doc)

    def test_duplicate_ids_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
"""
        with pytest.raises(SpecValidationError, match="duplicate"):
            parse_spec(doc)

    def test_multiple_roots_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
  - {id: 2, parent: null, dims_mm: [10, 10, 1]}
"""
        with pytest.raises(SpecValidationError, match="exactly one root"):
            parse_spec(doc)

    def test_nonpositive_dims_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 0, 1]}
"""
        with pytest.raises(SpecValidationError, match="positive"):
            parse_spec(doc)

    def test_foldable_flag_with_equal_angles_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
  - {id: 2, parent: 1, dims_mm: [10, 10, 1], crease_anchor_mm: [0, 0, 0],
     crease_dir: [1, 0, 0], theta_init_deg: 45, theta_final_deg: 45,
     foldable: true}
"""
        with pytest.raises(SpecValidationError, match="foldable"):
            parse_spec(doc)

    @pytest.mark.parametrize(
        "flag, valid",
        [("true", True), ("null", True), ("false", False), ("'no'", False), ("1", False)],
    )
    def test_foldable_flag_on_a_flap_must_be_true_or_absent(self, flag, valid):
        # A flap whose angles differ folds; the flag may only confirm it.
        doc = TWO_PANEL_DOC.replace("deg: 90", f"deg: 90, foldable: {flag}")
        if valid:
            assert parse_spec(doc).panels[1].foldable
        else:
            with pytest.raises(SpecValidationError, match="foldable"):
                parse_spec(doc)

    def test_non_unit_crease_dir_rejected(self):
        doc = """
panels:
  - {id: 1, parent: null, dims_mm: [10, 10, 1]}
  - {id: 2, parent: 1, dims_mm: [10, 10, 1], crease_anchor_mm: [0, 0, 0],
     crease_dir: [1, 1, 0], theta_init_deg: 0, theta_final_deg: 90}
"""
        with pytest.raises(SpecValidationError, match="unit"):
            parse_spec(doc)

    def test_root_with_nonzero_angles_rejected(self):
        with pytest.raises(SpecValidationError, match="root"):
            PanelSpec(id=1, parent=None, dims=(10, 10, 1), theta_init=0.3)

    def test_missing_or_null_ranking_takes_the_default(self):
        assert parse_spec(TWO_PANEL_DOC).ranking == ("aerial", "maxdim")
        assert parse_spec(TWO_PANEL_DOC + "ranking: null\n").ranking == ("aerial", "maxdim")

    def test_empty_ranking_rejected(self):
        with pytest.raises(SpecValidationError, match="ranking"):
            parse_spec(TWO_PANEL_DOC + "ranking: []\n")

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_fast_loader_parses_like_the_python_loader(self, spec_dir, name):
        text = (spec_dir / name).read_text()
        reference = spec_from_mapping(yaml.load(text, Loader=yaml.SafeLoader))
        assert parse_spec(text) == reference
        assert parse_spec(serialize_spec(reference)) == reference
        if yaml.__with_libyaml__:
            assert model_module._SAFE_LOADER is yaml.CSafeLoader

    def test_not_yaml_rejected(self):
        with pytest.raises(SpecValidationError, match="YAML|mapping"):
            parse_spec("{:::")

    def test_case_study_reconstruction(self, case_study):
        spec, tree = case_study
        # Base plus seven moving panels; sequences cover joints 1..7.
        assert len(spec.panels) == 8
        assert tree.foldable_ids == (1, 2, 3, 4, 5, 6, 7)
        thicknesses = {p.thickness for p in spec.panels}
        assert thicknesses == {2.0}

    def test_roundtrip_through_serialization(self, case_study):
        spec, _ = case_study
        again = parse_spec(serialize_spec(spec))
        assert len(again.panels) == len(spec.panels)
        for a, b in zip(spec.panels, again.panels):
            assert a.id == b.id and a.parent == b.parent
            assert a.dims == pytest.approx(b.dims)
            if a.parent is not None:
                assert a.crease_anchor == pytest.approx(b.crease_anchor)
                assert a.crease_dir == pytest.approx(b.crease_dir)
                assert a.theta_init == pytest.approx(b.theta_init)
                assert a.theta_final == pytest.approx(b.theta_final)
        assert again.table_plane == spec.table_plane
        assert again.ranking == spec.ranking
        assert again.tolerance_angle == pytest.approx(spec.tolerance_angle)
        assert again.penetration_tolerance == pytest.approx(spec.penetration_tolerance)
        np.testing.assert_allclose(
            again.root_pose.translation, spec.root_pose.translation, atol=1e-12
        )
        assert again.gripper is not None and spec.gripper is not None
        assert again.gripper.dims == pytest.approx(spec.gripper.dims)


# PyYAML's safe loader, on libyaml where PyYAML has it, as parse_spec reads documents.
REFERENCE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def reference_outcome(text: str):
    """What PyYAML's own loader and ``spec_from_mapping`` make of a document:
    the spec, or the text of the error ``parse_spec`` must raise."""
    try:
        try:
            data = yaml.load(text, Loader=REFERENCE_LOADER)
        except yaml.YAMLError as exc:
            raise SpecValidationError(f"carton spec is not valid YAML: {exc}") from exc
        return spec_from_mapping(data)
    except SpecValidationError as exc:
        return f"SpecValidationError: {exc}"


def outcome(text: str):
    try:
        return parse_spec(text)
    except SpecValidationError as exc:
        return f"SpecValidationError: {exc}"


def plain_data(text: str):
    """The data of the ingestion walk, without the spec built from it."""
    loader = model_module._SAFE_LOADER(text)
    try:
        root = model_module._compose(loader)
        return None if root is None else model_module._plain_data(loader, root)
    finally:
        loader.dispose()


# A valid carton whose second flap takes its fields from the first by a merge key.
MERGED_DOC = """
base: &flap {parent: 1, dims_mm: &dims [60, 190, 2], crease_dir: [-1, 0, 0],
             theta_init_deg: 0, theta_final_deg: 90}
panels:
  - {id: 1, parent: null, dims_mm: [300, 400, 2]}
  - {<<: *flap, id: 2, crease_anchor_mm: [195, 0, 0]}
  - <<: *flap
    id: 3
    crease_anchor_mm: [395, 0, 0]
    dims_mm: *dims
"""

# Documents whose plain data PyYAML builds in some special way.
INGESTION_CASES = {
    "recursive alias": "panels: &a [*a]\n",
    "merge key": MERGED_DOC,
    "unhashable key": "panels: [{[1, 2]: 3}]\n",
    "quoted number": TWO_PANEL_DOC.replace("id: 2,", "id: '2',"),
    "YAML 1.1 yes": TWO_PANEL_DOC.replace("half_space: true", "half_space: yes"),
    "python tuple": "panels: [{id: !!python/tuple [1, 2]}]\n",
    "empty document": "",
    "two documents": TWO_PANEL_DOC + "---\n" + TWO_PANEL_DOC,
    "timestamp id": TWO_PANEL_DOC.replace("id: 2,", "id: 2001-12-14,"),
    "set": "panels: !!set {? a, ? b}\n",
}

# Plain scalars of every implicit tag: ints in several notations, floats,
# YAML 1.1 bools, nulls, a timestamp, a value key and strings.
SCALAR_TEXTS = (
    "0", "2", "-3", "0x1F", "0o17", "1_000", "190:20", "+5", "1.5", "-0.0", "6.5e3",
    ".inf", "-.Inf", ".nan", "yes", "No", "on", "true", "null", "~", "2001-12-14",
    "=", "'7'", '"8.5"', "''", "id", "parent", "dims_mm", "panels", "abc",
)


@st.composite
def aliased_documents(draw):
    """A flow-style YAML document of nested mappings, sequences and scalars,
    in which nodes carry anchors and later nodes alias them, merge keys
    included. An alias may name a node that is still open, so some
    documents are recursive."""
    anchors: list[str] = []

    def node(depth: int) -> str:
        kinds = ("scalar", "alias", "seq", "map") if depth else ("scalar", "alias")
        kind = draw(st.sampled_from(kinds))
        if kind == "alias" and anchors:
            return f"*{draw(st.sampled_from(anchors))} "
        if kind in ("scalar", "alias"):
            return draw(st.sampled_from(SCALAR_TEXTS))
        prefix = ""
        if draw(st.booleans()):
            anchors.append(f"a{len(anchors)}")
            prefix = f"&{anchors[-1]} "
        size = draw(st.integers(0, 3))
        if kind == "seq":
            return prefix + "[" + ", ".join(node(depth - 1) for _ in range(size)) + "]"
        pairs = [f"{node(0)}: {node(depth - 1)}" for _ in range(size)]
        if anchors and draw(st.booleans()):
            names = draw(st.lists(st.sampled_from(anchors), min_size=1, max_size=2))
            merged = [f"*{name} " for name in names]
            value = merged[0] if len(merged) == 1 else "[" + ", ".join(merged) + "]"
            pairs.insert(draw(st.integers(0, len(pairs))), "<<: " + value)
        return prefix + "{" + ", ".join(pairs) + "}"

    body = node(3)
    if draw(st.booleans()):
        body = "{panels: " + body + ", ranking: " + node(1) + "}"
    return body + "\n"


class TestIngestion:
    @pytest.mark.parametrize("case", sorted(INGESTION_CASES))
    def test_special_documents_parse_as_pyyaml_builds_them(self, case):
        text = INGESTION_CASES[case]
        assert outcome(text) == reference_outcome(text)

    def test_recursive_panels_name_the_panel_entry(self):
        assert outcome("panels: &a [*a]\n") == (
            "SpecValidationError: each panel entry must be a mapping"
        )

    def test_merge_keys_fill_in_the_merged_fields(self):
        spec = parse_spec(MERGED_DOC)
        assert [p.crease_anchor for p in spec.panels[1:]] == [(195.0, 0.0, 0.0), (395.0, 0.0, 0.0)]
        assert {p.dims for p in spec.panels[1:]} == {(60.0, 190.0, 2.0)}

    @settings(max_examples=400, deadline=None)
    @given(aliased_documents())
    def test_aliased_documents_build_the_same_data(self, text):
        try:
            want = repr(yaml.load(text, Loader=REFERENCE_LOADER))
        except (yaml.YAMLError, RecursionError) as exc:
            want = exc
        try:
            got = repr(plain_data(text))
        except (yaml.YAMLError, RecursionError) as exc:
            got = exc
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert got == want
            assert outcome(text) == reference_outcome(text)

    def test_shared_nodes_are_one_object_and_recursive_ones_contain_themselves(self):
        data = plain_data("a: &x {k: [1]}\nb: *x\nc: &y [*y, *x]\n")
        assert data["a"] is data["b"]
        assert data["c"][0] is data["c"] and data["c"][1] is data["a"]

    def test_the_resolver_memo_lives_for_one_document(self):
        loader = model_module._SAFE_LOADER("a: 1\n")
        try:
            model_module._compose(loader)
            assert not vars(loader).keys() & {"resolve", "descend_resolver", "ascend_resolver"}
        finally:
            loader.dispose()


# Values a single field of a spec mapping is set to by the boundary test.
BAD_VALUES = (
    None, True, False, math.nan, math.inf, -math.inf, "x", [], [1.0], [1.0, 2.0], {}, {"a": 1}
)
DELETE = object()
SHIPPED_MAPPINGS = {name: yaml.safe_load((SPEC_DIR / name).read_text()) for name in SHIPPED_SPECS}


def field_paths(node, path=()):
    """Paths to every dict value and list item under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


@st.composite
def mutated_spec_mappings(draw):
    """A shipped spec's mapping with one field deleted or set to a bad value."""
    data = copy.deepcopy(SHIPPED_MAPPINGS[draw(st.sampled_from(SHIPPED_SPECS))])
    *head, last = draw(st.sampled_from(list(field_paths(data))))
    parent = data
    for key in head:
        parent = parent[key]
    value = draw(st.sampled_from((DELETE,) + BAD_VALUES))
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)
    return data


class TestSpecBoundary:
    @settings(max_examples=1000)
    @given(mutated_spec_mappings())
    def test_single_field_mutations_raise_only_spec_errors(self, data):
        try:
            build_tree(spec_from_mapping(data))
        except SpecValidationError:
            pass


QUARTER_DEGREES = st.integers(-720, 720).map(lambda q: q * 0.25)
DEGREES = st.floats(-180.0, 180.0, allow_subnormal=False) | QUARTER_DEGREES
AXES = st.sampled_from(([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]))


def vec3(lo: float, hi: float):
    return st.lists(st.floats(lo, hi), min_size=3, max_size=3)


@st.composite
def spec_mappings(draw):
    """A valid spec mapping whose angles are drawn in degrees, as written by hand."""
    panels = [{"id": 1, "parent": None, "dims_mm": draw(vec3(0.5, 500.0))}]
    for pid in range(2, draw(st.integers(2, 5)) + 1):
        panels.append({
            "id": pid,
            "name": draw(st.sampled_from(("", "flap", "lid 2"))),
            "parent": draw(st.integers(1, pid - 1)),
            "dims_mm": draw(vec3(0.5, 500.0)),
            "crease_anchor_mm": draw(vec3(-300.0, 300.0)),
            "crease_dir": draw(AXES),
            "theta_init_deg": draw(DEGREES),
            "theta_final_deg": draw(DEGREES),
        })
    environment = [{"name": "table", "half_space": True}] if draw(st.booleans()) else []
    if draw(st.booleans()):
        environment.append({"center_mm": draw(vec3(-300.0, 300.0)), "dims_mm": draw(vec3(0.5, 500.0))})
    data = {
        "panels": panels,
        "root_pose": {"translation_mm": draw(vec3(-10.0, 10.0))},
        "environment": environment,
        "planner": {
            "tolerance_angle_deg": draw(st.floats(0.01, 90.0) | st.sampled_from((0.25, 1.5, 3.0, 6.0))),
            "penetration_tolerance_mm": draw(st.floats(0.0, 5.0)),
            "support_tolerance_mm": draw(st.floats(0.0, 5.0)),
        },
        "ranking": draw(st.permutations(("aerial", "maxdim", "volume")).flatmap(
            lambda order: st.integers(1, 3).map(lambda n: list(order[:n]))
        )),
    }
    if draw(st.booleans()):
        data["gripper"] = {"dims_mm": draw(vec3(0.5, 500.0)), "standoff_mm": draw(st.floats(0.0, 10.0))}
    return data


RPY_DEGREES = st.lists(DEGREES, min_size=3, max_size=3).filter(any)


@st.composite
def posed_spec_mappings(draw):
    """A valid spec mapping whose root pose and environment boxes are turned by roll, pitch and yaw."""
    data = draw(spec_mappings())
    data["root_pose"]["rpy_deg"] = draw(RPY_DEGREES)
    data["environment"].append({"center_mm": draw(vec3(-300.0, 300.0)), "dims_mm": draw(vec3(0.5, 500.0))})
    for entry in data["environment"]:
        if not entry.get("half_space"):
            entry["rpy_deg"] = draw(RPY_DEGREES)
    return data


class TestSpecRoundTrip:
    @given(spec_mappings())
    def test_serialized_specs_parse_back_equal(self, data):
        spec = spec_from_mapping(data)
        assert parse_spec(serialize_spec(spec)) == spec

    # The first failing example is reported as drawn: shrinking it would
    # take most of a minute and tell nothing the reason does not. On a
    # failure hypothesis's pytest plugin imports libcst, which warns about
    # a deprecated mypy_extensions class as it loads.
    @pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
    @settings(phases=(Phase.explicit, Phase.generate))
    @given(posed_spec_mappings())
    def test_rotated_poses_parse_back_equal(self, data):
        spec = spec_from_mapping(data)
        assert parse_spec(serialize_spec(spec)) == spec

    @pytest.mark.parametrize("deg", [3.0, 6.0, 1.5])
    def test_degree_values_that_drift_by_an_ulp(self, deg):
        # math.radians(math.degrees(x)) != x for these.
        spec = replace(load_spec(SPEC_DIR / "three_flaps.yaml"), tolerance_angle=math.radians(deg))
        assert math.radians(math.degrees(spec.tolerance_angle)) != spec.tolerance_angle
        assert parse_spec(serialize_spec(spec)) == spec
        assert yaml.safe_load(serialize_spec(spec))["planner"]["tolerance_angle_deg"] == deg


class TestSpecEquality:
    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_two_loads_are_equal_and_hash_alike(self, spec_dir, name):
        first, second = load_spec(spec_dir / name), load_spec(spec_dir / name)
        assert first == second
        assert hash(first) == hash(second)

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_serialization_round_trips_exactly(self, spec_dir, name):
        spec = load_spec(spec_dir / name)
        assert parse_spec(serialize_spec(spec)) == spec

    def test_root_pose_alone_makes_specs_unequal(self, case_study):
        spec, _ = case_study
        moved = replace(
            spec,
            root_pose=Transform(spec.root_pose.rotation, spec.root_pose.translation + (0, 0, 1)),
        )
        assert moved != spec

    def test_trees_compare_by_identity(self, case_study):
        spec, tree = case_study
        other = build_tree(spec)
        assert tree == tree and tree != other
        assert len({tree, other}) == 2
        assert other.spec == tree.spec


@st.composite
def oblique_spec_mappings(draw):
    """A valid spec mapping whose creases run in any direction but the normal's."""
    data = draw(spec_mappings())
    for entry in data["panels"][1:]:
        x, y, z = draw(
            st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
                lambda v: math.hypot(*v) > 0.1 and abs(v[2]) < 0.9 * math.hypot(*v)
            )
        )
        norm = math.hypot(x, y, z)
        entry["crease_dir"] = [x / norm, y / norm, z / norm]
    return data


def reference_mount(axis: np.ndarray) -> np.ndarray:
    """A crease's mount, one panel at a time."""
    z_axis = np.array([0.0, 0.0, 1.0]) - axis[2] * axis
    z_axis = z_axis / float(np.linalg.norm(z_axis))
    return np.column_stack([axis, np.cross(z_axis, axis), z_axis])


class TestBuildTree:
    @settings(max_examples=200, deadline=None)
    @given(oblique_spec_mappings())
    def test_stacked_crease_tables_equal_the_per_panel_forms(self, data):
        # build_tree forms every crease's mount, turns and sweep rows in
        # stacked passes; each must equal its one-panel form bit for bit.
        spec = spec_from_mapping(data)
        tree = build_tree(spec)
        cross_x = model_module._CROSS_X
        for panel in spec.panels[1:]:
            anchor, axis, mount = tree.mounts[panel.id]
            direction = np.asarray(panel.crease_dir, dtype=float)
            assert bits(anchor) == bits(panel.crease_anchor)
            assert bits(axis) == bits(direction / math.hypot(*direction.tolist()))
            assert bits(mount) == bits(reference_mount(axis))
            for turned, angle in zip(tree.turns[panel.id], (panel.theta_init, panel.theta_final)):
                assert bits(turned) == bits(rotation_matrix(axis, angle) @ mount)
            if not panel.foldable:
                assert panel.id not in tree.crease_terms
                continue
            terms, weights = tree.crease_terms[panel.id]
            x_term = mount @ cross_x
            assert bits(terms) == bits(np.stack((mount, x_term, x_term @ cross_x)))
            angles = sweep_angles(panel.theta_init, panel.theta_final, spec.tolerance_angle)
            rows = np.column_stack((np.ones(len(angles)), np.sin(angles), 1.0 - np.cos(angles)))
            assert bits(weights) == bits(rows)

    def test_a_crease_along_the_parent_normal_is_named(self):
        doc = TWO_PANEL_DOC.replace("crease_dir: [-1, 0, 0]", "crease_dir: [0, 0, 1]")
        with pytest.raises(SpecValidationError, match="panel 2: crease_dir may not be parallel"):
            build_tree(parse_spec(doc))

    def test_two_panel_subtrees(self):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        assert tree.subtree_ids(1) == (1, 2)
        assert tree.subtree_ids(2) == (2,)

    def test_chain_subtrees_are_hereditary(self):
        spec = CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(50, 50, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(30, 40, 2),
                    crease_anchor=(45, 0, 0), crease_dir=(-1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
                PanelSpec(
                    id=3, parent=2, dims=(20, 30, 2),
                    crease_anchor=(5, 30, 0), crease_dir=(1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
            ),
            table_plane=False,
        )
        tree = build_tree(spec)
        assert tree.subtree_ids(1) == (1, 2, 3)
        assert tree.subtree_ids(2) == (2, 3)
        # Moving joint 2 must move panel 3 in forward kinematics.
        base = forward_kinematics(tree, JointVector.flat(tree))
        nudged = forward_kinematics(
            tree, JointVector.flat(tree).replace(2, 0.3)
        )
        assert not np.allclose(base[2].center, nudged[2].center)

    def test_star_siblings_independent(self):
        spec = CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(100, 100, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(30, 90, 2),
                    crease_anchor=(5, 100, 0), crease_dir=(1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
                PanelSpec(
                    id=3, parent=1, dims=(30, 90, 2),
                    crease_anchor=(95, 0, 0), crease_dir=(-1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
            ),
            table_plane=False,
        )
        tree = build_tree(spec)
        assert tree.subtree_ids(2) == (2,)
        assert tree.subtree_ids(3) == (3,)

    def test_fixtures_are_packed_once(self):
        spec = parse_spec(TWO_PANEL_DOC)
        assert build_tree(spec).obstacles is None
        post = OrientedBox.from_center((100.0, -30.0, 31.0), (40, 10, 10))
        centers, rots, halves = build_tree(replace(spec, environment=(post,))).obstacles
        np.testing.assert_array_equal(centers, [post.center])
        np.testing.assert_array_equal(rots, [post.pose.rotation])
        np.testing.assert_array_equal(halves, [post.half_extents])


def bits(value) -> bytes:
    """The exact bytes of a float or array, so that -0.0 differs from 0.0."""
    return np.asarray(value, dtype=float).tobytes()


def fk_measures(tree, folded):
    """Poses, bounding box and lowest corner per panel, from one FK run."""
    poses = forward_kinematics(tree, JointVector.from_folded(tree, folded))
    min_z = {p.panel_id: float(p.solid.corners()[:, 2].min()) for p in poses}
    return poses, world_aabb([p.solid for p in poses]), min_z


class TestStateMemo:
    def test_each_panel_pose_is_built_once(self, monkeypatch):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        fk_calls, built = [], []

        def counted_fk(tree_, theta):
            fk_calls.append(theta)
            return forward_kinematics(tree_, theta)

        def counted_pose(panel, frame):
            built.append(panel.id)
            return panel_pose_from_frame(panel, frame)

        monkeypatch.setattr(model_module, "forward_kinematics", counted_fk)
        monkeypatch.setattr(model_module, "panel_pose_from_frame", counted_pose)
        bit = tree.bits[2]
        folded = [tree.panel_state(pid, bit) for pid in tree.ids]
        assert tree.panel_state(2, bit) is folded[1]
        assert tree.panel_state(1, 0) is folded[0]  # the root never moves
        tree.panel_state(2, 0)
        assert fk_calls == []
        assert sorted(built) == [1, 2, 2]
        assert sorted(tree.panel_records) == [(1, 0), (2, 0), (2, bit)]
        theta = JointVector.from_folded(tree, {2})
        assert [r.pose for r in folded] == forward_kinematics(tree, theta)

    def test_memo_is_per_tree_and_out_of_repr(self):
        spec = parse_spec(TWO_PANEL_DOC)
        used, fresh = build_tree(spec), build_tree(spec)
        used.panel_state(2, 0)
        assert "panel_records" not in repr(used)
        assert used.panel_records and not fresh.panel_records

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_panel_records_equal_forward_kinematics_bit_for_bit(self, spec_dir, name):
        # The poses and the box that --explain, --dump-states and the grasp
        # advisory assemble from the records, state by state.
        tree = build_tree(load_spec(spec_dir / name))
        for mask in range(1 << len(tree.foldable_ids)):
            poses, box, _ = fk_measures(tree, tree.joints(mask))
            records = [tree.panel_state(pid, mask) for pid in tree.ids]
            assert [r.pose for r in records] == poses
            for got, want in zip(records, poses):
                assert bits(got.pose.pose.rotation) == bits(want.pose.rotation)
                assert bits(got.pose.pose.translation) == bits(want.pose.translation)
                assert bits(got.pose.center) == bits(want.center)
            assert bits([min(r.lo[i] for r in records) for i in range(3)]) == bits(box.min)
            assert bits([max(r.hi[i] for r in records) for i in range(3)]) == bits(box.max)

    def test_measures_equal_forward_kinematics_bit_for_bit(self, spec_dir):
        # Volume, max extent and the aerial flag of every subset, on the
        # shipped specs and on random trees at least three creases deep.
        rng = np.random.default_rng(5)
        trees = [build_tree(load_spec(spec_dir / name)) for name in SHIPPED_SPECS]
        while len(trees) < len(SHIPPED_SPECS) + 4:
            tree = random_tree(rng, 6)
            if max(joints.bit_count() for joints in tree.ancestry.values()) >= 3:
                trees.append(tree)
        for tree in trees:
            joints = tree.foldable_ids
            subsets = [
                frozenset(folded)
                for r in range(len(joints) + 1)
                for folded in itertools.combinations(joints, r)
            ]
            masks = [tree.mask(folded) for folded in subsets]
            volumes, max_extents = tree.measures(masks)
            for folded, mask, volume, max_extent in zip(subsets, masks, volumes, max_extents):
                _, box, min_z = fk_measures(tree, folded)
                assert bits(volume) == bits(box.volume)
                assert bits(max_extent) == bits(box.max_extent)
                for pid in tree.ids:
                    assert bits(tree.panel_state(pid, mask).lo[2]) == bits(min_z[pid])
                for joint in set(joints) - folded:
                    lowest = min(min_z[pid] for pid in tree.subtree_ids(joint))
                    expected = lowest > tree.spec.support_tolerance
                    assert sweep(tree, mask, joint).aerial is expected

    def test_measures_of_grouped_states_equal_forward_kinematics_bit_for_bit(self):
        # measures() groups the states by each panel's key, its group index
        # derived from the parent's: a chain of five foldable panels, with a
        # glued one in the middle that keeps its parent's groups, renumbers
        # at every level; branchy trees split several children at once.
        from .test_collision import branchy_trees

        chain = [PanelSpec(id=1, parent=None, dims=(60, 60, 2))]
        for pid in range(2, 8):
            angle = 0.4 if pid == 4 else 0.0
            chain.append(PanelSpec(
                id=pid, parent=pid - 1, dims=(30 + pid, 60, 2),
                crease_anchor=(0.0, chain[-1].height, 0.0), crease_dir=(1.0, 0.0, 0.0),
                theta_init=angle, theta_final=angle if pid == 4 else 0.3 * pid,
            ))
        chain_tree = build_tree(CartonSpec(panels=tuple(chain), table_plane=False))
        assert len(chain_tree.foldable_ids) == 5
        rng = np.random.default_rng(3)
        for tree in (chain_tree, *branchy_trees()):
            k = len(tree.foldable_ids)
            # Every state, in a shuffled order with repeats.
            masks = rng.permutation(np.r_[np.arange(1 << k), rng.integers(0, 1 << k, 9)]).tolist()
            volumes, max_extents = tree.measures(masks)
            for mask, volume, max_extent in zip(masks, volumes, max_extents):
                _, box, _ = fk_measures(tree, tree.joints(mask))
                assert bits(volume) == bits(box.volume)
                assert bits(max_extent) == bits(box.max_extent)
            empty = tree.measures([])
            assert [a.shape for a in empty] == [(0,), (0,)]

    def test_measures_of_masks_wider_than_int64(self):
        # 64 joints: the full state's mask does not fit an int64.
        tree = build_tree(free_flap_spec(64))
        states = [frozenset(), frozenset(tree.foldable_ids[::3]), frozenset(tree.foldable_ids)]
        volumes, max_extents = tree.measures([tree.mask(folded) for folded in states])
        for folded, volume, max_extent in zip(states, volumes, max_extents):
            _, box, _ = fk_measures(tree, folded)
            assert bits(volume) == bits(box.volume)
            assert bits(max_extent) == bits(box.max_extent)

    def test_volume_multiplies_in_numpy_order(self):
        # measures() forms the volumes as (dx * dy) * dz over arrays of
        # extents; Aabb.volume takes np.prod of one box's extents.
        rng = np.random.default_rng(9)
        los, his = rng.uniform(-500, 0, (2000, 3)), rng.uniform(0, 500, (2000, 3))
        dx, dy, dz = (his - los).T
        for volume, lo, hi in zip(dx * dy * dz, los, his):
            assert bits(volume) == bits(Aabb(lo, hi).volume)


class TestPoseEquality:
    def test_poses_compare_by_value(self, three_flaps):
        # Regression: the generated __eq__ compared ndarray fields and raised.
        _, tree = three_flaps
        flat = JointVector.flat(tree)
        a, b = forward_kinematics(tree, flat)[0], forward_kinematics(tree, flat)[0]
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert forward_kinematics(tree, flat) == forward_kinematics(tree, flat)
        flap = tree.foldable_ids[0]
        moved = forward_kinematics(tree, JointVector.from_folded(tree, {flap}))
        index = tree.ids.index(flap)
        assert moved[index] != forward_kinematics(tree, flat)[index]
        assert moved[0] == a


def random_tree(rng: np.random.Generator, n_panels: int):
    """Random chain/branchy carton laid out flat like a net.

    Each panel hangs outward off a random free edge of a random earlier
    panel (the root has four, every other panel the three away from its own
    crease) and folds up or down by up to about 150 degrees, so flaps can
    land on their parents' other flaps. A panel whose flat slab would touch
    any panel but its parent is drawn again.
    """
    panels = [PanelSpec(id=1, parent=None, dims=(80, 80, 2))]
    while True:
        # Hinged 2 mm slabs overlap by up to 1 mm at the crease while folding.
        tree = build_tree(
            CartonSpec(panels=tuple(panels), table_plane=False, penetration_tolerance=1.05)
        )
        if len(panels) == n_panels:
            return tree
        parent = panels[int(rng.integers(0, len(panels)))]
        ph, pw = parent.height, parent.width
        edges = [  # (edge length, crease_dir, anchor for an offset a and width w)
            (pw, (1.0, 0.0, 0.0), lambda a, w: (a, ph, 0.0)),
            (ph, (0.0, 1.0, 0.0), lambda a, w: (0.0, a, 0.0)),
            (ph, (0.0, -1.0, 0.0), lambda a, w: (pw, a + w, 0.0)),
        ]
        if parent.parent is None:
            edges.append((pw, (-1.0, 0.0, 0.0), lambda a, w: (a + w, 0.0, 0.0)))
        length, direction, anchor = edges[int(rng.integers(0, len(edges)))]
        width = length * float(rng.uniform(0.3, 0.9))
        offset = float(rng.uniform(0.0, length - width))
        panel = PanelSpec(
            id=len(panels) + 1,
            parent=parent.id,
            dims=(float(rng.uniform(20, 60)), width, 2.0),
            crease_anchor=anchor(offset, width),
            crease_dir=direction,
            theta_init=0.0,
            theta_final=float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.6)),
        )
        grown = build_tree(replace(tree.spec, panels=tree.spec.panels + (panel,)))
        flat = forward_kinematics(grown, JointVector.flat(grown))
        if not any(
            obb_intersect(flat[-1].solid, other.solid)
            for other in flat[:-1]
            if other.panel_id != parent.id
        ):
            panels.append(panel)


class TestForwardKinematics:
    def test_flat_layout_is_coplanar_with_table(self, case_study):
        spec, tree = case_study
        poses = forward_kinematics(tree, JointVector.flat(tree))
        corners = np.vstack([p.solid.corners() for p in poses])
        max_t = max(p.thickness for p in spec.panels)
        assert corners[:, 2].min() >= -1e-9
        assert corners[:, 2].max() <= 2 * max_t

    def test_two_panel_flap_raised_vertically(self):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        poses = forward_kinematics(tree, JointVector.from_folded(tree, {2}))
        flap = poses[1]
        # Crease at x=195 spanning toward -x; flap height 60 rises to z = 1 + 30.
        np.testing.assert_allclose(flap.center, (100.0, 0.0, 31.0), atol=1e-9)
        # Panel normal (local z) now parallel to the table.
        normal = flap.solid.axes[:, 2]
        assert abs(normal[2]) < 1e-9

    def test_chain_matches_composed_axis_rotations(self):
        # Grandchild pose must equal the direct composition of the two
        # crease rotations applied to its flat frame.
        base_w, flap_h = 100.0, 40.0
        spec = CartonSpec(
            panels=(
                PanelSpec(id=1, parent=None, dims=(80, base_w, 2)),
                PanelSpec(
                    id=2, parent=1, dims=(flap_h, 90, 2),
                    crease_anchor=(95, 80, 0), crease_dir=(1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
                PanelSpec(
                    id=3, parent=2, dims=(25, 80, 2),
                    crease_anchor=(5, flap_h, 0), crease_dir=(1, 0, 0),
                    theta_init=0.0, theta_final=np.pi / 2,
                ),
            ),
            table_plane=False,
        )
        tree = build_tree(spec)
        flat = forward_kinematics(tree, JointVector.flat(tree))
        folded = forward_kinematics(tree, JointVector.from_folded(tree, {2, 3}))

        # Independent derivation from the flat pose: rotate the grandchild's
        # flat frame about the inner crease, then about the outer crease.
        inner_point = flat[1].pose.apply((5.0, flap_h, 0.0))
        inner_axis = flat[1].pose.rotation[:, 0]
        outer_point = flat[0].pose.apply((95.0, 80.0, 0.0))
        outer_axis = flat[0].pose.rotation[:, 0]
        motion = rotate_about_axis(outer_point, outer_axis, np.pi / 2) @ rotate_about_axis(
            inner_point, inner_axis, np.pi / 2
        )
        expected = motion @ flat[2].pose
        np.testing.assert_allclose(folded[2].pose.rotation, expected.rotation, atol=1e-9)
        np.testing.assert_allclose(
            folded[2].pose.translation, expected.translation, atol=1e-9
        )

    def test_out_of_range_theta_rejected(self):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        with pytest.raises(ValueError, match="out of range"):
            forward_kinematics(tree, JointVector.flat(tree).replace(2, -0.5))

    def test_ancestry_governs_motion(self):
        # Perturbing joint i moves panel j iff i is an ancestor of j or i == j.
        rng = np.random.default_rng(17)
        for n in (4, 6, 8):
            tree = random_tree(rng, n)
            flat = forward_kinematics(tree, JointVector.flat(tree))
            flat_centers = {p.panel_id: p.center for p in flat}
            for joint in tree.foldable_ids:
                panel = tree.panel(joint)
                nudged_theta = JointVector.flat(tree).replace(
                    joint, panel.theta_init + 0.25 * (panel.theta_final - panel.theta_init)
                )
                nudged = forward_kinematics(tree, nudged_theta)
                for pose in nudged:
                    moved = not np.allclose(
                        pose.center, flat_centers[pose.panel_id], atol=1e-9
                    )
                    expected = pose.panel_id in tree.subtree_ids(joint)
                    assert moved == expected, (joint, pose.panel_id)

    def test_solid_half_extents_follow_dims(self):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        poses = forward_kinematics(tree, JointVector.flat(tree))
        root = tree.panel(1)
        np.testing.assert_allclose(
            poses[0].solid.half_extents,
            (root.width / 2, root.height / 2, root.thickness / 2),
        )

    @pytest.mark.parametrize("name", SHIPPED_SPECS)
    def test_every_pose_is_a_proper_rotation(self, spec_dir, name):
        # FK composes transforms without re-validating them; every product
        # must still pass the check the public constructor makes.
        tree = build_tree(load_spec(spec_dir / name))
        joints = tree.foldable_ids
        for r in range(len(joints) + 1):
            for folded in itertools.combinations(joints, r):
                for pose in forward_kinematics(tree, JointVector.from_folded(tree, folded)):
                    for rot in (pose.pose.rotation, pose.solid.pose.rotation):
                        assert np.abs(rot.T @ rot - np.eye(3)).max() <= ORTHONORMAL_TOL
                        assert np.linalg.det(rot) > 0.0

    def test_center_is_pose_of_local_center(self):
        tree = build_tree(parse_spec(TWO_PANEL_DOC))
        for pose in forward_kinematics(tree, JointVector.from_folded(tree, {2})):
            panel = tree.panel(pose.panel_id)
            np.testing.assert_allclose(
                pose.center,
                pose.pose.apply((panel.width / 2, panel.height / 2, 0.0)),
                atol=1e-12,
            )
