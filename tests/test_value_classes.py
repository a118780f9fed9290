"""The value classes keep the contract of frozen dataclasses, and a fresh
`import conicmaps.cli` defines them without `dataclasses` and loads no json."""

import dataclasses
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from conicmaps import (
    Cone,
    ConePoint,
    ConicalAnnulus,
    CurveTable,
    DistortionReport,
    GeoPolyline,
    LambertChart,
    ParsedLines,
    PlanarPoint,
    ProjectedPaths,
    ProjectionParams,
    SphericalAnnulus,
    SphericalPoint,
    StretchSample,
    SvgStyle,
    make_profile,
)
from conicmaps.errors import ValidationError

CONE = Cone(0.9, 1.5)

# Each converted class with one valid set of fields, in field order.
SAMPLES = {
    SphericalPoint: {"theta": 0.5, "rho": 0.25},
    SphericalAnnulus: {"rho1": 0.2, "rho2": 0.6},
    PlanarPoint: {"re": 1.0, "im": -2.0},
    Cone: {"alpha": 0.9, "apex_z": 1.5},
    ConePoint: {"cone": CONE, "slant": 1.2, "theta": 0.5},
    ConicalAnnulus: {"cone": CONE, "s_inner": 1.0, "s_outer": 2.0},
    LambertChart: {"alpha": 0.9, "rho0": 0.5, "r_norm": 1.3, "cone": CONE},
    StretchSample: {"rho": 0.5, "h_meridian": 1.1, "h_parallel": 0.95, "sigma": 1.1},
    DistortionReport: {"sup_log": 0.1, "inf_log": -0.05, "delta": 0.15,
                       "arg_sup": 0.7, "arg_inf": 0.3},
    GeoPolyline: {"name": "t", "points": ((10.0, 50.0), (20.0, 55.0))},
    ParsedLines: {"lines": [], "ignored": 0},
    CurveTable: {"columns": ("a", "b"), "values": ((1.0, 2.0),)},
    SvgStyle: {"stroke": "red", "stroke_width": 0.01},
    ProjectedPaths: {"paths": [], "dropped": 3},
    ProjectionParams: {"rho1": 0.2, "rho2": 0.6, "alpha_override": 0.9},
}
IDENTITY_CLASSES = (GeoPolyline, CurveTable)
# Records holding lists are equal by value but, like a list, not hashable.
UNHASHABLE = (ParsedLines, ProjectedPaths)

classes = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)


def build(cls):
    return cls(*SAMPLES[cls].values())


@classes
def test_construction_by_position_and_by_keyword_agree(cls):
    by_position, by_keyword = build(cls), cls(**SAMPLES[cls])
    assert repr(by_position) == repr(by_keyword)
    first, *rest = SAMPLES[cls]
    mixed = cls(SAMPLES[cls][first], **{name: SAMPLES[cls][name] for name in rest})
    assert repr(mixed) == repr(by_position)


def test_defaults_fill_the_fields_not_given():
    assert SvgStyle() == SvgStyle("black", 0.002)
    assert SvgStyle(stroke_width=0.5) == SvgStyle("black", 0.5)
    assert ProjectionParams(0.2, 0.6).alpha_override is None
    assert ProjectionParams(rho2=0.6, rho1=0.2) == ProjectionParams(0.2, 0.6, None)


@classes
def test_missing_unknown_duplicate_or_extra_field_is_a_type_error(cls):
    fields = SAMPLES[cls]
    first, *rest = fields
    if cls is not SvgStyle:  # every SvgStyle field has a default
        with pytest.raises(TypeError):
            cls(**{name: fields[name] for name in rest})
    with pytest.raises(TypeError):
        cls(*fields.values(), bogus=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: fields[first]})


REJECTIONS = [
    (lambda: SphericalPoint(math.nan, 0.2), ValueError, "non-finite coordinate: nan"),
    (lambda: SphericalPoint(0.1, 1.0), ValueError, "rho must lie in (-1, 1), got 1.0"),
    (lambda: SphericalAnnulus(0.2, math.inf), ValueError, "non-finite coordinate: inf"),
    (lambda: SphericalAnnulus(0.6, 0.2), ValueError,
     "need -1 < rho1 < rho2 < 1, got (0.6, 0.2)"),
    (lambda: PlanarPoint(0.0, -math.inf), ValueError, "non-finite coordinate: -inf"),
    (lambda: Cone(0.5, math.nan), ValueError, "non-finite coordinate: nan"),
    (lambda: Cone(2.0, 1.0), ValueError, "half-apex angle must lie in (0, pi/2), got 2.0"),
    (lambda: ConePoint(CONE, 1.0, math.inf), ValueError, "non-finite coordinate: inf"),
    (lambda: ConePoint(CONE, 0.0, 1.0), ValueError,
     "slant distance must be positive (apex excluded)"),
    (lambda: ConicalAnnulus(CONE, 2.0, 1.0), ValueError,
     "need 0 < s_inner < s_outer, got (2.0, 1.0)"),
    (lambda: StretchSample(0.5, 0.0, 1.0, 1.0), ValueError, "stretches must be positive"),
    (lambda: StretchSample(0.5, 1.0, 1.0, 0.5), ValueError,
     "bi-Lipschitz constant cannot be below 1"),
    (lambda: DistortionReport(0.0, 0.1, -0.1, 0.5, 0.5), ValueError,
     "distortion cannot be negative"),
    (lambda: GeoPolyline("t", [(1.0,), (2.0,)]), ValidationError,
     "t: vertices must be (longitude, latitude) pairs of numbers"),
    (lambda: GeoPolyline("t", [(1.0, 2.0)]), ValidationError,
     "t: a polyline needs at least 2 points"),
    (lambda: GeoPolyline("t", [(1.0, 2.0), (math.nan, 3.0)]), ValidationError,
     "t: non-finite coordinate"),
    (lambda: GeoPolyline("t", [(1.0, 2.0), (200.0, 3.0)]), ValidationError,
     "t: longitude 200.0 out of range"),
    (lambda: GeoPolyline("t", np.array([[1.0, 2.0], [3.0, 95.0]])), ValidationError,
     "t: latitude 95.0 out of range"),
    (lambda: CurveTable(("a", "b"), [(1.0, 2.0), (3.0,)]), ValueError, "ragged table row"),
    (lambda: CurveTable(("a",), [(math.inf,)]), ValueError, "non-finite table entry"),
    (lambda: ProjectionParams(0.6, 0.2), ValueError,
     "need -1 < rho1 < rho2 < 1, got (0.6, 0.2)"),
]


@pytest.mark.parametrize("make, error, message", REJECTIONS)
def test_post_init_rejections_keep_their_messages(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_post_init_normalises_the_stored_fields():
    assert SphericalPoint(-0.5, 0.25).theta == -0.5 % (2.0 * math.pi)
    assert ConePoint(CONE, 1.0, 7.0).theta == 7.0 % (2.0 * math.pi)
    line = GeoPolyline("t", [(10, 50), (20, 55)])
    assert line.points == ((10.0, 50.0), (20.0, 55.0))
    table = CurveTable([1, 2], [(1, 2)])
    assert table.columns == ("1", "2") and table.values.dtype == np.float64


@classes
def test_assignment_and_deletion_raise_attribute_error(cls):
    obj = build(cls)
    name = next(iter(SAMPLES[cls]))
    before = repr(obj)
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert repr(obj) == before


@classes
def test_equality_by_value_or_by_identity(cls):
    a, b = build(cls), build(cls)
    assert a == a
    if cls in IDENTITY_CLASSES:
        assert a != b and len({a, b, a}) == 2
        return
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_value_equality_needs_the_same_class_and_every_field():
    assert SphericalAnnulus(0.2, 0.6) != ProjectionParams(0.2, 0.6)
    assert SphericalAnnulus(0.2, 0.6) != (0.2, 0.6)
    assert SphericalAnnulus(0.2, 0.6) != SphericalAnnulus(0.2, 0.7)
    assert ProjectionParams(0.2, 0.6) != ProjectionParams(0.2, 0.6, 0.9)
    assert len({SphericalPoint(0.5, 0.25), SphericalPoint(0.5 + 2.0 * math.pi, 0.25)}) == 1


@classes
def test_repr_names_the_fields_in_order(cls):
    text = repr(build(cls))
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    positions = [text.index(f"{name}=") for name in SAMPLES[cls]]
    assert positions == sorted(positions)


def test_repr_matches_the_dataclass_layout():
    assert repr(SphericalPoint(0.5, 0.25)) == "SphericalPoint(theta=0.5, rho=0.25)"
    assert repr(SvgStyle()) == "SvgStyle(stroke='black', stroke_width=0.002)"


def test_dataclasses_replace_still_works_on_meridian_profile():
    profile = make_profile("lambert", ProjectionParams(0.2, 0.6))
    assert dataclasses.is_dataclass(profile)
    blind = dataclasses.replace(profile, critical=None)
    assert blind.critical is None and profile.critical is not None
    assert (blind.kind, blind.cone, blind.s, blind.aux) == (
        profile.kind, profile.cone, profile.s, profile.aux)
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.kind = "central"


# Looks at sys.modules before it imports json itself to print the answer.
FRESH_IMPORT = """
import sys
import conicmaps.cli
json_loaded = "json" in sys.modules
dataclasses = sorted(
    f"{name}.{obj.__name__}"
    for name, module in list(sys.modules.items())
    if name == "conicmaps" or name.startswith("conicmaps.")
    for obj in vars(module).values()
    if isinstance(obj, type) and obj.__module__ == name and "__dataclass_fields__" in vars(obj)
)
import json
print(json.dumps({"json_loaded": json_loaded, "dataclasses": dataclasses}))
"""


def test_fresh_import_loads_no_json_and_defines_one_dataclass():
    res = subprocess.run([sys.executable, "-c", FRESH_IMPORT], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {
        "json_loaded": False,
        "dataclasses": ["conicmaps.projections.MeridianProfile"],
    }
