"""`annulus_distortion` is the one entry for the conformal distortion, at a
float angle, and the band's two logarithms and log F each have one owner,
so the values built on them agree bit for bit.  A band's six profiles are
built once, the Lambert one first."""

import math
import re

import numpy as np
import pytest

from conicmaps import (
    ProjectionParams,
    SphericalAnnulus,
    annulus_distortion,
    annulus_modulus,
    lipschitz_constant,
    log_squared_stretch,
    make_profile,
    optimal_alpha_by_root,
)
from conicmaps import cli, projections
from conicmaps.distortion import _distortion_in_a
from conicmaps.projections import COMPARISON_ORDER, KIND_LAMBERT, KIND_TEICHMULLER
from conftest import RHO1, RHO2

NARROW = [(0.1, 0.1000000001), (0.3, 0.3000000000001)]
NEAR_POLE = [(0.99999999, 0.999999991), (0.9999, 0.99995)]
NEAR_ZERO_SUM = [(-0.3, 0.3000001), (-0.1, 0.1 + 1e-12)]
BANDS = [(RHO1, RHO2)] + NARROW + NEAR_POLE + NEAR_ZERO_SUM


def _bits(values):
    """The float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("band", BANDS)
def test_a_float_or_0d_angle_gives_the_closures_float(band):
    rho1, rho2 = band
    closure = _distortion_in_a(rho1, rho2, rho1)
    for alpha in (0.3, optimal_alpha_by_root(rho1, rho2), 1.2):
        want = closure(math.sin(alpha))
        for given in (alpha, np.float64(alpha), np.array(alpha)):
            got = annulus_distortion(rho1, rho2, given, rho1)
            assert type(got) is float
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("bad", [math.nan, 0.0, math.pi / 2.0, -0.25])
def test_the_first_bad_angle_is_named(bad):
    message = rf"^alpha must lie in \(0, pi/2\), got {re.escape(str(bad))}$"
    with pytest.raises(ValueError, match=message):
        annulus_distortion(RHO1, RHO2, bad, RHO1)


def test_the_band_is_checked_before_the_angles_and_the_angles_before_rho0():
    with pytest.raises(ValueError, match=r"^need -1 < rho1 < rho2 < 1, got \(0\.5, 0\.4\)$"):
        annulus_distortion(0.5, 0.4, math.nan, 1.0)
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0, pi/2\), got nan$"):
        annulus_distortion(RHO1, RHO2, math.nan, 1.0)
    with pytest.raises(ValueError, match=r"^rho0 must lie in \(-1, 1\), got 1\.0$"):
        annulus_distortion(RHO1, RHO2, 0.9, 1.0)


@pytest.mark.parametrize("band", BANDS)
def test_teichmuller_modulus_is_annulus_modulus(band):
    aux = make_profile(KIND_TEICHMULLER, ProjectionParams(*band)).aux
    assert _bits(aux["mod_sphere"]) == _bits(annulus_modulus(SphericalAnnulus(*band)))


@pytest.mark.parametrize("band", BANDS)
def test_lipschitz_constant_is_the_root_of_the_squared_stretch(band):
    rho1, rho2 = band
    heights = [rho1, rho1 + 0.5 * (rho2 - rho1), rho2]
    for alpha in (optimal_alpha_by_root(rho1, rho2), 0.3, 1.2):
        for rho0 in (rho1, rho2, 0.0):
            for rho in heights:
                want = math.exp(0.5 * log_squared_stretch(rho, math.sin(alpha), rho0))
                assert _bits(lipschitz_constant(rho, alpha, rho0)) == _bits(want)


def _record_calls(monkeypatch, name):
    """Patch ``name`` in `cli` and `projections`, where the program looks it
    up, to record the first argument of each call."""
    calls = []
    original = getattr(projections, name)

    def recording(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in (cli, projections):
        monkeypatch.setattr(module, name, recording)
    return calls


LAMBERT_FIRST = [KIND_LAMBERT] + [k for k in COMPARISON_ORDER if k != KIND_LAMBERT]


def test_reproduce_builds_each_profile_and_the_root_once(monkeypatch, capsys):
    kinds = _record_calls(monkeypatch, "make_profile")
    roots = _record_calls(monkeypatch, "optimal_alpha_by_root")
    assert cli.main(["reproduce"]) == 0
    assert kinds == LAMBERT_FIRST
    assert roots == [RHO1]


@pytest.mark.parametrize("command", ["table", "curves"])
def test_table_and_curves_build_the_lambert_profile_first(command, monkeypatch, capsys):
    kinds = _record_calls(monkeypatch, "make_profile")
    assert cli.main([command]) == 0
    assert kinds == LAMBERT_FIRST
