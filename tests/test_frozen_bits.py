"""Bit-for-bit pins of the scan's angle and of both paths of
``profile_distortion``, and the sign rules of ``_require_positive``.

The hex literals are the bits the code gives, so that a speed-up of the
golden section, of the exact path's reads or of the sign test that moves
one bit fails here.  The scan bands are the canonical one and four of
each class the ``bands`` benchmark draws (narrow, wide, equator, high).
"""

import dataclasses
import math

import numpy as np
import pytest

from conicmaps import make_profile, optimal_alpha_by_scan, profile_distortion
from conicmaps.distortion import _require_positive
from conicmaps.errors import NonPositiveStretch
from conicmaps.projections import ProjectionParams

# (rho1, rho2, optimal_alpha_by_scan(rho1, rho2).hex())
SCAN_BITS = [
    (0.737277, 0.887011, '0x1.ed9cfa5146fd1p-1'),
    (0.676948, 0.686865, '0x1.8033b6d89bfa3p-1'),
    (-0.379059, 0.849525, '0x1.631c369422a7ep-2'),
    (0.001816, 0.221413, '0x1.cde99f583383fp-4'),
    (0.902598, 0.922074, '0x1.2659231d9f4f5p+0'),
    (0.590923, 0.596636, '0x1.4581915697a31p-1'),
    (-0.15772, 0.907228, '0x1.127de019c91a8p-1'),
    (0.008903, 0.233516, '0x1.f603ebaccc209p-4'),
    (0.92094, 0.939796, '0x1.32508a3af5084p+0'),
    (0.265152, 0.274409, '0x1.17b9b749bcf7dp-2'),
    (-0.266669, 0.921757, '0x1.03c5549880e12p-1'),
    (-0.038505, 0.224682, '0x1.825f64329d1d2p-4'),
    (0.954821, 0.9775, '0x1.509f9e213d91dp+0'),
    (0.35347, 0.355985, '0x1.7353754ef3042p-2'),
    (-0.263978, 0.846444, '0x1.9cf665c9a642ep-2'),
    (-0.040305, 0.2314, '0x1.8cec8586637d0p-4'),
    (0.956903, 0.982405, '0x1.54dd5dd0a4180p+0'),
]
# (band, kind, path): the hex of sup_log, inf_log, arg_sup and arg_inf;
# the grid path is the profile with critical=None.
REPORT_BITS = {
    ((0.737277, 0.887011), 'central', 'exact'):
        ('0x1.198aec8e6c6e8p-7', '-0x1.198aec8e6c697p-7', '0x1.797c5ef62f9cap-1', '0x1.a367e43f35748p-1'),
    ((0.737277, 0.887011), 'central', 'grid'):
        ('0x1.198aec8e6c6e8p-7', '-0x1.198aec8e6c616p-7', '0x1.797c5ef62f9cap-1', '0x1.a367e40b4bbeep-1'),
    ((0.737277, 0.887011), 'delisle', 'exact'):
        ('0x1.fffffffffffffp-53', '-0x1.1aaa66be7bc35p-7', '0x1.797c5ef62f9cap-1', '0x1.a5d5119a9d258p-1'),
    ((0.737277, 0.887011), 'delisle', 'grid'):
        ('0x1.fffffffffffffp-53', '-0x1.1aaa66be7bc35p-7', '0x1.797c5ef62f9cap-1', '0x1.a5d51161b32e3p-1'),
    ((0.737277, 0.887011), 'delisle-equidistant', 'exact'):
        ('0x0.0p+0', '-0x1.2e0fbf964befap-7', '0x1.797c5ef62f9cap-1', '0x1.a74a3461eccfdp-1'),
    ((0.737277, 0.887011), 'delisle-equidistant', 'grid'):
        ('0x0.0p+0', '-0x1.2e0fbf964bf3bp-7', '0x1.797c5ef62f9cap-1', '0x1.a74a34454bd98p-1'),
    ((0.737277, 0.887011), 'orthogonal', 'exact'):
        ('0x1.fffffffffffffp-53', '-0x1.1c136c4384192p-7', '0x1.797c5ef62f9cap-1', '0x1.a7065efb5c491p-1'),
    ((0.737277, 0.887011), 'orthogonal', 'grid'):
        ('0x1.fffffffffffffp-53', '-0x1.1c136c4384192p-7', '0x1.797c5ef62f9cap-1', '0x1.a7065ec71a445p-1'),
    ((0.737277, 0.887011), 'teichmuller', 'exact'):
        ('0x1.7bdb9c0a163e3p-9', '-0x1.1aab6ce0f91e3p-7', '0x1.797c5ef62f9cap-1', '0x1.a49f811541acdp-1'),
    ((0.737277, 0.887011), 'teichmuller', 'grid'):
        ('0x1.7bdb9c0a163e3p-9', '-0x1.1aab6ce0f9162p-7', '0x1.797c5ef62f9cap-1', '0x1.a49f8101378e6p-1'),
    ((0.737277, 0.887011), 'lambert', 'exact'):
        ('0x1.fffffffffffffp-53', '-0x1.1aab6ce0f9162p-7', '0x1.c6264e48626f6p-1', '0x1.a49f811541acdp-1'),
    ((0.737277, 0.887011), 'lambert', 'grid'):
        ('0x1.fffffffffffffp-53', '-0x1.1aab6ce0f9162p-7', '0x1.c6264e48626f6p-1', '0x1.a49f8101378e6p-1'),
    ((-0.379059, 0.849525), 'central', 'exact'):
        ('0x1.14306f921e952p-2', '-0x1.14306f921e94cp-2', '-0x1.84280ae104923p-2', '0x1.3b73ea7e28981p-2'),
    ((-0.379059, 0.849525), 'central', 'grid'):
        ('0x1.14306f921e952p-2', '-0x1.14306f921e94cp-2', '-0x1.84280ae104923p-2', '0x1.3b73e9d1f2984p-2'),
    ((-0.379059, 0.849525), 'delisle', 'exact'):
        ('0x1.fffffffffffffp-53', '-0x1.16838ba3554e6p-2', '-0x1.84280ae104923p-2', '0x1.7ce150afc2350p-2'),
    ((-0.379059, 0.849525), 'delisle', 'grid'):
        ('0x1.fffffffffffffp-53', '-0x1.16838ba3554e6p-2', '-0x1.84280ae104923p-2', '0x1.7ce150c6576efp-2'),
    ((-0.379059, 0.849525), 'delisle-equidistant', 'exact'):
        ('0x0.0p+0', '-0x1.33902f17302fdp-2', '-0x1.84280ae104923p-2', '0x1.a9f7c1e85d47ep-2'),
    ((-0.379059, 0.849525), 'delisle-equidistant', 'grid'):
        ('0x0.0p+0', '-0x1.33902f17302ffp-2', '-0x1.84280ae104923p-2', '0x1.a9f7c1402b040p-2'),
    ((-0.379059, 0.849525), 'orthogonal', 'exact'):
        ('0x1.fffffffffffffp-53', '-0x1.19897e8f73cb2p-2', '-0x1.84280ae104923p-2', '0x1.9d1d57789c40cp-2'),
    ((-0.379059, 0.849525), 'orthogonal', 'grid'):
        ('0x1.fffffffffffffp-53', '-0x1.19897e8f73cb2p-2', '-0x1.84280ae104923p-2', '0x1.9d1d573aa754ap-2'),
    ((-0.379059, 0.849525), 'teichmuller', 'exact'):
        ('0x1.929d586a50c52p-4', '-0x1.169cb6fa1d901p-2', '-0x1.84280ae104923p-2', '0x1.5c090354b790ep-2'),
    ((-0.379059, 0.849525), 'teichmuller', 'grid'):
        ('0x1.929d586a50c52p-4', '-0x1.169cb6fa1d8fep-2', '-0x1.84280ae104923p-2', '0x1.5c090277799e2p-2'),
    ((-0.379059, 0.849525), 'lambert', 'exact'):
        ('0x1.fffffffffffffp-53', '-0x1.169cb6fa1d901p-2', '-0x1.84280ae104923p-2', '0x1.5c090354b790ep-2'),
    ((-0.379059, 0.849525), 'lambert', 'grid'):
        ('0x1.fffffffffffffp-53', '-0x1.169cb6fa1d8fep-2', '-0x1.84280ae104923p-2', '0x1.5c0903c31f5d7p-2'),
    ((0.001816, 0.221413), 'central', 'exact'):
        ('0x1.928cc4c06fecep-8', '-0x1.928cc4c06ff88p-8', '0x1.dc0db2702a30bp-10', '0x1.cbfd628139f03p-4'),
    ((0.001816, 0.221413), 'central', 'grid'):
        ('0x1.928cc4c06fecep-8', '-0x1.928cc4c06ff88p-8', '0x1.dc0db2702a30bp-10', '0x1.cbfd6361add77p-4'),
    ((0.001816, 0.221413), 'delisle', 'exact'):
        ('0x0.0p+0', '-0x1.928e9362aba32p-8', '0x1.dc0db2702a30bp-10', '0x1.cde0fe3f16fccp-4'),
    ((0.001816, 0.221413), 'delisle', 'grid'):
        ('0x0.0p+0', '-0x1.928e9362ab9b2p-8', '0x1.dc0db2702a30bp-10', '0x1.cde0fcc143b62p-4'),
    ((0.001816, 0.221413), 'delisle-equidistant', 'exact'):
        ('0x0.0p+0', '-0x1.94403b36bd37dp-8', '0x1.dc0db2702a30bp-10', '0x1.ced6007b13c39p-4'),
    ((0.001816, 0.221413), 'delisle-equidistant', 'grid'):
        ('0x0.0p+0', '-0x1.94403b36bd2fcp-8', '0x1.dc0db2702a30bp-10', '0x1.ced5ff8e4405dp-4'),
    ((0.001816, 0.221413), 'orthogonal', 'exact'):
        ('0x0.0p+0', '-0x1.9290d61ccae59p-8', '0x1.cbfd628139f03p-4', '0x1.ced2ed31e2050p-4'),
    ((0.001816, 0.221413), 'orthogonal', 'grid'):
        ('0x0.0p+0', '-0x1.9290d61ccaedap-8', '0x1.c5742dcf4623cp-3', '0x1.ced2ebd31600dp-4'),
    ((0.001816, 0.221413), 'teichmuller', 'exact'):
        ('0x1.0cd14b12bbebap-9', '-0x1.928e93c4f49f4p-8', '0x1.dc0db2702a30bp-10', '0x1.ccef249cd3d46p-4'),
    ((0.001816, 0.221413), 'teichmuller', 'grid'):
        ('0x1.0cd14b12bbebap-9', '-0x1.928e93c4f4871p-8', '0x1.dc0db2702a30bp-10', '0x1.ccef1f42b92b3p-4'),
    ((0.001816, 0.221413), 'lambert', 'exact'):
        ('0x1.fffffffffffffp-53', '-0x1.928e93c4f4973p-8', '0x1.dc0db2702a30bp-10', '0x1.ccef249cd3d46p-4'),
    ((0.001816, 0.221413), 'lambert', 'grid'):
        ('0x1.fffffffffffffp-53', '-0x1.928e93c4f49f4p-8', '0x1.dc0db2702a30bp-10', '0x1.ccef2400ed0f7p-4'),
}


@pytest.mark.parametrize("rho1, rho2, bits", SCAN_BITS)
def test_the_scan_keeps_its_bits(rho1, rho2, bits):
    assert optimal_alpha_by_scan(rho1, rho2).hex() == bits


@pytest.mark.parametrize("band, kind, path", list(REPORT_BITS))
def test_profile_distortion_keeps_its_bits(band, kind, path):
    profile = make_profile(kind, ProjectionParams(*band))
    if path == "grid":
        profile = dataclasses.replace(profile, critical=None)
    report = profile_distortion(profile)
    got = tuple(v.hex() for v in (report.sup_log, report.inf_log, report.arg_sup, report.arg_inf))
    assert got == REPORT_BITS[band, kind, path]
    assert report.delta == report.sup_log - report.inf_log


@pytest.mark.parametrize(
    "h_m, h_p",
    [
        (0.0, 1.0),
        (1.0, -0.0),
        (-2.0, 1.0),
        (np.array([1.0, 0.0, 2.0]), np.array([1.0, 1.0, 1.0])),
        (np.array([1.0, 2.0]), np.array([[1.0, 3.0], [1.0, -1e-300]])),
        (1.0, np.array([1.0, -5e-324])),
        (np.array([-math.inf]), 1.0),
    ],
)
def test_a_zero_or_negative_stretch_raises(h_m, h_p):
    with pytest.raises(NonPositiveStretch, match="^stretches must be positive$"):
        _require_positive(h_m, h_p)


@pytest.mark.parametrize(
    "h_m, h_p",
    [
        (1.0, 2.0),
        (math.nan, 1.0),
        (np.array([1.0, math.nan]), np.array([math.nan])),
        (0.5, np.array([1.0, 2.0, 5e-324])),
        (np.array([1.0, 2.0, 3.0]), np.array([[1.0], [2.0]])),
        (np.array([math.inf]), np.empty(0)),
    ],
)
def test_positive_or_nan_stretches_pass(h_m, h_p):
    assert _require_positive(h_m, h_p) is None
