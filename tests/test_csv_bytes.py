"""`conicmaps optimize --scan` and `conicmaps curves` print the same CSV bytes
as they always have.

Each digest is the SHA-256 of the UTF-8 stdout of `conicmaps optimize --scan
--samples=12001` or `conicmaps curves --samples=1201` on one of four bands:
the canonical one, a wide band reaching below the equator, a band around the
equator and a band near the pole.  The scan evaluates the array kernel of
`annulus_distortion` at each sin(alpha) it prints; the curves take the six
profiles' stretches.
"""

import hashlib

import pytest

from conicmaps.cli import main

BANDS = {
    "canonical": (0.737277, 0.887011),
    "wide": (-0.104588, 0.938362),
    "equator": (-0.047513, 0.1804),
    "polar": (0.959362, 0.98623),
}

SCAN_ARGV = ["optimize", "--scan", "--samples=12001"]
CURVES_ARGV = ["curves", "--samples=1201"]

DIGESTS = {
    ("optimize", "canonical"):
        "574c15df686846f66e10813e5696946f1e88073eebaae572a4af3d8811aa8508",
    ("optimize", "wide"):
        "dfc2b81dc102c6c4115cbd492db0ad79e4e039e285959c9a883136683dec32b9",
    ("optimize", "equator"):
        "8890eaa911eaaaa45866fb0420e34fa7053b410338e1522ba22f483d0bf7f233",
    ("optimize", "polar"):
        "f471b56ee642f986f5a7a99b528b41f2f280b1e494b0d0bf345d3964766aa496",
    ("curves", "canonical"):
        "cae252ee8b2360dc575cf582d7605ff562b25b2564a905bf1ab0598d20f118cb",
    ("curves", "wide"):
        "2248cb0fd63f8f4c7b8a6fda94fe6d27283ea7b4784a36d779ce0b4a87e68db8",
    ("curves", "equator"):
        "4c0db8d11fe44b405f87c6268e0092c8065d9f12cb5fbdc3c2cc666189041f56",
    ("curves", "polar"):
        "29f409331ca4303592f4cdc94e441df99b20ac078cafb1f8f2e8e77a2b5cb6c3",
}


@pytest.mark.parametrize("command, band", sorted(DIGESTS))
def test_csv_stdout_digest(command, band, capsys):
    argv = SCAN_ARGV if command == "optimize" else CURVES_ARGV
    rho1, rho2 = BANDS[band]
    assert main(argv + [f"--rho1={rho1!r}", f"--rho2={rho2!r}"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[command, band]
