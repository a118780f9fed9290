"""`conicmaps optimize --scan` and `conicmaps curves` print the same CSV bytes
as they always have.

Each digest is the SHA-256 of the UTF-8 stdout of `conicmaps optimize --scan
--samples=12001` or `conicmaps curves --samples=1201` on one of four bands:
the canonical one, a wide band reaching below the equator, a band around the
equator and a band near the pole.  The scan takes its distortion column from
`annulus_distortions` and its sin(alpha) column through `math.asin`; the
curves take the six profiles' stretches.
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
        "dd3d123152ff6393eff53b1e96a6f37a6102c9521010cbed014cecaf1a23dd05",
    ("optimize", "wide"):
        "d8fad0390ac11de088ee517ba52c7ea5f37d271979d54894e3b11e03b27a6b78",
    ("optimize", "equator"):
        "73aba1e65c3bef156d161ddd85abeb9002b28b4dc88a4fcd01ff92bc9a5a03cb",
    ("optimize", "polar"):
        "488acc1acef85e9980495070e0aa9c1b24937a52e69ef970412cfa33e5e78074",
    ("curves", "canonical"):
        "e018b0aa3938cd243868901dc14618d167391196986cff79dca0ac99548d7bba",
    ("curves", "wide"):
        "c52968c607306332c19ad0bef1d408d2ba57fee85ce1c2376c7575aa50a2c660",
    ("curves", "equator"):
        "7743d18309da93e7e4e83e241dbfc293934c1b3ea3a9d2c172b4fcf0d6b5e04c",
    ("curves", "polar"):
        "4fdfb714ada65866c18e45fd7fe8fcc8a52eb51c98af91e14d95481fa016c554",
}


@pytest.mark.parametrize("command, band", sorted(DIGESTS))
def test_csv_stdout_digest(command, band, capsys):
    argv = SCAN_ARGV if command == "optimize" else CURVES_ARGV
    rho1, rho2 = BANDS[band]
    assert main(argv + [f"--rho1={rho1!r}", f"--rho2={rho2!r}"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[command, band]
