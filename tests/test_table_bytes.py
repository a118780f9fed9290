"""`conicmaps table` and every help screen print the same bytes as they
always have.

Each table digest is the SHA-256 of the UTF-8 stdout of `conicmaps table`,
and of the file `table --csv` writes, on one band: the four bands of
`test_csv_bytes.py`, a band 1e-10 wide, a band 1e-9 wide next to the pole,
and a wide band on which the delisle-equidistant map is no map (its row
reads `undefined` and the CSV leaves it out).  Each help digest is the
SHA-256 of the stdout of `conicmaps -h` or `conicmaps <command> -h`,
formatted 80 columns wide.

The digests hold for the CPU, Python and numpy they were taken on; another
CPU, another Python (whose argparse may lay out help differently) or another
numpy may round a last digit or a line differently and fail them.
"""

import hashlib

import pytest

from conicmaps.cli import main

BANDS = {
    "canonical": (0.737277, 0.887011),
    "wide": (-0.104588, 0.938362),
    "equator": (-0.047513, 0.1804),
    "polar": (0.959362, 0.98623),
    "narrow": (0.1, 0.1000000001),
    "near-pole": (0.99999999, 0.999999991),
    "undefined-row": (-0.6, 0.998),
}

# band -> (stdout digest, CSV file digest)
TABLE_DIGESTS = {
    "canonical": (
        "f250e128d52ba0ff2704fefe2dd495b8321cd9387f7697f44cbaf2e009d20ba9",
        "3cee404ca368bbf6ec8b3e10e0edec2fa4760c1bdb850a884edea2e986edb5b4",
    ),
    "wide": (
        "1a810a1bcbe084733c80aa97cf7e2ac5952d129681770459299e442e37914819",
        "533adcc89198a88fc5af56bc5c0fde879e9ec5d00446712984107ea09f9928b6",
    ),
    "equator": (
        "dfb4559571076df954a60f1a416c8ff39591fb7b14e298813ed63e849aff09bc",
        "3899fc5ff08723317d1ca5fdc9d5197a35c14d1dc9b501176f4206b47f23794a",
    ),
    "polar": (
        "912183029e021ffe6015414f7f1ba1997098f0ebcb6b305de24fb086b56ebf89",
        "8263c0e9eb6f3ebf6d4a377ef35db4a3629c94cb5b2eec962ef9ef3bb4d71ee1",
    ),
    "narrow": (
        "c6e60dbd96ac7997de2a59df467e2f2f6be520a56866a36f0ac58dafb833e1bb",
        "8187bfe08aa6012325acdd6fa4b408b44fcd95c7382829a96e480a156606b905",
    ),
    "near-pole": (
        "225de708d6a5fa606f8ff66e37f4fa0d67911441f0441c05ea6b2b0cdf1ab868",
        "c0f27eb3e4d7c9caf6d8c50fb3b75fb3d08c86257350604b5444c37d64829e7a",
    ),
    "undefined-row": (
        "fd070a45cd508a645ba5806d57449d96c075571c050b012e54713dab9cd2fb9e",
        "a13ccd02ae0c3e0e7c84df059c9d63b62e004ce29067e7e4d7490799d27dba31",
    ),
}

# command (None: the top level) -> digest of its -h stdout
HELP_DIGESTS = {
    None: "0fbf938ca45948b522698ae507cb854084b98360059203ff4611fc04da58524c",
    "optimize": "cd1bf53d9eaa6f8c9785b2f5a148e7e3f84313235cd67a24232b588f28f97b58",
    "table": "726c81d8b8f91135bf52bb68f61c1187a08bdb51a4f1e562d98b53f57c1b2468",
    "curves": "f2148f578e328d32bc9807208726b1718e0629c3b0107ec5b19f2702ee2a533a",
    "project": "7e055761861f4723d98781f2da625951794ce98e499e865b323ee2a4e3697b0d",
    "reproduce": "85faaad7e5112c79eaa2246bf386e432888a85e7f3f242cb6c62f6f7b8489659",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("band", sorted(TABLE_DIGESTS))
def test_table_stdout_and_csv_digests(band, tmp_path, capsys):
    rho1, rho2 = BANDS[band]
    path = tmp_path / "table.csv"
    assert main(["table", f"--rho1={rho1!r}", f"--rho2={rho2!r}", "--csv", str(path)]) == 0
    out = capsys.readouterr().out
    assert (sha256(out.encode("utf-8")), sha256(path.read_bytes())) == TABLE_DIGESTS[band]


@pytest.mark.parametrize("command", list(HELP_DIGESTS), ids=str)
def test_help_digest(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["-h"] if command is None else [command, "-h"])
    assert exc.value.code == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == HELP_DIGESTS[command]
