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
        "93e33e2f4e00cbabe6108fa01802f8598e70d5e228fc8365f8bb78bf5e4c6262",
    ),
    "wide": (
        "1a810a1bcbe084733c80aa97cf7e2ac5952d129681770459299e442e37914819",
        "8020b6d51290a2904383c5284984cc61c9b3b697b2f8073cef18a617d12acec4",
    ),
    "equator": (
        "dfb4559571076df954a60f1a416c8ff39591fb7b14e298813ed63e849aff09bc",
        "9be6aa7ffb1ea1c0ddc1661b175d560460c30da826c420d9441c91344a856bb9",
    ),
    "polar": (
        "912183029e021ffe6015414f7f1ba1997098f0ebcb6b305de24fb086b56ebf89",
        "6c18efd2a9186738d620771a97c05770bc37c4b520e05fb859247c1d1940fe50",
    ),
    "narrow": (
        "c6e60dbd96ac7997de2a59df467e2f2f6be520a56866a36f0ac58dafb833e1bb",
        "9404964ec042656597f3c7511a107276bc367bb3457dd7b18e9db3872854cdc6",
    ),
    "near-pole": (
        "c6e60dbd96ac7997de2a59df467e2f2f6be520a56866a36f0ac58dafb833e1bb",
        "c7252343897f2371fdb801fee9216158b39a608e2e02ea3a9d538c541b777fc5",
    ),
    "undefined-row": (
        "fd070a45cd508a645ba5806d57449d96c075571c050b012e54713dab9cd2fb9e",
        "6be0faec393342313bdcc06ff79c1ea678c956dc16477e27f121737058a9db19",
    ),
}

# command (None: the top level) -> digest of its -h stdout
HELP_DIGESTS = {
    None: "0fbf938ca45948b522698ae507cb854084b98360059203ff4611fc04da58524c",
    "optimize": "cd1bf53d9eaa6f8c9785b2f5a148e7e3f84313235cd67a24232b588f28f97b58",
    "table": "c1f513fe90df325fd2b15607fc0c660825a2fc5e002509e800e2e35eac1235c7",
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
