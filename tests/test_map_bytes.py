"""`conicmaps project` writes the same SVG bytes as it always has.

Each digest is the SHA-256 of the stdout of `conicmaps project --kind=K
--cut=C tests/data/map_fixture.geojson` on the canonical band.  The fixture
holds lines that cross the cut meridian, a vertex at exactly +-180 next to
its mirror (also as a line's first segment), a segment that jumps over the
whole band, a single in-band vertex between two outside ones, a line that
lies wholly outside the band (dropped) and a Point (ignored).
"""

import hashlib
from pathlib import Path

import pytest

from conicmaps.cli import main

FIXTURE = Path(__file__).parent / "data" / "map_fixture.geojson"

DIGESTS = {
    ("central", "180"):
        "cdf3b3bde5e48f0273e167861d2e0c43b99bf253602ddcc968e5a30a74d5f1bf",
    ("central", "-179"):
        "5236fbf7175d2ef3d71dfa816557083a9c88388df3d2cb531f22224580107f27",
    ("central", "37.3"):
        "29f4d9c527c0608b4b451e1ca35032157ed5a14bbcd618f6c122db7a8399ce42",
    ("central", "0"):
        "2a846ce45366d1789aba2110c4243f778d436dedf1b5096ac65afa6a9c025948",
    ("delisle", "180"):
        "a7a5ebe1194d368ee0f3a95b55e30a87d152c738f9e15981b5cdc00d894dece7",
    ("delisle", "-179"):
        "c67c8c2a81ceef7323924a0f870ed2dca323ca06872cf0b28d2a431bd033e379",
    ("delisle", "37.3"):
        "98685dfdf0cebaef9d1db42310f96fb06b0d7e4697715a78753437d0442729b5",
    ("delisle", "0"):
        "e499be11259ebd60956f8e664f4c8f4453c782585e29824c5fe5fd3b67177a1b",
    ("delisle-equidistant", "180"):
        "131a62575d02462ef33a1e6ba33f3f51bbc0f2685c8dc882adb329308296daec",
    ("delisle-equidistant", "-179"):
        "acb2c81a54682ed6fccff5abdf4408984470ee5c8d68ca86d2a1a29666634826",
    ("delisle-equidistant", "37.3"):
        "30aac530fee15116d01fefedbfe845e8ad9a3377387ea83378b40c5c174984ea",
    ("delisle-equidistant", "0"):
        "30a10640622e91f5920ce3f998bed8a9adf5d75b660d5a9124eb17e3b222bfbd",
    ("orthogonal", "180"):
        "580c93def2ade05cada6f17fae529c8d3f97e17f07316c0425178e03df5a60bf",
    ("orthogonal", "-179"):
        "024156bfb0ee6282575ed2627dd57b9e2cee26f2ca873ea15693dda2872e6d28",
    ("orthogonal", "37.3"):
        "6d9bf6c5de27ecc66ce3ec201e48593ac14e67414b616de948b5449813ded89c",
    ("orthogonal", "0"):
        "29336bba517583ee09f0e6e2570d2a01d6841e2329c0a127e1f839c26f58c8a5",
    ("teichmuller", "180"):
        "48f162787c838199fc8581f2509ce9ab6c69fffccfb1c0be161376ab1bbfeed4",
    ("teichmuller", "-179"):
        "f0e0ad6f921db4a9defe698998d78923e4bfad31d220ff8a37c0f70be3bcefcd",
    ("teichmuller", "37.3"):
        "82d60cc6bd29f2979ce55846245773d4ef87932b248b7484334990cf988828af",
    ("teichmuller", "0"):
        "f3f496bb403f9df707a34d9660ff7085f250ba356a0d719496e2e051b6b73f45",
    ("lambert", "180"):
        "67b79ee7e4b0e15b1ab297719309c9923256c9fbbb92d910a071efc1a7974035",
    ("lambert", "-179"):
        "798866f2fdcdba7da0479ef313f4ad871cc8036108e13aac428f8bb6e0d2d38b",
    ("lambert", "37.3"):
        "402269103c722ab828aad093e59bc87f3be8482e632d9f92cda42aaaa92fbf8b",
    ("lambert", "0"):
        "ce0e8363b30bda7f9a4d3bc5aa1ae30757a12796426efec0d346bf156845eadd",
}


@pytest.mark.parametrize("kind, cut", sorted(DIGESTS))
def test_project_stdout_digest(kind, cut, capsys):
    assert main(["project", f"--kind={kind}", f"--cut={cut}", str(FIXTURE)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == DIGESTS[kind, cut]
