"""A subcommand's parser builds no help formatter on a valid call, and
parses, helps and fails exactly as a parser built the plain way would.

``build_parser`` puts a subcommand's options in an argument group, where
argparse skips its per-argument metavar check and the help formatter (and
terminal-size read) that check builds.  The reference parser here is the
plain one: ``ArgumentParser`` with its own -h and every option added to the
parser itself, from the same option tables.
"""

import argparse
import math

import pytest

from conicmaps import cli
from conicmaps.cli import SUBCOMMANDS, build_parser, main

COMMANDS = tuple(SUBCOMMANDS)
WIDTHS = ("40", "80", "200")

# Valid and invalid argvs alike: each must end the same way on both parsers.
ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["--bogus"],
    ["--rho1", "x"],
    ["--rho1"],
    ["--rho1=0.5", "--rho2=0.6"],
    ["--lat1", "50", "--lat2", "60", "--degrees"],
    ["--samples", "3", "--csv", "out.csv"],
    ["--samples", "x"],
    ["--scan", "--rho"],
    ["--kind", "central", "--cut", "10", "--out", "m.svg", "coast.geojson"],
    ["--kind", "nope"],
    ["a.geojson", "b.geojson"],
    ["--alpha"],
    ["--rho1", "-1e-17"],
    ["--rho1=-1e-17"],
]


def reference_parser(command):
    parser = argparse.ArgumentParser(prog=f"conicmaps {command}")
    for name, keywords in cli._BAND + SUBCOMMANDS[command][1]:
        parser.add_argument(name, **keywords)
    return parser


def outcome(parser, argv, capsys):
    """(namespace or exit code, stdout, stderr) of parsing ``argv``."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out, err = capsys.readouterr()
    return result, out, err


@pytest.fixture
def formatters(monkeypatch):
    """A list that gets one entry per HelpFormatter constructed."""
    built = []
    init = argparse.HelpFormatter.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.HelpFormatter, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "argv",
    [["optimize"], ["table"], ["curves", "--samples", "3"], ["reproduce"]],
    ids=" ".join,
)
def test_a_valid_call_builds_no_help_formatter(argv, formatters, capsys):
    assert main(argv) == 0
    capsys.readouterr()
    assert formatters == []


def test_project_builds_at_most_one_help_formatter_for_its_positional(formatters, capsys):
    assert main(["project"]) == 0
    assert capsys.readouterr().out.endswith("</svg>\n")
    assert len(formatters) <= 1


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("extra", [["-h"], ["--bogus"]], ids=" ".join)
def test_help_and_usage_errors_still_build_a_formatter(command, extra, formatters, capsys):
    with pytest.raises(SystemExit):
        main([command, *extra])
    assert capsys.readouterr() != ("", "")
    assert formatters


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("command", COMMANDS)
def test_parser_matches_the_plainly_built_reference(command, width, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", width)
    for argv in ARGVS:
        expected = outcome(reference_parser(command), argv, capsys)
        assert outcome(build_parser(command), argv, capsys) == expected, argv


def test_optimize_carries_rounded_minutes_into_the_degree(capsys):
    assert main(["optimize", "--rho1=0.5", "--rho2=0.614788"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "alpha0 = 0.5933979691 rad = 34\N{DEGREE SIGN}00.0\N{PRIME}"


@pytest.mark.parametrize(
    "degrees, text",
    [
        (34.0, "34\N{DEGREE SIGN}00.0\N{PRIME}"),
        (33 + 59.96 / 60, "34\N{DEGREE SIGN}00.0\N{PRIME}"),
        (33 + 59.94 / 60, "33\N{DEGREE SIGN}59.9\N{PRIME}"),
        (55 + 14.3 / 60, "55\N{DEGREE SIGN}14.3\N{PRIME}"),
        (0.2 / 60, "0\N{DEGREE SIGN}00.2\N{PRIME}"),
    ],
)
def test_degree_minutes(degrees, text):
    assert cli._degree_minutes(math.radians(degrees)) == text


def test_wide_table_cells_stay_apart(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert main(["table", "--rho1", "-0.999999", "--rho2", "0.9999999", "--csv", str(path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["kind", "distortion", "sup_stretch", "inf_stretch"]
    csv_rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    defined = [row.split() for row in rows if not row.endswith("undefined")]
    assert len(defined) == len(csv_rows) == 5
    assert max(len(cell) for row in defined for cell in row[1:]) >= 14
    for cells, csv_cells in zip(defined, csv_rows):
        assert len(cells) == 4
        for text, value in zip(cells[1:], csv_cells[1:]):
            assert float(text) == round(float(value), 10)
