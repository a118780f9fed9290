"""The array decimal writer prints every value exactly as `%` does.

`decimal_chunks` formats '%.17g' (the CSV body) and '%.8f' (the SVG paths)
from exact integer arithmetic on the value scaled by a power of ten.  Each
test compares its text, byte for byte, with per-value `%` formatting: on
Hypothesis floats, on fixed adversarial sets (rounding ties, neighbours of
powers of ten, the edges of each fast domain, values that take the `%`
fallback), and through `write_csv` and `render_svg` against the per-value
templates they used before.
"""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conicmaps import CurveTable, SvgStyle, render_svg, write_csv
from conicmaps.decimals import _CHUNK_VALUES, decimal_chunks

SPECS = ("%.17g", "%.8f")
F8_EDGE = 2.0**52 / 1e8


def reference(values, spec, seps, ends):
    """Per-value `%` formatting with the same separators."""
    values = np.asarray(values, dtype=float)
    ends = np.broadcast_to(ends, values.shape)
    return "".join(
        spec % v + seps[i] for v, i in zip(values.ravel().tolist(), ends.ravel().tolist())
    )


def assert_same_text(values, spec):
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    ends = np.zeros(1, np.intp)
    got = "".join(decimal_chunks(values, spec, ("\n",), ends)).split("\n")
    want = reference(values, spec, ("\n",), ends).split("\n")
    bad = [(v, g, w) for v, g, w in zip(values.ravel().tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} values differ, e.g. {bad[:3]}"
    assert got == want


def neighbours(points, steps):
    """``points`` and the ``steps`` doubles on each side of each."""
    out = [np.asarray(points, dtype=float)]
    down, up = out[0], out[0]
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate((values, -values))


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_hypothesis_floats(spec, values):
    assert_same_text(values, spec)


@pytest.mark.parametrize("spec", SPECS)
@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-5, max_value=1e17) | st.floats(min_value=1e-9, max_value=1e8),
        min_size=1,
        max_size=40,
    ),
    st.booleans(),
)
def test_hypothesis_floats_near_the_fast_domains(spec, values, negate):
    assert_same_text([-v for v in values] if negate else values, spec)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("e", range(-10, 61))
def test_rounding_ties(spec, e):
    # k * 2**-e for odd k: the values whose decimal expansions end in 5
    # right where one format or the other rounds, for some k.
    k = np.arange(1, 2 * 4096, 2, dtype=float)
    k = np.concatenate((k, 2.0**53 - k, np.arange(2**20 + 1, 2**20 + 2 * 2048, 2)))
    assert_same_text(signed(np.ldexp(k, -e)), spec)


@pytest.mark.parametrize("spec", SPECS)
def test_neighbours_of_powers_of_ten(spec):
    # log10 is one off next to a power of ten, and the 17th digit carries
    # into the next power just below one.
    powers = [10.0**k for k in range(-6, 18)]
    assert_same_text(signed(neighbours(powers, 64)), spec)


@pytest.mark.parametrize("spec", SPECS)
def test_edges_of_the_fast_domains_and_the_fallback(spec):
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    edges = neighbours([1e-4, 1e16, F8_EDGE, 2.0**52, 2.0**53, 1e-8, 5e-9], 8)
    # the first sin_alpha of an `optimize --scan` of 12,001 samples
    exponent_notation = [8.3e-5, 1 / 12002, 1e-5, 1e22, 1.5e300]
    assert_same_text(signed(np.concatenate((special, edges, exponent_notation))), spec)


@pytest.mark.parametrize("spec", SPECS)
def test_integer_valued_floats(spec):
    # table --csv's kind_index column, and round coordinates
    values = np.concatenate((np.arange(0, 2000), 10.0 ** np.arange(0, 16), 2.0 ** np.arange(60)))
    assert_same_text(signed(values), spec)


@pytest.mark.parametrize("spec", SPECS)
def test_random_bit_patterns(spec):
    bits = np.random.default_rng(10).integers(0, 2**64, 20000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_same_text(values[np.isfinite(values)], spec)


@pytest.mark.parametrize("spec", SPECS)
def test_log_uniform_values(spec):
    rng = np.random.default_rng(11)
    low, high = (-6, 18) if spec == "%.17g" else (-11, 9)
    values = 10.0 ** rng.uniform(low, high, 20000) * rng.choice((-1.0, 1.0), 20000)
    assert_same_text(values, spec)


def old_csv(table):
    """write_csv's text as one %-template of every value."""
    row_format = ",".join(["%.17g"] * len(table.columns)) + "\n"
    body = (row_format * len(table.values)) % tuple(table.values.ravel().tolist())
    return ",".join(table.columns) + "\n" + body


def csv_text(table):
    stream = io.StringIO()
    write_csv(table, stream)
    return stream.getvalue()


def table_values(rows, columns, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(-7, 19, (rows, columns))
    values.ravel()[::97] = 0.0
    values.ravel()[1::89] = -0.0
    return values


@pytest.mark.parametrize("columns", [1, 2, 7])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_csv_across_a_chunk_edge(columns, offset):
    rows = _CHUNK_VALUES // columns + offset
    table = CurveTable([f"c{j}" for j in range(columns)], table_values(rows, columns, rows))
    assert csv_text(table) == old_csv(table)


@pytest.mark.parametrize(
    "columns, rows",
    [((), []), ((), [(), ()]), (("a",), []), (("a",), [(1.0,)]), (("a", "b"), [(0.0, -0.0)])],
)
def test_csv_of_small_tables(columns, rows):
    table = CurveTable(columns, rows)
    assert csv_text(table) == old_csv(table)


def test_csv_of_seven_columns_of_every_kind_of_value():
    values = np.concatenate(
        (
            signed(neighbours([1e-4, 1e16, 1.0, 0.1], 3)),
            [0.0, -0.0, 5e-324, 8.3e-5, 1e300, 2.0, 3.0],
        )
    )
    values = np.resize(values, (len(values) // 7 + 1) * 7).reshape(-1, 7)
    table = CurveTable([f"c{j}" for j in range(7)], values)
    assert csv_text(table) == old_csv(table)


def old_svg(layer_groups):
    """render_svg's document with one %-template a path."""
    groups = [
        (style, [np.asarray(path, dtype=float).reshape(-1, 2) for path in paths])
        for style, paths in layer_groups
    ]
    pts = np.concatenate([path for _, paths in groups for path in paths] or [np.empty((0, 2))])
    if len(pts):
        min_x, min_y = pts.min(axis=0).tolist()
        max_x, max_y = pts.max(axis=0).tolist()
    else:
        min_x = min_y = 0.0
        max_x = max_y = 1.0
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    pad = 0.02 * span
    box = (min_x - pad, min_y - pad, max_x - min_x + 2 * pad, max_y - min_y + 2 * pad)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="%.8f %.8f %.8f %.8f">' % box,
    ]
    for style, paths in groups:
        out.append(
            f'<g fill="none" stroke="{style.stroke}" '
            f'stroke-width="{format(style.stroke_width, ".8g")}">'
        )
        out.extend(
            ('<path d="M ' + " L ".join(["%.8f %.8f"] * len(path)) + '"/>')
            % tuple(path.ravel().tolist())
            for path in paths
        )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def random_paths(rng, count, max_points):
    return [
        rng.standard_normal((rng.integers(1, max_points + 1), 2))
        * 10.0 ** rng.integers(-10, 8, (1, 2))
        for _ in range(count)
    ]


def product_ties():
    """The 5,003 values v within 40 doubles of (k + 1/2) / 1e8 whose double
    product v * 1e8 is exactly k + 1/2 while the exact product is not, for
    3,000 seeded k below 2**40 and k = 0..1999: only the exact remainder of
    the product rounds them as '%.8f' does, and a plain rint(v * 1e8)
    rounds about half of them the wrong way."""
    seeded = np.random.default_rng(5).integers(0, 2**40, 3000)
    halves = np.concatenate((seeded, np.arange(2000))) + 0.5
    values = neighbours(halves / 1e8, 40)
    values = values[values * 1e8 == np.tile(halves, 81)]
    inexact = [Fraction(v) * 10**8 != Fraction(v * 1e8) for v in values.tolist()]
    return values[inexact]


SVG_CASES = {
    "one-point paths": lambda rng: [(SvgStyle(), [[(0.5, -0.5)], [(1e-9, 2.0)]])],
    "negative zeros": lambda rng: [(SvgStyle(), [[(-0.0, 0.0), (0.0, -0.0), (-1e-12, 1e-12)]])],
    "several groups": lambda rng: [
        (SvgStyle(stroke="#999999", stroke_width=0.0015), random_paths(rng, 30, 400)),
        (SvgStyle(stroke="red"), random_paths(rng, 5, 3)),
        (SvgStyle(), random_paths(rng, 2, 5000)),
    ],
    "an empty group": lambda rng: [
        (SvgStyle(), random_paths(rng, 3, 4)),
        (SvgStyle(stroke="red"), []),
        (SvgStyle(), random_paths(rng, 1, 2)),
    ],
    "only empty groups": lambda rng: [(SvgStyle(), []), (SvgStyle(), [])],
    "empty paths": lambda rng: [
        (SvgStyle(), [np.empty((0, 2)), [(1.0, 2.0)], [], [(3.0, 4.0), (5.0, 6.0)], []])
    ],
    "fallback coordinates": lambda rng: [
        (SvgStyle(), [[(F8_EDGE, -F8_EDGE), (1e300, np.nextafter(F8_EDGE, 0.0))]]),
        (SvgStyle(), [[(0.5e-8, 1.5e-8), (2.5e-8, -0.5e-8)], [(5e-324, -5e-324)]]),
    ],
    "a chunk of points and one more": lambda rng: [
        (SvgStyle(), [rng.uniform(-2.0, 2.0, (_CHUNK_VALUES // 2 + 1, 2))])
    ],
    "ties of the double product only": lambda rng: [
        (SvgStyle(), [signed(product_ties()).reshape(-1, 2)])
    ],
}


@pytest.mark.parametrize("case", sorted(SVG_CASES))
def test_svg_equals_the_per_path_templates(case):
    groups = SVG_CASES[case](np.random.default_rng(len(case)))
    assert render_svg(groups) == old_svg(groups)


def chunks_of_differing_widths():
    """Whole chunks of `_CHUNK_VALUES` values whose widest integer parts in
    '%.8f' differ from chunk to chunk, each with -0.0 and fallback values.

    In some the widest value reaches its width only by rounding up across a
    power of ten, so the width must come from the rounded value.
    """
    rng = np.random.default_rng(17)
    fallback = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
    extremes = [
        [0.5e-8, 1.5e-8, 0.99999999],  # only |v| < 1, also as text
        neighbours([9.999999995], 3),  # 9.99999999 and 10.00000000
        [12345.678, 0.25],
        neighbours([99.999999995], 3),  # 99.99999999 and 100.00000000
        [0.125],
        neighbours([F8_EDGE], 8),  # eight integer digits, the rest falls back
        [3.0],
    ]
    chunks = []
    for values in extremes:
        body = rng.uniform(-0.999, 0.999, _CHUNK_VALUES) * np.max(values)
        body[: 2 * len(values) + len(fallback)] = np.concatenate((signed(values), fallback))
        chunks.append(rng.permutation(body))
    return np.concatenate(chunks)


def test_f8_chunks_of_differing_widths():
    values = chunks_of_differing_widths()
    text = reference(values, "%.8f", ("\n",), 0).split("\n")
    for rounded in ("10.00000000", "100.00000000", "-45035996.27370496"):
        assert rounded in text
    assert_same_text(values, "%.8f")
    groups = [
        (SvgStyle(), [values[: 2 * _CHUNK_VALUES].reshape(-1, 2)]),
        (SvgStyle(stroke="red"), [values[2 * _CHUNK_VALUES :].reshape(-1, 2)]),
    ]
    assert render_svg(groups) == old_svg(groups)


def test_separators_follow_their_ends():
    values = np.array([[1.0, 2.0, 3.0], [-0.5, 0.0, 8.3e-5]])
    ends = np.array([[0, 1, 2], [2, 1, 0]])
    seps = ("|", " and ", "\n")
    for spec in SPECS:
        assert "".join(decimal_chunks(values, spec, seps, ends)) == reference(
            values, spec, seps, ends
        )
