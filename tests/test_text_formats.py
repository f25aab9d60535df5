"""The matrix and graph text readers against the line-by-line reference
parsers, and `format_matrix` against the per-entry reference formatter."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import text_reference as reference
from dee.gateset import build_integer_observable
from dee.hardness import build_observable
from dee.sparse import MAX_DIM, format_matrix, from_coordinate_list, parse_graph, parse_matrix

from test_properties import SETTINGS, clocks, coordinate_lists, elements

# spellings both readers take; hard-to-round decimals among them
HARD_FLOATS = [
    "0.1000000000000000055511151231257827", "4.9e-324", "2.4703282292062328e-324",
    "2.2250738585072011e-308", "2.2250738585072012e-308", "1.7976931348623157e308",
    "9007199254740993", "0.30000000000000004", "1e0", "1.00", ".5", "5.", "+2", "-0.0", "0",
    "1E5", "inf", "-Infinity", "nan", "1e400",
]
float_tokens = st.one_of(
    st.sampled_from(HARD_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from([repr(x), f"{x:.17e}", f"{x:.30e}", f"{x:.17g}"])
    ),
    st.from_regex(r"-?[0-9]{1,20}\.[0-9]{1,40}(e-?[0-9]{1,3})?", fullmatch=True),
)
blanks = st.sampled_from([" ", "\t", "  ", " \xa0"])
comments = st.sampled_from(["", "  # note", "\t#x", "#é", " # 0 1 2"])
filler = st.sampled_from(["", "   ", "# comment", "#", "\t# é"])


def int_token(draw, value):
    return draw(st.sampled_from(["", "+", "0"])) + str(value) if value >= 0 else str(value)


def render(draw, lines):
    """The lines with filler lines and comments drawn in between, ended by \\n or \\r\\n."""
    out = []
    for line in lines:
        out.extend(draw(st.lists(filler, max_size=2)))
        out.append(line + draw(comments))
    ends = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    if ends == "mixed":
        return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in out)
    return ends.join(out) + draw(st.sampled_from([ends, ""]))


# lines both readers refuse, each for its own reason
BAD_ENTRIES = ["0 1", "0 1 2 3", "x 1 1.0", "0 1.5 2", "0 1 1,5", "0x1 1 2", "0 1 1j", "1 0 1.0", "0 1 'nan'"]


@st.composite
def matrix_texts(draw):
    """Matrix text around the shared grammar: mostly well formed, at times
    with a bad line, a lower-triangle entry, a repeated or out-of-range
    pair, a non-finite value or a miscounted header."""
    n = draw(st.integers(1, 6))
    index = st.integers(-1, n) if draw(st.booleans()) else st.integers(0, n - 1)
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        i, j = sorted((draw(index), draw(index)))
        sep = draw(blanks)
        lines.append(sep.join([int_token(draw, i), int_token(draw, j), draw(float_tokens)]))
    if lines and draw(st.integers(0, 3)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    count = len(lines) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    header = draw(st.sampled_from([f"{n} {count}"] * 6 + [f"{n}", f"{n} {count} 1", f"{n}.0 {count}", "x 1"]))
    return render(draw, [header] + lines)


def outcome(parse, text):
    try:
        return parse(text), None
    except ValueError as exc:
        return None, str(exc)


@SETTINGS
@given(matrix_texts())
@example("2 1\r\n0 1 1.0\r\n")
@example("# lead\n\n2 0\n# tail\n")
@example("3 2\n1 0 1.0\n0 x 2\n")
def test_matrix_reader_matches_the_line_parser(text):
    got, error = outcome(parse_matrix, text)
    want, want_error = outcome(reference.parse_matrix, text)
    assert error == want_error
    if want is not None:
        assert format_matrix(got) == reference.format_matrix(want)
        assert np.array_equal(got.cols, want.cols)
        assert got.vals.tobytes() == want.vals.tobytes()
        assert np.float64(got.norm_bound).tobytes() == np.float64(want.norm_bound).tobytes()


@st.composite
def graph_texts(draw):
    n = draw(st.integers(1, 10**6))
    vertex = st.integers(-5, 2**63 - 1)
    lines = [draw(blanks).join(int_token(draw, draw(vertex)) for _ in range(2))
             for _ in range(draw(st.integers(0, 6)))]
    if lines and draw(st.integers(0, 3)) == 0:
        bad = st.sampled_from(["0", "0 1 2", "0 x", "1.0 2", "0 1e3"])
        lines[draw(st.integers(0, len(lines) - 1))] = draw(bad)
    count = len(lines) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    header = draw(st.sampled_from([f"{n} {count}"] * 6 + [f"{n}", f"{n} {count} 1", "2.5 1"]))
    return render(draw, [header] + lines)


@SETTINGS
@given(graph_texts())
def test_graph_reader_matches_the_line_parser(text):
    assert outcome(parse_graph, text) == outcome(reference.parse_graph, text)


# what the line parser took and the reader refuses: underscores, non-ASCII
# digits, integers outside int64 and line breaks other than \n and \r\n
@st.composite
def refused_only_by_the_reader(draw, text_lines):
    """(text, number of the line that holds its one fault)."""
    lines = draw(text_lines)
    k = draw(st.integers(0, len(lines) - 1))
    fault = draw(st.sampled_from(["underscore", "digit", "int64", "break", "break-inside", "lone-cr"]))
    line = lines[k]
    if fault == "underscore":
        line = line.replace("1", "1_1", 1) if "1" in line else "1_0 " + line
    elif fault == "digit":
        digit = draw(st.sampled_from(["\u0660", "\uff10", "\u0966"]))  # Arabic-Indic, fullwidth, Devanagari 0
        line = line.replace("0", digit, 1) if "0" in line else "\u0661 " + line
    elif fault == "int64":
        line = str(draw(st.sampled_from([2**63, 10**20, -(2**63) - 1]))) + line[line.index(" "):]
    elif fault == "break":
        line += draw(st.sampled_from(list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))) + "0"
    elif fault == "break-inside":
        line = line.replace(" ", draw(st.sampled_from(["\x0c", "\x85", "\u2028", "\x0b"])), 1)
    else:
        line += "\r\r"
    lines[k] = line
    return "\n".join(lines) + "\n", k + 1


@st.composite
def matrix_lines(draw):
    n = draw(st.integers(1, 12))
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.floats(-9, 9)),
                            min_size=1, max_size=6, unique_by=lambda e: frozenset(e[:2])))
    return [f"{n} {len(entries)}"] + [f"{min(i, j)} {max(i, j)} {v!r}" for i, j, v in entries]


@st.composite
def graph_lines(draw):
    n = draw(st.integers(2, 12))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=6))
    return [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]


@SETTINGS
@given(refused_only_by_the_reader(matrix_lines()))
@example(("2 1\n0 1 1.0\x0c\n", 2))
@example(("2 1\r0 1 1.0\n", 1))
def test_matrix_reader_refuses_naming_the_line(case):
    text, lineno = case
    with pytest.raises(ValueError, match=f"^line {lineno}: "):
        parse_matrix(text)


@SETTINGS
@given(refused_only_by_the_reader(graph_lines()))
@example(("3 1\n0 100000000000000000000\n", 2))
def test_graph_reader_refuses_naming_the_line(case):
    text, lineno = case
    with pytest.raises(ValueError, match=f"^line {lineno}: "):
        parse_graph(text)


@SETTINGS
@given(float_tokens)
@example("0.1000000000000000055511151231257827")
@example("4.9e-324")
def test_values_parse_bit_equal_to_float(token):
    want = float(token)
    if not math.isfinite(want) or want == 0.0:  # refused, or dropped as a zero entry
        return
    got = parse_matrix(f"1 1\n0 0 {token}\n").vals[0, 0]
    assert got.tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("parse, text", [
    (parse_matrix, "2 0\n"), (parse_matrix, "2 0\n# nothing\n\n"), (parse_graph, "3 0\n"),
])
def test_empty_body_reads_without_a_warning(parse, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(parse, text)[1] is None


@pytest.mark.parametrize("parse, body", [(parse_matrix, "0 1 1.0"), (parse_graph, "0 1")])
def test_huge_header_refused_before_the_body_is_read(parse, body, monkeypatch):
    def no_body(*args, **kwargs):
        raise AssertionError("the body was read")

    monkeypatch.setattr(np, "loadtxt", no_body)
    with pytest.raises(ValueError, match=f"dimension {MAX_DIM + 1} exceeds the limit"):
        parse(f"{MAX_DIM + 1} 1\n{body}\n")


def spell_both(a, integer_values):
    return outcome(lambda m: format_matrix(m, integer_values), a), outcome(
        lambda m: reference.format_matrix(m, integer_values), a
    )


@SETTINGS
@given(coordinate_lists(faults=False), st.booleans())
def test_format_matches_the_per_entry_formatter(case, integers):
    n, entries = case
    if integers:
        entries = [(i, j, float(round(v))) for i, j, v in entries]
    a = from_coordinate_list(n, entries)
    for integer_values in (False, True):
        got, want = spell_both(a, integer_values)
        assert got == want


@SETTINGS
@given(clocks())
def test_format_matches_the_per_entry_formatter_on_clocks(clock):
    got, want = spell_both(build_observable(clock), False)
    assert got == want
    got, want = spell_both(build_observable(clock), True)  # H and ROT rows are not integers
    assert got == want


@SETTINGS
@given(st.lists(elements(), min_size=3, max_size=4))
def test_format_matches_the_per_entry_formatter_on_integer_clocks(cases):
    a = build_integer_observable([e for _, e in cases], max(n for n, _ in cases))
    for integer_values in (False, True):
        got, want = spell_both(a, integer_values)
        assert got == want
