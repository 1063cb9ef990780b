"""The array readers of epkit.io against the per-row readers of
ingest_reference.py, on random files, valid and malformed: each file gives
a bitwise-equal result (signed zeros included) or the same error."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ingest_reference as ref
from epkit.io import ingest_csv, read_plane_csv

SETTINGS = settings(max_examples=300, deadline=None)

EOLS = st.sampled_from(["\n", "\r\n", "\r"])
VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3),
                   st.floats(allow_nan=False, allow_infinity=False))
# spellings float reads that loadtxt does not, and malformed cells
ODD_CELLS = st.sampled_from([
    "1_0", "١٢", " 2.5 ", '"3.5"', '"-0.0"', "nan", "NaN", "inf",
    "-inf", "Infinity", "1e999", "+1.", ".5e-3", "\xa02.5\u2028", "x", "", " ",
    "0x10"])
BLANK_ROWS = st.sampled_from(["", "  ", "\t", ",,,,", " , "])


def bits(a: np.ndarray):
    return a.dtype.str, a.shape, a.tobytes()


def outcome(read, path):
    """The result of ``read(path)`` in bits, or the error it raised."""
    try:
        result = read(path)
    except Exception as exc:  # the two readers must fail alike
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):  # the (n, chi) rows of a plane CSV
        return [bits(column) for column in result]
    return (result.scan_name, bits(result.scan_values),
            [(name, bits(series)) for name, series in result.modes.items()])


@st.composite
def edited_rows(draw, rows, edits):
    """Apply up to three random ``edits`` (name -> function) to ``rows``;
    two files in five keep their rows as they are."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        if not rows:
            break
        name = draw(st.sampled_from(sorted(edits)))
        k = draw(st.integers(0, len(rows) - 1))
        edits[name](draw, rows, k)
    return rows


def _odd_cell(draw, rows, k):
    if isinstance(rows[k], list):
        rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(ODD_CELLS)


def _blank_row(draw, rows, k):
    rows.insert(k, draw(BLANK_ROWS))


def _ragged(draw, rows, k):
    if isinstance(rows[k], list):
        if draw(st.booleans()):
            rows[k].pop()
        else:
            rows[k].append(draw(st.sampled_from(["0.5", ""])))


def _text(draw, header, rows):
    eol = draw(EOLS)
    lines = [header, *(r if isinstance(r, str) else ",".join(r) for r in rows)]
    lines = [line.replace("<eol>", eol) for line in lines]
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def _scan_values(draw, n):
    start = draw(st.floats(-100, 100))
    sign = draw(st.sampled_from([1.0, -1.0]))
    steps = draw(st.lists(st.floats(1e-3, 10), min_size=n, max_size=n))
    return np.cumsum([start, *(sign * s for s in steps)])[1:].tolist()


def _equal_step(draw, rows, k):
    if k and isinstance(rows[k], list) and isinstance(rows[k - 1], list):
        rows[k][0] = rows[k - 1][0]


def _reversed_step(draw, rows, k):
    if k and isinstance(rows[k], list) and isinstance(rows[k - 1], list):
        rows[k][0], rows[k - 1][0] = rows[k - 1][0], rows[k][0]


def _header(draw, good, bad):
    """One of the ``good`` headers, or about one in five times a ``bad`` one."""
    is_bad = draw(st.sampled_from([False, False, False, False, True]))
    return draw(st.sampled_from(bad if is_bad else good))


TRAJECTORY_HEADERS = [
    "scan,re_1,im_1,re_2,im_2",
    " alpha , re_a ,im_a,re_b,im_b ",
    '"scan","re_1",im_1,re_2,"im_2"',
    '"sc<eol>an",re_1,im_1,re_2,im_2',  # quoted over two lines
    "scan,re_1,im_1,re_2,im_2,re_3,im_3",
]
BAD_TRAJECTORY_HEADERS = [
    "scan,re_1,im_1,re_2", "scan,re_1,im_2,re_2,im_1", "scan,x_1,im_1,re_2,im_2",
]


@st.composite
def trajectory_files(draw):
    if draw(st.integers(0, 19)) == 0:
        return ""
    header = _header(draw, TRAJECTORY_HEADERS, BAD_TRAJECTORY_HEADERS)
    # now and then every row is two cells wider or narrower than the header
    width = len(header.split(",")) + draw(st.sampled_from([0] * 8 + [2, -2]))
    scan = _scan_values(draw, draw(st.integers(0, 12)))
    rows = [[repr(t), *(repr(draw(VALUES)) for _ in range(width - 1))]
            for t in scan]
    rows = draw(edited_rows(rows, {
        "odd cell": _odd_cell, "blank row": _blank_row, "ragged": _ragged,
        "equal step": _equal_step, "reversed step": _reversed_step}))
    return _text(draw, header, rows)


PLANE_HEADERS = ["n,chi", " n , chi ", "n,chi,label", '"n",chi', 'n,"chi<eol>"']
BAD_PLANE_HEADERS = ["x,y", "n", "chi,n"]
PLANE_VALUES = st.one_of(VALUES, st.sampled_from([np.inf, -np.inf]))
# further columns, which the reader ignores
EXTRA_COLUMNS = st.sampled_from([
    [], [], ["7"], ["label", "7"], ["", "x"], ['"a<eol>1,2"'], ['"b,c"', "d"]])


def _short_row(draw, rows, k):
    if isinstance(rows[k], list):
        del rows[k][1:]


@st.composite
def plane_files(draw):
    if draw(st.integers(0, 19)) == 0:
        return ""
    header = _header(draw, PLANE_HEADERS, BAD_PLANE_HEADERS)
    extra, ragged = draw(EXTRA_COLUMNS), draw(st.booleans())
    rows = [[repr(draw(PLANE_VALUES)), repr(draw(PLANE_VALUES)),
             *(extra[:draw(st.integers(0, len(extra)))] if ragged else extra)]
            for _ in range(draw(st.integers(0, 12)))]
    rows = draw(edited_rows(rows, {
        "odd cell": _odd_cell, "blank row": _blank_row, "short": _short_row}))
    return _text(draw, header, rows)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "data.csv"


@given(text=trajectory_files())
# an infinite scan value in a short row; finite scan values whose steps
# overflow: monotonicity is compared, so neither warns
@example(text="scan,re_1,im_1,re_2,im_2,re_3,im_3\ninf,0.0,0.0,0.0,0.0\n"
              "inf,0.0,0.0,0.0,0.0")
@example(text="scan,re_1,im_1,re_2,im_2\n-1e308,1,0,2,0\n1e308,1,0,2,0\n"
              "1.5e308,1,0,2,0\n")
@SETTINGS
def test_ingest_csv_matches_per_row_reader(path, text):
    path.write_bytes(text.encode("utf-8"))
    assert outcome(ingest_csv, path) == outcome(ref.ingest_csv, path)


@given(text=plane_files())
@SETTINGS
def test_read_plane_csv_matches_per_row_reader(path, text):
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_plane_csv, path) == outcome(ref.read_plane_csv, path)


@pytest.mark.parametrize("read, reference, header", [
    (ingest_csv, ref.ingest_csv, "scan,re_1,im_1,re_2,im_2"),
    (read_plane_csv, ref.read_plane_csv, "n,chi")])
def test_non_utf8_byte_fails_alike(path, read, reference, header):
    # past the first read buffer, where the codec's reported offset depends
    # on how the file is read
    rows = "".join(f"{t},1,2,3,4\n" for t in range(3000))
    path.write_bytes(f"{header}\n{rows}".encode() + b"\xff,1,2,3,4\n")
    assert outcome(read, path) == outcome(reference, path)
