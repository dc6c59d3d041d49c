"""Round-trip and determinism checks for the on-disk profile format."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from table_oracle import read_table_by_line

from hardstars import StarParameters, build_star, storage
from hardstars.storage import (
    CSV_COLUMNS,
    read_profile_csv,
    read_table,
    write_profile,
    write_profile_csv,
    write_profile_json,
    write_table,
)


def _edit_cell(path, row, name, edit):
    """Replace one value of data row ``row`` (0-based) in a written table."""
    lines = path.read_text().splitlines()
    cells = lines[2 + row].split(",")
    j = CSV_COLUMNS.index(name)
    cells[j] = edit(cells[j])
    lines[2 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_csv_round_trip_is_exact(tmp_path):
    # the file holds the profile itself, and R, m, chi and the totals are
    # read off it as off the solve, so every field comes back bit for bit
    derived = ("R", "grid_n", "m", "chi", "M_total", "N_total")
    for R, solver in ((0.05, "picard"), (0.19, "shooting"), (0.2471, "shooting")):
        star = build_star(StarParameters(R=R, grid_n=4001), solver)
        back = read_profile_csv(write_profile_csv(star, tmp_path / "star.csv"))
        names = [f.name for f in dataclasses.fields(star) if f.name != "provenance"]
        assert names == list(CSV_COLUMNS)
        for name in (*names, *derived):
            a, b = getattr(star, name), getattr(back, name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (R, name)


def test_csv_is_byte_deterministic(star_r005, tmp_path):
    p1 = write_profile_csv(star_r005, tmp_path / "a.csv")
    p2 = write_profile_csv(star_r005, tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()
    first = p1.read_text().splitlines()[0]
    assert first.startswith("# ")
    meta = json.loads(first[2:])
    assert set(meta) == {"format", "hash", "version"}


def test_json_sidecar_contents(star_r005, tmp_path):
    path = write_profile_json(star_r005, tmp_path / "star.json")
    meta = json.loads(path.read_text())
    assert meta["R"] == star_r005.R
    assert meta["grid_n"] == star_r005.grid_n
    assert meta["provenance"]["solver"] == "picard"
    assert meta["M_total"] == star_r005.M_total


def test_write_profile_pair(star_r005, tmp_path):
    csv_path, json_path = write_profile(star_r005, tmp_path / "out")
    assert csv_path.suffix == ".csv" and csv_path.exists()
    assert json_path.suffix == ".json" and json_path.exists()


def test_read_rejects_non_uniform_grid(star_r005, tmp_path):
    path = write_profile_csv(star_r005, tmp_path / "star.csv")
    _edit_cell(path, 700, "r", lambda tok: repr(float(tok) + 1e-3 * star_r005.dr))
    with pytest.raises(ValueError, match="uniform"):
        read_profile_csv(path)


def test_write_table_bytes_match_format(tmp_path):
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.5e-310, -1.7e-308,
               0, -7, 10**20, True, False, np.float64(0.1), np.float64(-math.inf),
               1.0 / 3.0, 1e300, 123456789.0]
    rows = [special[i:i + 3] for i in range(0, len(special), 3)]
    path = write_table(tmp_path / "t.csv", {"k": 1}, ("a", "b", "c"), rows)
    expected = ['# {"k": 1}', "a,b,c"]
    expected += [",".join(format(x, ".17g") for x in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"


@pytest.mark.parametrize("row, name, token", [
    (50, "r", "inf"),
    (50, "rho", "nan"),
    (0, "m_over_r3", "-inf"),
])
def test_read_rejects_non_finite_values(star_r005, tmp_path, row, name, token):
    path = write_profile_csv(star_r005, tmp_path / "star.csv")
    _edit_cell(path, row, name, lambda tok: token)
    with pytest.raises(ValueError, match=f"non-finite {name} in data row {row + 1}$"):
        read_profile_csv(path)


@pytest.mark.parametrize("text, message", [
    ("# header\na,b\n", "no data rows"),
    ("a,b\n1,2\n3\n", "1 values under 2 columns"),
    ("a,b\n1,2\n3,x\n", "line 3"),
    # float() takes digit-group underscores and non-ASCII digits; the table
    # grammar does not
    ("a,b\n1,2\n\n# note\n3,1_0\n", "line 5: .*'1_0'"),
    ("a,b\n1,\uff11\n", "line 2"),
    # the first bad line in file order, whichever check it fails
    ("a,b\n1,x\n3\n", "line 2: .*'x'"),
])
def test_read_table_rejects_malformed_tables(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_table(path)


def test_read_table_round_trips_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# {}\nchi,u\n0,1.5\n\n2,inf\n")
    names, table = read_table(path)
    assert names == ["chi", "u"]
    assert np.array_equal(table, [[0.0, 1.5], [2.0, np.inf]])


@settings(max_examples=60, deadline=None)
@given(hs.lists(hs.lists(hs.floats(width=64), min_size=3, max_size=3), min_size=1, max_size=8),
       hs.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan]))
def test_table_round_trip_is_bit_exact(tmp_path_factory, rows, special):
    # every float64 survives write_table -> read_table bit for bit; a NaN
    # comes back as a NaN ("%.17g" writes no sign or payload for it)
    rows = [*rows, [special, -special, 1.0]]
    path = write_table(tmp_path_factory.mktemp("t") / "t.csv", {}, ("a", "b", "c"), rows)
    _, table = read_table(path)
    expected = np.array(rows, dtype=float)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(table), nan)
    assert np.array_equal(table[~nan].view(np.uint64), expected[~nan].view(np.uint64))


_CELLS = hs.one_of(
    hs.floats(width=64),
    hs.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.5e-310, -1.7e-308]),
).map(lambda x: "%.17g" % x)


def _fault_line(text):
    return lambda lines, k, j: lines.insert(k, text)


def _fault_cell(edit):
    def apply(lines, k, j):
        if k < len(lines):
            cells = lines[k].split(",")
            cells[j % len(cells)] = edit(cells[j % len(cells)])
            lines[k] = ",".join(cell for cell in cells if cell is not None)
    return apply


# each fault is applied at a drawn data line k and column j
_FAULTS = {
    "blank line": _fault_line(""),
    "comment line": _fault_line("# note"),
    "whitespace line": _fault_line("  "),
    "extra value": _fault_cell(lambda cell: cell + ",1"),
    "dropped value": _fault_cell(lambda cell: None),
    "trailing comma": _fault_cell(lambda cell: cell + ","),
    "empty field": _fault_cell(lambda cell: ""),
    "inline comment": _fault_cell(lambda cell: cell + " # c"),
    "underscore": _fault_cell(lambda cell: "1_0"),
    "full-width digit": _fault_cell(lambda cell: "\uff11"),
    "no data rows": lambda lines, k, j: lines.clear(),
}


def _read_outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(hs.data())
def test_read_table_matches_line_by_line_oracle(tmp_path_factory, data):
    # the one-call reader accepts exactly what the line-by-line reader
    # accepts, with the same bits, and refuses the rest with its message
    width = data.draw(hs.integers(1, 4), label="columns")
    lines = data.draw(hs.lists(hs.lists(_CELLS, min_size=width, max_size=width).map(",".join),
                               max_size=20), label="rows")
    for name in data.draw(hs.lists(hs.sampled_from(sorted(_FAULTS)), max_size=3), label="faults"):
        _FAULTS[name](lines, data.draw(hs.integers(0, len(lines))), data.draw(hs.integers(0, 3)))
    end = data.draw(hs.sampled_from(["\n", "\r\n"]), label="line end")
    text = end.join(['# {"k": 1}', ",".join(f"c{j}" for j in range(width)), *lines])
    if data.draw(hs.booleans(), label="final newline"):
        text += end
    path = tmp_path_factory.mktemp("t") / "t.csv"
    path.write_text(text, newline="")

    got, want = _read_outcome(read_table, path), _read_outcome(read_table_by_line, path)
    if isinstance(want, str):
        assert got == want
        return
    (names, table), (want_names, want_table) = got, want
    assert names == want_names
    assert table.dtype == want_table.dtype and table.shape == want_table.shape
    assert np.array_equal(table.view(np.uint64), want_table.view(np.uint64), equal_nan=False)


def test_read_table_reads_clean_table_in_one_call(star_r005, tmp_path, monkeypatch):
    path = write_profile_csv(star_r005, tmp_path / "star.csv")
    names, table = read_table(path)
    monkeypatch.setattr(storage, "_read_by_line", lambda fh, path: pytest.fail("read by line"))
    with open(path) as fh:
        fh.readline()
        from_handle = read_table(fh)
    assert from_handle[0] == names
    assert from_handle[1].tobytes() == table.tobytes()
    assert read_profile_csv(path).rho.tobytes() == star_r005.rho.tobytes()


def test_read_rejects_foreign_or_missing_header(star_r005, tmp_path):
    path = write_profile_csv(star_r005, tmp_path / "star.csv")
    header, *rest = path.read_text().splitlines()
    for first, message in (
        (None, "not a hardstars-profile header"),
        (header.replace("hardstars-profile", "hardstars-snapshot"), "not a hardstars-profile"),
        (header.replace('"version": "', '"version": "9'), "version"),
    ):
        lines = rest if first is None else [first, *rest]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            read_profile_csv(path)
