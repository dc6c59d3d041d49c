"""Every CSV table and JSON document: write, read, digest.

A table is one '#'-prefixed provenance line (a JSON object), the column
names, then the rows at 17 significant digits, so a written file is
byte-stable across runs and round-trips to the exact floating-point values
("inf" for infinities).  A table is read by handing the open file, past
its names line, to one ``np.loadtxt`` call; a file that call refuses is
read again line by line, which names the first bad line.  ``digest``
hashes the canonical JSON that headers carry.  A solved star is a table
plus a JSON sidecar.  Its table holds ``CSV_COLUMNS``, the profile itself
(r, rho, m/r^3); reading it back checks it through ``derive_metric_fields``,
and m, chi and the totals are read off those columns as they are for a
solved star.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .background import BackgroundProfile, _readonly, derive_metric_fields

CSV_COLUMNS = ("r", "rho", "m_over_r3")


def digest(text: str) -> str:
    """First 12 hex digits of the SHA-256 of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def write_table(path: str | Path, header: dict, columns: Sequence[str],
                rows: Iterable[Sequence[float]]) -> Path:
    """Write a header line, the column names and one line per row.

    Every row holds one number per column.
    """
    path = Path(path)
    lines = ["# " + json.dumps(header, sort_keys=True), ",".join(columns)]
    row_format = ",".join(["%.17g"] * len(columns))
    lines.extend(row_format % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_document(path: str | Path, doc: dict) -> Path:
    """Write ``doc`` as indented JSON with sorted keys."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _content_lines(fh) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line that is neither blank nor a '#' comment."""
    for lineno, line in enumerate(fh, start=1):
        if line != "\n" and not line.startswith("#"):
            yield lineno, line


def _rows(path, lines: Iterator[tuple[int, str]], names: list[str]) -> Iterator[tuple[int, str]]:
    """The data lines, each checked to hold one value per column."""
    for lineno, line in lines:
        width = line.count(",") + 1
        if width != len(names):
            raise ValueError(f"{path} line {lineno}: {width} values under {len(names)} columns")
        yield lineno, line


def _read_by_line(fh, path) -> tuple[list[str], np.ndarray]:
    """``read_table`` from the start of ``fh``, dropping blank and '#' lines in Python.

    The kept lines stream through the width check into one ``np.loadtxt``;
    on a parse error the file is read again one line at a time to name the
    first bad line in file order.
    """
    lines = _content_lines(fh)
    _, head = next(lines, (0, ""))
    names = head.rstrip("\n").split(",")
    rows = (line for _, line in _rows(path, lines, names))
    first = next(rows, None)
    if first is None:
        raise ValueError(f"no data rows in {path}")
    try:
        return names, np.loadtxt(itertools.chain([first], rows), delimiter=",",
                                 comments=None, ndmin=2)
    except ValueError:
        fh.seek(0)
        lines = _content_lines(fh)
        next(lines)
        for lineno, line in _rows(path, lines, names):
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError as exc:
                detail = str(exc).replace(" at row 0,", " at")
                raise ValueError(f"{path} line {lineno}: {detail}") from None
        raise


def read_table(source: str | Path | TextIO) -> tuple[list[str], np.ndarray]:
    """Column names and the (rows, columns) array of a table.

    ``source`` is a path, or a file opened from one in text mode, which is
    read from its start and left open.  Blank and '#' lines are skipped; the
    first other line holds the names.  The rest of the file goes in one call
    to numpy's C reader (``np.loadtxt``), which skips blank lines itself.
    Numbers follow its grammar: decimal floats with ASCII digits, "inf" and
    "nan" in any case, surrounding whitespace allowed, no digit-group
    underscores.  Anything that call refuses or reads at the wrong width
    (a '#' line between rows among them) is read again line by line, which
    returns the same array or names the first bad line.  Raises ``OSError``
    if the file cannot be read and ``ValueError`` if it has no rows, a row
    of the wrong width, or a token that is not a number.
    """
    opened = isinstance(source, (str, os.PathLike))
    with open(source) if opened else contextlib.nullcontext(source) as fh:
        path = source if opened else fh.name
        fh.seek(0)
        head = ""
        for line in iter(fh.readline, ""):
            if line != "\n" and not line.startswith("#"):
                head = line
                break
        names = head.rstrip("\n").split(",")
        start = fh.tell()
        while (line := fh.readline()) == "\n":
            pass
        if line:  # a data line, so loadtxt reads at least one row or raises
            fh.seek(start)
            try:
                table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                table = None
            if table is not None and table.shape[1] == len(names):
                return names, table
        fh.seek(0)
        return _read_by_line(fh, path)


def profile_metadata(profile: BackgroundProfile) -> dict:
    return {
        "R": profile.R,
        "M_total": profile.M_total,
        "N_total": profile.N_total,
        "grid_n": profile.grid_n,
        "rho_central": profile.rho_central,
        "provenance": profile.provenance,
        "version": __version__,
    }


def write_profile_csv(
    profile: BackgroundProfile, path: str | Path, extra: dict | None = None
) -> Path:
    """Write the grid columns; returns the path written.

    ``extra`` entries are merged into the header object (used by callers
    that stamp a run-configuration hash on every artifact).
    """
    meta = profile_metadata(profile)
    header = {"format": "hardstars-profile", "hash": digest(json.dumps(meta, sort_keys=True)),
              "version": __version__}
    if extra:
        header.update(extra)
    cols = [getattr(profile, name).tolist() for name in CSV_COLUMNS]
    return write_table(path, header, CSV_COLUMNS, zip(*cols))


def write_profile_json(
    profile: BackgroundProfile, path: str | Path, extra: dict | None = None
) -> Path:
    """Write the scalar sidecar (radius, totals, provenance)."""
    meta = profile_metadata(profile)
    if extra:
        meta = {**meta, **extra}
    return write_document(path, meta)


def write_profile(
    profile: BackgroundProfile, base: str | Path, extra: dict | None = None
) -> tuple[Path, Path]:
    """Write <base>.csv and <base>.json."""
    base = Path(base)
    return (
        write_profile_csv(profile, base.with_suffix(".csv"), extra=extra),
        write_profile_json(profile, base.with_suffix(".json"), extra=extra),
    )


def read_profile_csv(path: str | Path) -> BackgroundProfile:
    """Read a profile CSV written by this module and complete it.

    The header and the table come from one open file.  Raises
    ``ValueError`` unless the first line is a ``# {...}`` header with
    format ``hardstars-profile`` and this package's version, the columns
    are ``CSV_COLUMNS``, every value is finite, and r runs from 0 to R > 0
    on a uniform grid (every spacing within 1e-9 dr of R/(rows - 1)).  The
    profile is then checked by ``derive_metric_fields``, whose
    ``DomainError`` (a ``ValueError``) refuses a trapped shell or a density
    below the floor.
    """
    with open(path) as fh:
        first = fh.readline()
        try:
            header = json.loads(first[2:]) if first.startswith("# ") else None
        except json.JSONDecodeError:
            header = None
        if not isinstance(header, dict) or header.get("format") != "hardstars-profile":
            raise ValueError(f"{path}: first line is not a hardstars-profile header")
        if header.get("version") != __version__:
            raise ValueError(
                f"{path}: profile version {header.get('version')!r} is not {__version__!r}"
            )
        names, table = read_table(fh)
    if tuple(names) != CSV_COLUMNS:
        raise ValueError(
            f"unexpected columns in {path}: {','.join(names)} (expected {','.join(CSV_COLUMNS)}; "
            "rebuild older profiles with 'hardstars build')"
        )
    bad = ~np.isfinite(table)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ValueError(f"{path}: non-finite {CSV_COLUMNS[col]} in data row {row + 1}")
    r, rho, m_over_r3 = (_readonly(col) for col in table.T)
    if len(r) < 2 or not r[-1] > 0.0:
        raise ValueError(f"{path}: need at least two rows reaching a positive radius")
    dr = r[-1] / (len(r) - 1)
    if np.any(np.abs(np.diff(r) - dr) > 1e-9 * dr):
        raise ValueError(f"{path}: r is not a uniform grid from 0 to R")
    return derive_metric_fields(BackgroundProfile(
        r=r, rho=rho, m_over_r3=m_over_r3,
        provenance={"solver": "file", "source": str(path)},
    ))
