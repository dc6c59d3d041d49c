"""Line-by-line table reader: the reference for ``storage.read_table``.

This is the reader ``read_table`` had before it handed the open file to
``np.loadtxt`` in one call.  Blank and '#' lines are dropped in Python, the
first other line gives the names, each data line's width is checked with
``line.count(",")``, and the kept lines stream into one ``np.loadtxt``; on
a parse error the file is read again one line at a time to name the first
bad line in file order.
"""

from __future__ import annotations

import itertools

import numpy as np


def _content_lines(fh):
    for lineno, line in enumerate(fh, start=1):
        if line != "\n" and not line.startswith("#"):
            yield lineno, line


def _rows(path, lines, names):
    for lineno, line in lines:
        width = line.count(",") + 1
        if width != len(names):
            raise ValueError(f"{path} line {lineno}: {width} values under {len(names)} columns")
        yield lineno, line


def read_table_by_line(path):
    """Column names and the (rows, columns) array, or the ``ValueError``."""
    with open(path) as fh:
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
