"""Oracles for ``evolution._chebyshev_band``: the band as it was built
before the one-squaring build (the full three-term recurrence to T_k in
``np.longdouble``), and single rows of T_k(C) in mpmath.  Test only."""

from __future__ import annotations

import mpmath
import numpy as np

_BUILD_COLUMNS = 64    # columns of T_k(C) built per longdouble block


def chebyshev_band(scaled: np.ndarray, k: int) -> np.ndarray:
    """The transpose T_k(C)^T = T_k(C^T), C = I + S/2 with S the dt^2-scaled
    operator bands, in LAPACK (k, k) banded layout and Fortran order.

    ``dgbmv`` with ``trans=1`` applies T_k(C) from it as one dot product of
    2k + 1 terms per entry, which rounds less than the column-by-column
    form of ``trans=0``.  Left multiplication by C^T mixes rows only, so
    the columns of T_(m+1) = 2 C^T T_m - T_(m-1) are built block by block.
    The recurrence runs in ``np.longdouble`` and T_k is rounded to double
    once.
    """
    n = scaled.shape[1]
    rows = 2 * k + 3  # band rows -1..2k+1; the outer two stay zero
    # entries of 2C^T by matrix row, padded so that entry [p, j] of a block
    # (band row p - 1, matrix row j + p - 1 - k) sits at column j + p
    pad = k + 1
    s = scaled.astype(np.longdouble)
    two_c = np.zeros((3, n + 2 * pad), dtype=np.longdouble)
    two_c[0, pad + 1:pad + n] = s[0, 1:]    # 2 C[i-1, i]
    two_c[1, pad:pad + n] = 2.0 + s[1]      # 2 C[i, i]
    two_c[2, pad:pad + n - 1] = s[2, :-1]   # 2 C[i+1, i]
    windows = np.lib.stride_tricks.sliding_window_view(two_c, rows, axis=1)
    band = np.empty((2 * k + 1, n), order="F")
    for j0 in range(0, n, _BUILD_COLUMNS):
        cols = slice(j0, min(j0 + _BUILD_COLUMNS, n))
        low, diag, up = (np.ascontiguousarray(windows[t, cols].T) for t in range(3))
        prev = np.zeros_like(diag)                   # T_0 = I
        prev[k + 1] = 1.0
        cur = np.zeros_like(diag)                    # T_1 = C
        cur[k] = 0.5 * up[k]
        cur[k + 1] = 0.5 * diag[k + 1]
        cur[k + 2] = 0.5 * low[k + 2]
        acc, tmp = np.empty_like(diag), np.empty_like(diag)
        for m in range(1, k):
            act, below, above = (slice(k - m + d, k + m + 3 + d) for d in (0, -1, 1))
            a, t = acc[act], tmp[act]
            np.multiply(low[act], cur[below], out=a)
            np.multiply(diag[act], cur[act], out=t)
            np.add(a, t, out=a)
            np.multiply(up[act], cur[above], out=t)
            np.add(a, t, out=a)
            np.subtract(a, prev[act], out=prev[act])
            prev, cur = cur, prev
        band[:, cols] = cur[1:-1]
    return band


def exact_row(scaled: np.ndarray, k: int, j: int, dps: int = 40) -> dict[int, mpmath.mpf]:
    """Row j of T_k(C), C = I + S/2, as {column: value}, by the recurrence
    r_(m+1) = 2 r_m C - r_(m-1) on row vectors in ``dps``-digit arithmetic
    from the double entries of ``scaled`` (LAPACK (1, 1) banded layout)."""
    n = scaled.shape[1]
    cols = range(max(0, j - k), min(n, j + k + 1))
    with mpmath.workdps(dps):
        up, diag, low = ({c: mpmath.mpf(float(scaled[t, c])) for c in cols} for t in range(3))

        def times_two_c(r):
            # (r 2C)[c] = r[c-1] 2C[c-1, c] + r[c] 2C[c, c] + r[c+1] 2C[c+1, c]
            return {c: r.get(c - 1, 0) * up[c] + r.get(c, 0) * (2 + diag[c])
                    + r.get(c + 1, 0) * low[c] for c in cols}

        prev = {j: mpmath.mpf(1)}
        cur = {c: val / 2 for c, val in times_two_c(prev).items()}
        for _ in range(1, k):
            prev = {c: val - prev.get(c, 0) for c, val in times_two_c(cur).items()}
            prev, cur = cur, prev
        return cur
