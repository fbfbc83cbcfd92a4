"""Numbers as text: the float rows of the OBJ and CSV artifacts.

A float is written as its repr, the shortest text that float() reads back to
the same bits, so every artifact round-trips exactly.  Tables of _MIN_ROWS
rows or more are formatted and parsed in contiguous parts, one per available
core up to _MAX_PARTS: the caller does part 0, and each further part runs in
a forked child that sends its bytes back through a pipe and leaves by
os._exit, so it never flushes inherited stdio or runs exit handlers.  The
children only format and parse Python numbers and build numpy arrays (no
BLAS call), and every child is reaped before the call returns.  The text is
the same whatever the part count.
"""

from __future__ import annotations

import os
from itertools import repeat

import numpy as np

_MAX_PARTS = 8
# Below this many rows a fork costs about what the part it takes over saves:
# 4096 float rows format no faster in two parts than in one.
_MIN_ROWS = 8192


def _cuts(rows: int) -> list[int]:
    """Row bounds of the parts: part k is rows cuts[k] .. cuts[k + 1]."""
    parts = 1
    if rows >= _MIN_ROWS and hasattr(os, "fork"):
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        parts = min(cores or 1, _MAX_PARTS)
    return [rows * k // parts for k in range(parts + 1)]


def _fork_map(work, cuts: list[int]) -> list[bytes]:
    """work(cuts[k], cuts[k + 1]) for each part k, the parts after the first
    run in forked children.  A child that fails raises OSError here."""
    children = []  # (pid, read end of its pipe)
    try:
        for k in range(1, len(cuts) - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    data = memoryview(work(cuts[k], cuts[k + 1]))
                    while data:
                        data = data[os.write(w, data):]
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, r))
        out = [work(cuts[0], cuts[1])]
        for _, r in children:
            with open(r, "rb", closefd=False) as fh:
                out.append(fh.read())
    finally:
        # close every pipe first: a child blocked on a write then fails
        # (EPIPE) instead of waiting for a reader that is gone
        for _, r in children:
            os.close(r)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    if any(codes):
        raise OSError(f"text worker exited with status {max(codes, key=abs)}")
    return out


def _format(row: str, rows: np.ndarray) -> bytes:
    return ((row * len(rows)) % tuple(rows.ravel().tolist())).encode()


def write_rows(fh, row: str, table: np.ndarray):
    """Write `row % tuple(r)` for each row r of a 2-d table to the binary
    file fh: %r prints a float as its repr, %d an int, %s a str."""
    for text in _fork_map(lambda a, b: _format(row, table[a:b]), _cuts(len(table))):
        fh.write(text)


def _parse(lines: list[str], width: int, memo: tuple[int, ...]) -> bytes:
    """The float64 bytes of the rows, or b"" if one does not parse."""
    if not set(map(str.count, lines, repeat(","))) <= {width - 1}:
        return b""
    tokens = ",".join(lines).split(",")
    out = np.empty((len(lines), width))
    try:
        for c in range(width):
            col = tokens[c::width]
            if c in memo:
                seen = dict.fromkeys(col)
                seen.update(zip(seen, map(float, seen)))
                out[:, c] = np.fromiter(map(seen.__getitem__, col), float, len(lines))
            else:
                out[:, c] = np.fromiter(map(float, col), float, len(lines))
    except ValueError:
        return b""
    return out.tobytes()


def parse_rows(rows: list[str], width: int, memo: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(n, width) floats of comma-separated rows as float() reads them, and
    which rows do not parse (NaN there).

    The columns in memo repeat few distinct values (grid coordinates): each
    distinct token there is parsed once.  Every token still goes through
    float(), so results and errors are as if parsed one by one.
    """
    n = len(rows)
    parts = _fork_map(lambda a, b: _parse(rows[a:b], width, memo), _cuts(n))
    if sum(map(len, parts)) == 8 * width * n:
        return np.frombuffer(b"".join(parts)).reshape(n, width), np.zeros(n, dtype=bool)
    # some row does not parse: find which, row by row
    values, bad = np.full((n, width), np.nan), np.ones(n, dtype=bool)
    for k, line in enumerate(rows):
        try:
            floats = list(map(float, line.split(",")))
        except ValueError:
            continue
        if len(floats) == width:
            values[k], bad[k] = floats, False
    return values, bad
