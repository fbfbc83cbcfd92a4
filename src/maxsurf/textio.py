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

The caller holds at most one chunk of rows as Python objects: it formats
_CHUNK rows at a time and writes each to the file at once, parses
_CHUNK_CHARS characters of whole lines at a time into one preallocated
array, and copies each child's pipe in blocks.  A child formats or parses
its whole part before it writes: one that wrote as it went would wait on
its pipe until the caller had finished part 0, and the parts would no
longer run side by side.
"""

from __future__ import annotations

import io
import os
import shutil
from itertools import compress, repeat

import numpy as np

_MAX_PARTS = 8
# Below this many rows a fork costs about what the part it takes over saves:
# 4096 float rows format no faster in two parts than in one.
_MIN_ROWS = 8192
# Rows formatted at a time, and characters parsed at a time: 1 << 17 are
# about 2,800 rows of a saved field of 46-character rows.
_CHUNK = 4096
_CHUNK_CHARS = 1 << 17


def _cuts(size: int, rows: int) -> list[int]:
    """Bounds of the equal parts of size rows or characters that hold a
    table of this many rows: part k is cuts[k] .. cuts[k + 1]."""
    parts = 1
    if rows >= _MIN_ROWS and hasattr(os, "fork"):
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        parts = min(cores or 1, _MAX_PARTS)
    return [size * k // parts for k in range(parts + 1)]


def _fork_map(work, cuts: list[int], out) -> bool:
    """Run work(cuts[k], cuts[k + 1], dst) for each part k: it writes the
    part's bytes to dst, and returns False if a row of the part does not
    parse.  Part 0 runs here and writes to out directly.  Each later part
    runs in a forked child into a buffer, which the child sends through a
    pipe after a byte holding that verdict; the parts' bytes reach out in
    part order.  Returns whether every part parsed.  A child that fails
    raises OSError here."""
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
                    buf = io.BytesIO()
                    os.write(w, bytes([work(cuts[k], cuts[k + 1], buf)]))
                    data = buf.getbuffer()
                    while data:
                        data = data[os.write(w, data):]
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, r))
        parsed = work(cuts[0], cuts[1], out)
        for _, r in children:
            with open(r, "rb", closefd=False) as fh:
                parsed &= fh.read(1) == b"\1"
                shutil.copyfileobj(fh, out, 1 << 20)
    finally:
        # close every pipe first: a child blocked on a write then fails
        # (EPIPE) instead of waiting for a reader that is gone
        for _, r in children:
            os.close(r)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    if any(codes):
        raise OSError(f"text worker exited with status {max(codes, key=abs)}")
    return parsed


def _format(row: str, rows: np.ndarray) -> bytes:
    return ((row * len(rows)) % tuple(rows.ravel().tolist())).encode()


def write_rows(fh, row: str, table: np.ndarray):
    """Write `row % tuple(r)` for each row r of a 2-d table to the binary
    file fh: %r prints a float as its repr, %d an int, %s a str."""

    def work(a, b, dst):
        for c in range(a, b, _CHUNK):
            dst.write(_format(row, table[c:min(c + _CHUNK, b)]))
        return True

    _fork_map(work, _cuts(len(table), len(table)), fh)


def _line_starts(text: str, cuts) -> list[int]:
    """Each cut moved forward to the next start of a line of text, or its end."""
    return [c if c in (0, len(text)) else text.find("\n", c - 1) + 1 or len(text) for c in cuts]


def _rows(text: str) -> list[str]:
    """The lines of text that are not blank or whitespace-only."""
    lines = text.split("\n")
    return list(compress(lines, map(str.strip, lines)))


def _parse(lines: list[str], width: int, memo: tuple[int, ...]) -> np.ndarray | None:
    """The (len(lines), width) floats of the rows, or None if one does not parse."""
    out = np.empty((len(lines), width))
    if not lines:
        return out
    if not set(map(str.count, lines, repeat(","))) <= {width - 1}:
        return None
    tokens = ",".join(lines).split(",")
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
        return None
    return out


class _Fill:
    """A binary sink that fills a preallocated C-contiguous array in order."""

    def __init__(self, array: np.ndarray):
        self.bytes = array.reshape(-1).view(np.uint8)
        self.size = 0

    def write(self, data):
        data = np.frombuffer(data, np.uint8)
        self.bytes[self.size:self.size + data.size] = data
        self.size += data.size


def parse_rows(text: str, width: int, memo: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(n, width) floats of the n nonblank lines of text, comma-separated, as
    float() reads them, and which rows do not parse (NaN there).  Lines end
    at "\\n"; blank and whitespace-only lines are skipped.

    The columns in memo repeat few distinct values (grid coordinates): each
    distinct token there is parsed once.  Every token still goes through
    float(), so results and errors are as if parsed one by one.  Parts are
    character ranges of text cut at line starts.
    """
    values = np.empty((text.count("\n") + 1, width))
    out = _Fill(values)

    def work(a, b, dst):
        cuts = _line_starts(text, range(a, b, _CHUNK_CHARS)) + [b]
        for c, d in zip(cuts, cuts[1:]):
            chunk = _parse(_rows(text[c:d]), width, memo)
            if chunk is None:
                return False
            dst.write(chunk)
        return True

    cuts = _line_starts(text, _cuts(len(text), len(values)))
    if _fork_map(work, cuts, out):
        n = out.size // values.itemsize // width
        return values[:n], np.zeros(n, dtype=bool)
    # some row does not parse: find which, row by row
    rows = _rows(text)
    values, bad = np.full((len(rows), width), np.nan), np.ones(len(rows), dtype=bool)
    for k, line in enumerate(rows):
        try:
            floats = list(map(float, line.split(",")))
        except ValueError:
            continue
        if len(floats) == width:
            values[k], bad[k] = floats, False
    return values, bad
