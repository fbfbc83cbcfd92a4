"""Numbers as text: the float rows of the OBJ and CSV artifacts.

A float is written as its repr, the shortest text that float() reads back to
the same bits, so every artifact round-trips exactly.  Tables of _MIN_ROWS
rows or more, and files of about 32 bytes a row for that many, are formatted
and parsed in contiguous parts, one per available core up to _MAX_PARTS:
the caller does part 0, and each further part runs in a forked child that
sends its bytes back through a pipe and leaves by os._exit, so it never
flushes inherited stdio or runs exit handlers.  The children only format and
parse Python numbers and build numpy arrays (no BLAS call), and every child
is reaped before the call returns.  The text, and the rows read, are the same
whatever the part count.

A writer takes a row count and a function rows(a, b) that returns rows
a .. b as a 2-d array, and asks it for every row once, in ascending spans
of at most _CHUNK rows within each part: the caller holds at most one chunk
of rows as Python objects, writes each chunk's text to the file at once, and
copies each child's pipe in blocks of _CHUNK_CHARS bytes.  A reader never holds the
file: each part opens it and reads its own byte range, _CHUNK_CHARS bytes of
whole lines at a time, and the parsed rows reach the caller's sink one chunk
or pipe block at a time.  A child formats or parses its whole part before it
writes: one that wrote as it went would wait on its pipe until the caller
had finished part 0, and the parts would no longer run side by side.
"""

from __future__ import annotations

import io
import os
import re
import shutil
from itertools import compress, repeat

import numpy as np

_MAX_PARTS = 8
# Below this many rows a fork costs about what the part it takes over saves:
# 4096 float rows format no faster in two parts than in one.
_MIN_ROWS = 8192
# Rows formatted at a time, and bytes parsed or copied at a time: 1 << 17
# are about 2,800 rows of a saved field of 46-character rows.
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
                shutil.copyfileobj(fh, out, _CHUNK_CHARS)
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


def write_rows(fh, row: str, count: int, rows):
    """Write `row % tuple(r)` for each of count rows r, asked of rows(a, b)
    one chunk at a time, to the binary file fh: %r prints a float as its
    repr, %d an int, %s a str."""

    def work(a, b, dst):
        for c in range(a, b, _CHUNK):
            dst.write(_format(row, rows(c, min(c + _CHUNK, b))))
        return True

    _fork_map(work, _cuts(count, count), fh)


# A line ends at "\n", "\r\n" or a lone "\r", as in a file opened in text mode.
_EOL = re.compile(rb"\r\n?|\n")
_SCAN = 1 << 12


def _line_start(fh, c: int) -> int:
    """The first line start at or after byte c >= 1 of the binary file fh, or
    its size; read from byte c - 1 on, _SCAN bytes at a time."""
    fh.seek(c - 1)
    while piece := fh.read(_SCAN):
        m = _EOL.search(piece)
        if m:
            end = fh.tell() - len(piece) + m.end()
            if m.end() == len(piece) and m.group() == b"\r" and fh.read(1) == b"\n":
                end += 1
            return end
    return fh.tell()


def _part_cuts(fh) -> list[int]:
    """Bounds of read_rows' parts of fh, line starts: the equal parts of the
    bytes after its first line, each bound moved on to a line start."""
    size = fh.seek(0, os.SEEK_END)
    start = _line_start(fh, 1)
    # rows of a saved field take 30 to 60 bytes
    cuts = _cuts(size - start, (size - start) // 32)
    return [start, *(_line_start(fh, start + c) for c in cuts[1:-1]), size]


def _chunk_cuts(fh, a: int, b: int) -> list[int]:
    """Bounds of the chunks of the part a .. b of fh: the first line start
    at or after each a + k _CHUNK_CHARS."""
    return [a, *(_line_start(fh, c) for c in range(a + _CHUNK_CHARS, b, _CHUNK_CHARS)), b]


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


class _Rows:
    """A binary sink that hands the float rows written to it, whole rows of
    width at a time, to put; ok turns False once put returns False."""

    def __init__(self, width: int, put):
        self.width, self.put, self.ok, self.rest = width, put, True, b""

    def write(self, data):
        data = self.rest + bytes(data)
        end = len(data) - len(data) % (8 * self.width)
        self.rest = data[end:]
        if end and self.ok:
            self.ok = self.put(np.frombuffer(data, count=end // 8).reshape(-1, self.width))


def read_rows(path, width: int, memo: tuple[int, ...], put) -> bool:
    """Hand the rows of the text file at path after its first line to put,
    in file order, as (k, width) float arrays: the nonblank lines,
    comma-separated, as float() reads them.  Lines end as in text mode;
    blank and whitespace-only lines are skipped.  Returns whether the
    file was ASCII, every line parsed, and put returned True each time:
    a file that fails may be read again by a slower reader, which names
    the fault.

    The columns in memo repeat few distinct values (grid coordinates): each
    distinct token there is parsed once.  Every token still goes through
    float(), so results are as if parsed one by one.  Each part opens the
    file and reads its own byte range, one chunk at a time.
    """
    with open(path, "rb") as fh:
        cuts = _part_cuts(fh)
        fh.seek(0)
        if not fh.read(cuts[0]).isascii():
            return False

    def work(a, b, dst):
        with open(path, "rb") as fh:
            bounds = _chunk_cuts(fh, a, b)
            for c, d in zip(bounds, bounds[1:]):
                fh.seek(c)
                data = fh.read(d - c)
                if not data.isascii():
                    return False
                text = data.decode("ascii")
                if "\r" in text:
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
                rows = _parse(_rows(text), width, memo)
                if rows is None:
                    return False
                dst.write(rows)
        return True

    out = _Rows(width, put)
    return _fork_map(work, cuts, out) and out.ok
