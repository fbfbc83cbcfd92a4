"""Numbers as text: the float and integer rows of the OBJ and CSV artifacts.

A float is written as its repr, the shortest text that float() reads back to
the same bits, so every artifact round-trips exactly.  A numpy kernel writes
a chunk of rows at a time, byte for byte as `row % tuple(r)` would: repr's
digits by exact integer arithmetic (_shortest), an integer's 8 to a 64-bit
word.  It leaves to repr 0, nan, inf, scientific notation, -2**63, and a
float whose round-trip interval ends, or whose two nearest digit strings
tie, within 1e-9 of an integer.

Tables of _MIN_ROWS rows or more, and files of about 32 bytes a row for that
many, are formatted and parsed in contiguous parts, one per available core
up to _MAX_PARTS: the caller does part 0, and each further part runs in a
forked child that sends its bytes back through a pipe and leaves by
os._exit, so it never flushes inherited stdio or runs exit handlers.  The
children only format and parse numbers and build numpy arrays (no BLAS
call), and every child is reaped before the call returns.  The text, and the
rows read, are the same whatever the part count.

A writer takes a row count and a function rows(a, b) that returns rows
a .. b as a 2-d array, and asks it for every row once, in ascending spans
of at most _CHUNK rows within each part: the caller holds at most one chunk
of rows and its text, writes each chunk's text to the file at once, and
copies each child's pipe in blocks of _CHUNK_CHARS bytes.  A reader never
holds the file: each part opens it and reads its own byte range,
_CHUNK_CHARS bytes of whole lines at a time, and the parsed rows reach the
caller's sink one chunk or pipe block at a time.  A child formats or parses
its whole part before it writes: one that wrote as it went would wait on
its pipe until the caller had finished part 0, and the parts would no
longer run side by side.
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


# Powers of ten: exact as int64 to 10**18, and as floats to 10**22, also in
# halves of 26 bits (Dekker).  A scaled interval end, or a tie between two
# digit strings, within _NEAR of an integer is left to repr.  Of 24 bytes,
# _KEEP[25 a + b] masks a <= p < b, and _POINT[p] turns a "0" at p into ".".
_P10, _F10, _NEAR = 10 ** np.arange(19, dtype=np.int64), 10.0 ** np.arange(23), 1e-9
_F10H = _F10 * 134217729.0 - (_F10 * 134217729.0 - _F10)
_F10L = _F10 - _F10H
_KEEP = (np.arange(24) >= np.arange(25)[:, None, None]) & (np.arange(24) < np.arange(25)[:, None])
_KEEP = (255 * _KEEP.astype(np.uint8)).view("<i8").reshape(625, 3)
_POINT = (0x1E * np.eye(24, dtype=np.uint8)).view("<i8")


def _floor(f, ok):
    """floor(f) as int64; ok turns False where f is within _NEAR of an integer."""
    F = np.floor(f)
    ok &= np.abs(f - F - 0.5) < 0.5 - _NEAR
    return F.astype(np.int64)


def _shortest(x):
    """(C, s, j, ok) for the float64 array x: where ok, repr(|x|) is the
    fixed-notation text of C·10^-s, and C = q·10^j with q not a multiple of
    10.  Its digits are the fewest that round-trip, and of those the nearest
    |x| (Steele & White; Gay's dtoa mode 0); |x| is in [1e-4, 1e16)."""
    ax = np.abs(x)
    ok = (ax >= 1e-4) & (ax < 1e16)  # repr's fixed notation; False for nan
    ax[~ok] = 1.0
    # |x|·10^s = H + lo exactly (Dekker's TwoProduct), H an even integer in
    # [1e16, 1e17], or a few ulps below where log10 rounds across a power of
    # ten (s = 0 only next to 1e16, where the interval ends are integers).
    # So the round-trip interval, |x| less and plus half the gaps to its
    # neighbours (the lower halved at a power of two), times 10^s, is over
    # one unit wide: it holds the integers Li + 1 .. Ui
    s = 16 - np.floor(np.log10(ax)).astype(np.int64)
    p, c = _F10[s], ax * 134217729.0
    H, ah = ax * p, c - (c - ax)
    lo = ((ah * _F10H[s] - H) + ah * _F10L[s] + (ax - ah) * _F10H[s]) + (ax - ah) * _F10L[s]
    m, e = np.frexp(ax)
    gu, H = np.ldexp(p, e - 54), H.astype(np.int64)
    Li, Ui = (H + _floor(f, ok) for f in (lo - gu / (1 + (m == 0.5)), lo + gu))
    # j is the largest with a multiple of 10^j among the w of them, that is
    # Ui mod 10^j < w, and top the largest such multiple.  As w < 100,
    # j >= 2 means Ui mod 100 < w, and then j - 2 trailing zeros of Ui // 100
    w, r = Ui - Li, Ui % 100
    j, top = (r % 10 < w) + (r < w).astype(np.int64), Ui - np.where(r < w, r, r % 10 * (r % 10 < w))
    i = np.flatnonzero(ok & (r < w))
    q, z = Ui[i] // 100, 0
    for k in (8, 4, 2, 1):
        hit = q % _P10[k] == 0
        q, z = np.where(hit, q // _P10[k], q), z + k * hit
    j[i] += z
    # steps of 10^j down from top to the multiple nearest |x|·10^s; at a
    # power of two that one may lie below the interval, and the next is taken
    d = _P10[j]
    C = top - d * np.maximum(_floor(((top - H) - lo) / d + 0.5, ok), 0)
    C += d * (C <= Li)
    return C, s, j, ok


def _text(x, conv: str):
    """The text of each value of x but its sign, as int64 words, first byte
    lowest, unused bytes NUL: the digits a <= p < b of C's 24, where for a
    float the integer part I = C // 10^s moves a digit up, C + 9 I·10^s, and
    a point fills the gap; or repr's text, where the kernel is not sure."""
    if conv == "r":
        C, s, j, ok = _shortest(x.astype(np.float64, copy=False))
        d = _P10[np.minimum(s, 18)]
        C = C + 9 * (C // d) * d
    else:
        C = np.abs(x.astype(np.int64))  # -2**63 stays negative, and goes to repr
        j, ok = 0, C >= 0
    a, b = 24 - np.maximum(np.searchsorted(_P10, C, "right"), 1), 24 - j
    if conv == "r":  # a digit at least each side of the point
        a, b = np.minimum(a, 22 - s), np.maximum(b, 25 - s)
    # C's digits from 24 - 8 words on, 8 to an int64 word, split in lanes;
    # 24 bytes hold repr's text but its sign
    words = 3 - int(a.min()) // 8 if ok.all() else 3
    t = np.empty((len(C), words), np.int64)
    for i in range(words - 1, 0, -1):
        C, t[:, i] = C // 10**8, C % 10**8
    t[:, 0] = C
    h = t // 10000
    t = h | (t - 10000 * h) << 32
    h = t * 10486 >> 20 & 0x7F0000007F  # // 100 in each 32-bit lane
    t = h | (t - 100 * h) << 16
    h = t * 103 >> 10 & 0xF000F000F000F  # // 10 in each 16-bit lane
    t = (h | (t - 10 * h) << 8) + 0x3030303030303030 & np.take(_KEEP[:, 3 - words :], 25 * a + b, axis=0)
    if conv == "r":
        t ^= np.take(_POINT[:, 3 - words :], 23 - s, axis=0)
    vs = b"".join((f"%{conv}" % v)[v < 0 :].encode().ljust(24, b"\0") for v in x[~ok].tolist())
    t[~ok] = np.frombuffer(vs, "<i8").reshape(-1, t.shape[1])
    return t


def _format(row: str, rows: np.ndarray) -> bytearray:
    """The bytes of row % tuple(r) for each row r of the 2-d array rows.
    Each field is a slot of int64 words: its literal, with the sign in the
    last byte, then its text, made a column at a time.  NUL bytes are
    deleted at the end."""
    lits = row.split("%")
    conv = {p[:1] for p in lits[1:]}
    if "\0" in row or not (np.can_cast(rows.dtype, np.int64) if conv == {"d"} else conv == {"r"} and rows.dtype.kind == "f"):
        raise ValueError(f"{row!r} cannot write {rows.dtype} rows: its fields are all %r of floats or all %d of integers")
    lits, conv, (n, k) = [t.encode() for t in (lits[0], *(p[1:] for p in lits[1:]))], conv.pop(), rows.shape
    texts = [_text(rows[:, c], conv) for c in range(k)]
    lw, tw = max(map(len, lits)) // 8 + 1, max(t.shape[1] for t in texts)
    buf = bytearray(8 * n * (k * (lw + tw) + lw))
    cells = np.frombuffer(buf, "<i8").reshape(n, -1)
    lit = np.frombuffer(b"".join(t.ljust(8 * lw, b"\0") for t in lits), "<i8").reshape(k + 1, lw)
    slots = cells[:, : k * (lw + tw)].reshape(n, k, -1)
    slots[..., :lw], cells[:, k * (lw + tw) :] = lit[:k], lit[k]
    slots[..., lw - 1] |= (rows < 0) * (45 << 56)
    for c, t in enumerate(texts):
        slots[:, c, lw : lw + t.shape[1]] = t
    del texts, t  # translate first allocates its output at the size of buf
    return buf.translate(None, b"\0")


def write_rows(fh, row: str, count: int, rows):
    """Write `row % tuple(r)` for each of count rows r, asked of rows(a, b)
    one chunk at a time, to the binary file fh.  The fields are all %r, of
    a float array, written as repr writes them, or all %d, of an integer
    array; any other row raises ValueError when its first chunk is made."""

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
