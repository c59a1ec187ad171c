"""Text files written whole or not at all, and the sample file format.

Every file the tools write goes through ``atomic_files``: the text goes
to a temporary file beside its target, which is renamed onto the target
only once all of it is written, so a reader never sees half a file.
Large files are written in pieces of ``TEXT_BLOCK`` lines, so none has
to exist as one string.

A sample file is one decimal value per line (``repr``, so it round-trips
exactly) after a provenance header line.  ``load_sample`` reads each line
as ``float`` reads it, and names the first bad line itself, in one pass
over the file, READ_BLOCK characters at a time, into one array of 8 bytes
a value: on a 2-core Xeon container its peak resident memory over the
bare import is 10.7 MB for 1e6 values and 83.7 MB for 1e7.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .generators import Sample

__all__ = [
    "atomic_files",
    "atomic_write_text",
    "repr_rows",
    "repr_cells",
    "join_rows",
    "rows_text",
    "repr_text",
    "sample_lines",
    "save_sample",
    "load_sample",
]

SAMPLE_HEADER_PREFIX = "# rngaudit-sample v1"
# Text writers format this many lines at a time; a whole large array at once
# would hold its text and the work arrays beside it.
TEXT_BLOCK = 1 << 12
# repr_rows: each value's text in a row of REPR_WIDTH bytes, at most 24 of
# them, and the byte after the longest text for the character after it.
REPR_WIDTH = 32
TERMINATOR = 24
# The tables are built from Python ints and bytes, not numpy arithmetic: a
# first call of each integer ufunc maps its code into every process that
# imports this module, writing a sample file or not.
_FRACTION = (1 << 52) - 1
_POW5 = np.array([5**k for k in range(21)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(17)], dtype=np.int64)
# 10**k as doubles, exact for k <= 22
_TEN = np.array([float(10**k) for k in range(21)])
# the four ASCII digits of 0..9999, each as the uint32 word it fills in a row
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).reshape(-1, 4).view(np.uint32)[:, 0]
# the first word of a row: NULs, "0.", 0-3 zeros and the leading digit
_PREFIX = np.frombuffer("".join(f"{'0.' + '0' * z + str(d):\0>8}" for z in range(4)
                                for d in range(10)).encode(), np.uint64)
# masks of the two words of a row's last 16 digits that clear the last j
_TAIL = np.frombuffer(b"".join(b"\xff" * (16 - j) + b"\0" * j for j in range(17)),
                      np.uint64).reshape(17, 2).T
# load_sample reads the file in blocks of this many characters, each cut
# after its last newline, and a line of up to READ_WIDTH bytes (the text
# part of a repr_rows row) as one row of the exact kernel
READ_BLOCK = 1 << 17
READ_WIDTH = TERMINATOR
# the mask of a row that keeps its first k bytes, for k = 0..READ_WIDTH
_KEEP = np.frombuffer(b"".join(b"\xff" * k + b"\0" * (READ_WIDTH - k)
                               for k in range(READ_WIDTH + 1)), f"V{READ_WIDTH}")
_POW5_22 = 5**22
# Name prefix of the temporary files, in the directory of their target.
_TMP_PREFIX = ".rngaudit-tmp-"


@contextlib.contextmanager
def atomic_files(paths):
    """Text handles to one temporary file beside each of ``paths``.

    Each file gets the mode that ``open`` gives a new file, 0o666 less
    the umask.  On a clean exit the handles are closed and each temporary
    file is renamed onto its path, in order.  On any error each temporary
    file not yet renamed is deleted: no target is left holding part of a
    file, and no temporary file is left behind.  A temporary file that
    cannot be created (say, in a directory that does not exist) raises
    the error under its target's path.
    """
    paths = [os.fspath(p) for p in paths]
    temps, handles, renamed = [], [], 0
    try:
        for path in paths:
            tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                               _TMP_PREFIX + os.urandom(8).hex())
            # "x" creates the file (O_EXCL), so a name that exists is an error
            try:
                handles.append(open(tmp, "x", encoding="utf-8"))
            except OSError as exc:
                # the user named the target, not the hidden temporary file
                raise type(exc)(exc.errno, exc.strerror, path) from None
            temps.append(tmp)
        yield handles
        for fh in handles:
            fh.close()
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
            renamed += 1
    finally:
        # after an error a failed flush must not keep the rest from cleanup
        for fh in handles:
            with contextlib.suppress(OSError):
                fh.close()
        for tmp in temps[renamed:]:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def atomic_write_text(path, chunks) -> None:
    """Write one file through ``atomic_files``.  ``chunks`` is one str or
    an iterable of str pieces, written in order."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    with atomic_files([path]) as (fh,):
        fh.writelines(chunks)


def repr_rows(values) -> np.ndarray:
    """``repr`` of each value of a float64 array, byte for byte, as the
    rows of an (n, REPR_WIDTH) uint8 array: the text in bytes 0..23 with
    NULs around it, and byte TERMINATOR left for what follows the value
    (``join_rows`` fills it in).

    Values in [1e-4, 1) print as ``0.``, 0-3 zeros and the shortest digit
    string that reads back as the value, the nearest such one (Gay's
    correctly rounded shortest ``repr``).  They are formatted here in
    exact 64-bit integer arithmetic, as in Ryu (Adams 2018).  With
    x = m * 2**-s and t = 17 + zeros, y = x * 10**t = m * 5**t / 2**(s - t)
    is in [10**16, 10**17) and s - t <= 46, so q0 = fl(x * 10**t) (10**t
    is exact) is an even integer with |q0 - y| <= 8, and the remainder
    r = m * 5**t - q0 * 2**(s - t), |r| < 2**50, is exact in wrapping 64-bit
    arithmetic: q0 + (r >> (s - t)) is the 17-digit integer ``scaled``.
    The numbers that read back as x lie within half an ulp of it: in
    units of 10**-t the integers lo_end..hi_end.  The digits are those of
    the multiple of the largest power of ten 10**j in that range, the one
    nearer x, a tie going to the even one.  Every other value (0,
    negative, >= 1 or < 1e-4, NaN, inf: about 1e-4 of a uniform sample)
    gets ``repr`` itself.

    Two rules of the general algorithm change nothing in this range, so
    they are left out.  An end of the interval, (2m +- 1) / 2**(s + 1)
    with s >= 53, is never a decimal of 20 places or fewer, so whether the
    ends count never arises.  Below a power of two the lower half is a
    quarter ulp, but the powers of two here, 2**-1..2**-13, are short
    exact decimals with no other candidate near them.
    """
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    fast = (x >= 1e-4) & (x < 1.0)
    xs = np.where(fast, x, 0.5)
    bits = xs.view(np.uint64)
    m = (bits & _FRACTION) | (1 << 52)
    zeros = (xs < 0.1).view(np.int8) + (xs < 0.01).view(np.int8) + (xs < 0.001).view(np.int8)
    t = zeros + 17
    shift = 1075 - (bits >> 52) - t.astype(np.uint64)
    q0 = (xs * _TEN[t]).astype(np.int64)
    p5 = _POW5[t]
    r = (m * p5 - (q0.view(np.uint64) << shift)).view(np.int64)
    sh = shift.view(np.int64)
    scaled = q0 + (r >> sh)
    # the fraction and half an ulp (5**t / 2) in units of 2**-(shift + 2)
    rem = (r & ((1 << sh) - 1)) << 2
    half, sh = 2 * p5.view(np.int64), sh + 2
    lo_end = scaled - ((half - rem) >> sh)
    hi_end = scaled + ((half + rem) >> sh)
    # j: the largest power of ten with a multiple in lo_end..hi_end; few
    # values keep going past 10**2, so later passes look at those left only
    j = (hi_end // 10 * 10 >= lo_end).view(np.int8).astype(np.int64)
    left = np.flatnonzero(j)
    for k in range(2, 17):
        left = left[hi_end[left] // _POW10[k] * _POW10[k] >= lo_end[left]]
        if not left.size:
            break
        j[left] = k
    # the multiple below x or the one above, whichever lies in range and
    # nearer; both lie in range only for 10**j < 23, where the clip is void
    p10 = _POW10[j]
    q = scaled // p10
    below = q * p10
    excess = (np.clip(2 * (scaled - below) - p10, -31, 31) << sh) + 2 * rem
    up = (below + p10 <= hi_end) & ((below < lo_end) | (excess + (q & 1) > 0))
    digits = below + up * p10
    lead = digits // 10**16
    digits -= lead * 10**16
    high = digits // 10**8
    digits -= high * 10**8
    rows = np.empty((x.size, REPR_WIDTH), np.uint8)
    words, quads = rows.view(np.uint64), rows.view(np.uint32)
    words[:, 0] = _PREFIX[zeros * 10 + lead]
    # h // 10**4 as (h * 109951163) >> 40, exact for h < 10**8
    for col, h in ((2, high), (4, digits)):
        top = (h * 109951163) >> 40
        quads[:, col] = _DIGITS4[top]
        quads[:, col + 1] = _DIGITS4[h - top * 10**4]
    words[:, 1] &= _TAIL[0][j]
    words[:, 2] &= _TAIL[1][j]
    words[:, 3] = 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        rows[slow, :TERMINATOR] = repr_cells(x[slow])
    return rows


def repr_cells(values) -> np.ndarray:
    """``repr`` of each value of a float64 array, padded with NULs to
    TERMINATOR bytes (the longest ``repr`` of a float64), as the rows of
    an (n, TERMINATOR) uint8 array; one Python ``repr`` a value."""
    text = "".join([f"{v!r:\0<{TERMINATOR}}" for v in values.tolist()])
    return np.frombuffer(text.encode(), np.uint8).reshape(-1, TERMINATOR)


def join_rows(rows: np.ndarray, width: int = 1) -> str:
    """The text of ``repr_rows`` rows, ``width`` values a line: commas
    between the values of a line, a newline after each.  Writes the
    terminators into ``rows``."""
    rows[:, TERMINATOR] = ord(",")
    rows[width - 1::width, TERMINATOR] = ord("\n")
    return rows_text(rows)


def rows_text(rows: np.ndarray) -> str:
    """The ASCII text of NUL-padded uint8 rows: every byte but the NULs,
    row after row."""
    return rows[rows != 0].tobytes().decode("ascii")


def repr_text(values) -> str:
    """``"".join(repr(v) + "\\n" for v in values)`` for a float64 array,
    byte for byte."""
    return join_rows(repr_rows(values))


def sample_lines(sample: Sample):
    """The sample file's text in pieces: the provenance header line, then
    one decimal value per line, TEXT_BLOCK lines per piece."""
    yield f"{SAMPLE_HEADER_PREFIX} {sample.provenance}\n"
    values = sample.values
    for start in range(0, values.size, TEXT_BLOCK):
        yield repr_text(values[start:start + TEXT_BLOCK])


def save_sample(sample: Sample, path) -> None:
    """Write one decimal value per line, preceded by a provenance header."""
    atomic_write_text(path, sample_lines(sample))


def load_sample(path) -> Sample:
    """Read a sample file: one value per line, as ``float`` reads it.

    Blank lines and lines that start with '#' are skipped anywhere; the
    last provenance header names the sample.  The first line that is not
    one number raises ``path:line: not a number: '...'``, and the first
    whose value is not in [0, 1) ``path:line: outside [0, 1): '...'``.
    The file is read once, as UTF-8, READ_BLOCK characters at a time,
    into one array: see ``_read_lines`` for a block.
    """
    with open(path, encoding="utf-8") as fh:
        values, provenance = _read_file(fh, path)
    return Sample.adopt(values, provenance)


def _read_file(fh, path) -> tuple[np.ndarray, str]:
    """The values of an open sample file and the provenance of its last
    named header.

    The values go into one array.  When a block does not fit, the array
    grows in place (``resize``) by the block and the larger of two
    guesses: the rest of the file at that block's density and a sixteenth
    more, and an eighth of the values so far (for a file of unknown
    size).  At the end it shrinks in place to the values read.  A bad
    line raises ``path:line: ...``, numbered by the lines of the blocks
    before it; the rest of the file is still decoded first, so a byte
    that is not UTF-8 anywhere in it is the error raised.
    """
    size = os.fstat(fh.fileno()).st_size
    values, count, seen, lines, provenance = np.empty(0), 0, 0, 0, "external file"
    blocks = _line_blocks(fh)
    for data in blocks:
        seen += len(data)
        block, header, good, error = _read_lines(data)
        if error:
            for _ in blocks:
                pass
            raise ValueError(f"{path}:{lines + good + 1}: {error}")
        lines += good
        provenance = header or provenance
        if count + block.size > values.size:
            rest = (size - seen) * (block.size + 1) // len(data)
            values.resize(count + block.size + max(rest + rest // 16, count // 8), refcheck=False)
        values[count:count + block.size] = block
        count += block.size
    values.resize(count, refcheck=False)
    return values, provenance


def _line_blocks(fh):
    """The text of ``fh`` as UTF-8 in blocks of whole lines, each of
    READ_BLOCK characters or more (while a line goes on) and ending in a
    newline: the last line gets one if it has none.  The file is read as
    text, so a CR or CRLF line end is a newline here."""
    rest = b""
    while piece := fh.read(max(READ_BLOCK, len(rest))):
        data = rest + piece.encode()
        cut = data.rfind(b"\n") + 1
        rest = data[cut:]
        if cut:
            yield data[:cut]
    if rest:
        yield rest + b"\n"


def _read_lines(data: bytes) -> tuple[np.ndarray, str | None, int, str | None]:
    """The values of ``data``, whole lines of a sample file's text as
    UTF-8, the provenance of its last named header (None if none), the
    number of lines before its first bad line (all of them if none), and
    that line's error (None if none).

    Each line of at most READ_WIDTH bytes without a NUL becomes one row of
    ``_read_rows``: one unaligned load of the READ_WIDTH bytes from its
    start in the block, padded with NULs, with the bytes past its end
    masked to NUL.  Every other line that is not empty is looked at as
    text, stripped: a blank line or a comment holds no value, and the
    rest are read with ``float``, one at a time.  The first line of the
    block that is not one number, or whose value is not in [0, 1), is the
    bad line, whichever of the two reads it.
    """
    raw = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    length = ends - starts
    # item i of this view is bytes i..i+23 of the block, padded with NULs
    windows = np.ndarray((len(data),), f"V{READ_WIDTH}", data + bytes(READ_WIDTH), strides=(1,))
    rows = windows[starts].view(np.uint64)
    rows &= _KEEP[np.minimum(length, READ_WIDTH)].view(np.uint64)
    values = np.empty(ends.size)
    read = _read_rows(rows.view(np.uint8).reshape(-1, READ_WIDTH), values)
    read &= length <= READ_WIDTH
    if b"\0" in data:
        # the kernel reads a NUL as "0"
        read[np.searchsorted(ends, np.flatnonzero(raw == 0))] = False
    # a row the kernel reads is below 1 and leaves [0, 1) only by rounding
    # up to 1.0; the texts past the first such row need no look
    over = np.flatnonzero(read & (values == 1.0))
    header, bad, error = None, ends.size, None
    if over.size:
        bad = int(over[0])
        error = f"outside [0, 1): {data[starts[bad]:ends[bad]].decode()!r}"
    others = np.flatnonzero(~read & (length > 0))
    for i, start, end in zip(others.tolist(), starts[others].tolist(), ends[others].tolist()):
        if i > bad:
            break
        line = data[start:end].decode().strip()
        if line.startswith(SAMPLE_HEADER_PREFIX):
            header = line[len(SAMPLE_HEADER_PREFIX):].strip() or header
        elif line and not line.startswith("#"):
            try:
                value = float(line)
            except ValueError:
                bad, error = i, f"not a number: {line!r}"
                break
            if not 0.0 <= value < 1.0:
                bad, error = i, f"outside [0, 1): {line!r}"
                break
            values[i], read[i] = value, True
    return (values if read.all() else values[read]), header, bad, error


def _read_rows(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Read the texts of ``rows`` (n, READ_WIDTH) uint8, NUL-padded, into
    ``out`` exactly as ``float`` does, and say which it read.

    It reads the texts "0." + 1-22 digits with a value of at least 1e-4
    (a nonzero among the first four digits), the form of every ``repr``
    in [1e-4, 1).  Each other row reads False and its ``out`` is left
    undefined.  With a NUL read as "0", the 22 digits after "0." come
    eight at a time from the three 64-bit words of the row, and two
    multiplies make each eight one number (Lemire 2021): the head
    H = d1..d14 < 10**14 and c = d15..d22 < 10**8, the value
    v = (H * 10**8 + c) / 10**22.

    The candidate x0 is round(H / 10**14 + c / 10**22).  10**14 and
    10**22 are exact doubles, so the two quotients lie within u = 2**-53
    of their values and their sum w within u * v of v: less than the
    spacing of doubles at v, and less than half of it just above a power
    of two.  round(w) is then round(v) or a neighbour of it, so one
    correction step settles every row (Clinger 1990).

    With x0 = m * 2**-s (m the 53-bit significand), v lies above x0's
    upper midpoint (2m + 1) / 2**(s + 1) iff
    D = (H * 10**8 + c) * 2**(s - 21) - 2m * 5**22 > 5**22, and below its
    lower midpoint iff D < -5**22 (-5**22 / 2 when m = 2**52, where the
    double below is half as near).  Both products are near 2**100, but
    D = 2**(s + 1) * 5**22 * (v - x0) and |v - x0| < 1.5 * 2**-s, so
    |D| < 3 * 5**22 < 2**53 is exact in wrapping 64-bit arithmetic.  Ties
    cannot occur: v has at most 22 decimal places, and a midpoint below 1
    at least 54 binary places.
    """
    words = rows.view(np.uint64).T
    # (3, n): word j of every row, with "0" for each NUL byte (a line with
    # a NUL is not read here, so they are the bytes past the text) and the "."
    nonzero = (words & 0x7F7F7F7F7F7F7F7F) + 0x7F7F7F7F7F7F7F7F
    nonzero |= words
    digits = (~nonzero & 0x8080808080808080) >> 7
    digits *= 0x30
    digits |= words
    digits[0] ^= 0x1E00
    digits -= 0x3030303030303030
    # a byte above 9, or a borrow from one below "0", sets a high bit
    bad = digits + 0x7676767676767676
    bad |= digits
    bad = (bad[0] | bad[1] | bad[2]) & 0x8080808080808080
    digits = digits * 10 + (digits >> 8)
    digits = ((digits & 0x000000FF000000FF) * (100 + (10**6 << 32))
              + ((digits >> 16) & 0x000000FF000000FF) * (1 + (10**4 << 32))) >> 32
    lead, middle, c = digits
    head = lead * 10**8 + middle
    np.add(head / 1e14, c / 1e22, out=out)
    bits = out.view(np.uint64)
    fraction = bits & _FRACTION
    scaled = (head * 10**8 + c) << (1054 - (bits >> 52))
    d = (scaled - ((fraction | (1 << 52)) << 1) * _POW5_22).view(np.int64)
    bits += d > _POW5_22
    bits -= -d > _POW5_22 >> (fraction == 0)
    # "0." is read as the digits "00", so lead < 10**6; and v >= 1e-4
    return (bad == 0) & (lead >= 100) & (lead < 10**6)
