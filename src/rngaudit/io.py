"""Text files written whole or not at all, and the sample file format.

Every file the tools write goes through ``atomic_files``: the text goes
to a temporary file beside its target, which is renamed onto the target
only once all of it is written, so a reader never sees half a file.
Large files are written in pieces of ``TEXT_BLOCK`` lines, so none has
to exist as one string.

A sample file is one decimal value per line (``repr``, so it round-trips
exactly) after a provenance header line.  ``load_sample`` reads it back
exactly, TEXT_BLOCK values at a time.
"""

from __future__ import annotations

import contextlib
import os
import warnings

import numpy as np

from .generators import Sample

__all__ = [
    "atomic_files",
    "atomic_write_text",
    "repr_rows",
    "join_rows",
    "repr_text",
    "sample_lines",
    "save_sample",
    "load_sample",
]

SAMPLE_HEADER_PREFIX = "# rngaudit-sample v1"
# Text writers format, and load_sample reads, this many lines at a time; a
# whole large array at once would hold its text and the work arrays beside it.
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
# the four ASCII digits of 0..9999, each as the uint32 word it fills in a row
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    axis=-1).reshape(-1, 4).view(np.uint32)[:, 0]
# the first word of a row: NULs, "0.", 0-3 zeros and the leading digit
_PREFIX = np.frombuffer("".join(f"{'0.' + '0' * z + str(d):\0>8}" for z in range(4)
                                for d in range(10)).encode(), np.uint64)
# masks of the two words of a row's last 16 digits that clear the last j
_TAIL = np.frombuffer(b"".join(b"\xff" * (16 - j) + b"\0" * j for j in range(17)),
                      np.uint64).reshape(17, 2).T
# load_sample: numpy cuts each value's text into a row of READ_WIDTH bytes,
# the text part of a repr_rows row; they are read TEXT_BLOCK rows at a time.
READ_WIDTH = TERMINATOR
# load_sample scans the file for comments in pieces of this many characters
SCAN_BLOCK = 1 << 16
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
    file, and no temporary file is left behind.
    """
    paths = [os.fspath(p) for p in paths]
    temps, handles, renamed = [], [], 0
    try:
        for path in paths:
            tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                               _TMP_PREFIX + os.urandom(8).hex())
            # "x" creates the file (O_EXCL), so a name that exists is an error
            handles.append(open(tmp, "x"))
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
    x = m * 2**-s and t = 17 + zeros, x * 10**t = m * 5**t / 2**(s - t):
    a 17-digit integer ``scaled`` and a remainder, from one 128-bit
    product.  The numbers that read back as x lie within half an ulp of
    it: in units of 10**-t the integers lo_end..hi_end.  The digits are
    those of the multiple of the largest power of ten 10**j in that range,
    the one nearer x, a tie going to the even one.  Every other value (0,
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
    # m * 5**t < 2**100 as hi * 2**64 + lo, from 32-bit halves
    p5 = _POW5[t]
    mh, ml, ph, pl = m >> 32, m & 0xFFFFFFFF, p5 >> 32, p5 & 0xFFFFFFFF
    cross = mh * pl + ml * ph
    low = ml * pl
    lo = low + (cross << 32)
    hi = mh * ph + (cross >> 32) + (lo < low)
    scaled = ((hi << (64 - shift)) | (lo >> shift)).view(np.int64)
    # the remainder and half an ulp (5**t / 2) in units of 2**-(shift + 2)
    rem = (lo & ((np.uint64(1) << shift) - 1)).view(np.int64) << 2
    half, sh = 2 * p5.view(np.int64), shift.view(np.int64) + 2
    lo_end = scaled - ((half - rem) >> sh)
    hi_end = scaled + ((half + rem) >> sh)
    # j: the largest power of ten with a multiple in lo_end..hi_end; few
    # values keep going past 10**2, so each pass looks at those left only
    j = np.zeros(scaled.size, np.int64)
    left = np.arange(scaled.size)
    for k in range(1, 17):
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
    rows = np.empty((x.size, REPR_WIDTH), np.uint8)
    words, quads = rows.view(np.uint64), rows.view(np.uint32)
    words[:, 0] = _PREFIX[zeros * 10 + lead]
    for col, scale in zip(range(2, 6), (10**12, 10**8, 10**4, 1)):
        quads[:, col] = _DIGITS4[digits // scale % 10**4]
    words[:, 1] &= _TAIL[0][j]
    words[:, 2] &= _TAIL[1][j]
    words[:, 3] = 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join([f"{v!r:\0<{TERMINATOR}}" for v in x[slow].tolist()])
        rows[slow, :TERMINATOR] = np.frombuffer(text.encode(), np.uint8).reshape(-1, TERMINATOR)
    return rows


def join_rows(rows: np.ndarray, width: int = 1) -> str:
    """The text of ``repr_rows`` rows, ``width`` values a line: commas
    between the values of a line, a newline after each.  Writes the
    terminators into ``rows``."""
    rows[:, TERMINATOR] = ord(",")
    rows[width - 1::width, TERMINATOR] = ord("\n")
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
    """Read a sample file: one value per line.

    Blank lines and lines that start with '#' are skipped anywhere; the
    last provenance header names the sample.  A line that is not one
    number raises ``path:line: not a number: '...'``, and one whose value
    is not in [0, 1) ``path:line: outside [0, 1): '...'``.  numpy cuts the
    values into fixed-width rows and ``_read_rows`` reads them exactly;
    what it does not take goes through numpy's float parser.
    """
    provenance, inline_comment, nul = _scan(path)
    try:
        if inline_comment:
            raise ValueError("a '#' inside a value line")
        return Sample(_load_values(path, nul), provenance=provenance)
    except ValueError as exc:
        raise ValueError(_bad_line(path) or f"{path}: {exc}") from None


def _scan(path) -> tuple[str, bool, bool]:
    """The provenance of a file's last named header, whether a '#' follows
    other text on its line, and whether the file holds a NUL character.

    The file is read as text, SCAN_BLOCK characters at a time (more while
    a line goes on), and cut after its last newline: a string of the whole
    file, once freed, would make the allocator keep later large arrays on
    its heap.
    """
    provenance, inline, nul = "external file", False, False
    with open(path) as fh:
        rest = ""
        while True:
            piece = fh.read(max(SCAN_BLOCK, len(rest)))
            text = rest + piece
            cut = text.rfind("\n") + 1 if piece else len(text)
            text, rest = text[:cut], text[cut:]
            nul |= "\0" in text
            at = text.find("#")
            while at >= 0:
                head = text[text.rfind("\n", 0, at) + 1:at]
                inline |= bool(head) and not head.isspace()
                end = text.find("\n", at)
                comment = text[at:len(text) if end < 0 else end]
                tail = comment[len(SAMPLE_HEADER_PREFIX):].strip()
                if comment.startswith(SAMPLE_HEADER_PREFIX) and tail:
                    provenance = tail
                at = -1 if end < 0 else text.find("#", end)
            if not piece:
                return provenance, inline, nul


def _load_values(path, nul: bool) -> np.ndarray:
    """The values of a sample file, as ``np.loadtxt`` reads them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a file without values
        # a NUL ends a text early in its row: numpy's float parser reads that file
        rows = np.loadtxt(path, dtype=np.float64 if nul else f"S{READ_WIDTH}",
                          comments="#", ndmin=2)
        if rows.shape[1] > 1:
            raise ValueError("more than one value on a line")
        if not nul and rows.view(np.uint8)[:, -1].any():
            del rows  # a text that fills its row may have been cut
            rows = np.loadtxt(path, dtype=np.float64, comments="#", ndmin=2)
    if rows.dtype == np.float64:
        return rows[:, 0]
    rows = rows.view(np.uint8)
    values = np.empty(rows.shape[0])
    read = np.empty(rows.shape[0], bool)
    for start in range(0, rows.shape[0], TEXT_BLOCK):
        block = slice(start, start + TEXT_BLOCK)
        read[block] = _read_rows(rows[block], values[block])
    others = np.flatnonzero(~read)
    if others.size:
        # numpy stored each character of these texts as one byte
        texts = [t.decode("latin-1") for t in rows[others].view(f"S{READ_WIDTH}")[:, 0].tolist()]
        values[others] = np.loadtxt(texts, dtype=np.float64, ndmin=1)
    return values


def _read_rows(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Read the texts of ``rows`` (n, READ_WIDTH) uint8, NUL-padded, into
    ``out`` exactly as ``float`` does, and say which it read.

    It reads the texts "0." + 1-21 digits with a value of at least 1e-4
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
    cannot occur: v has at most 21 decimal places, and a midpoint below 1
    at least 54 binary places.
    """
    words = rows.view(np.uint64).T
    # (3, n): word j of every row, with "0" for each NUL byte (the file has
    # none, so they are the bytes past the text) and for the "."
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


def _bad_line(path) -> str | None:
    """The error for the first line of the file that is neither blank, a
    comment nor a number in [0, 1), if there is one."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    value = float(line)
                except ValueError:
                    return f"{path}:{lineno}: not a number: {line!r}"
                if not 0.0 <= value < 1.0:
                    return f"{path}:{lineno}: outside [0, 1): {line!r}"
    return None
