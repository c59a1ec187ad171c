"""Text files written whole or not at all, and the sample file format.

Every file the tools write goes through ``atomic_files``: the text goes
to a temporary file beside its target, which is renamed onto the target
only once all of it is written, so a reader never sees half a file.
Large files are written in pieces of ``TEXT_BLOCK`` lines, so none has
to exist as one string.

A sample file is one decimal value per line (``repr``, so it round-trips
exactly) after a provenance header line.
"""

from __future__ import annotations

import contextlib
import os
import re
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
# Text writers format this many lines at a time; a whole large array at
# once would hold its text and the formatter's work arrays beside it.
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
    """Read a sample file: one value per line, parsed by numpy in one pass.

    Blank lines and lines that start with '#' are skipped anywhere; the
    last provenance header names the sample.  A line that is not one
    number raises ``path:line: not a number: '...'``.
    """
    provenance = "external file"
    inline_comment = False
    with open(path) as fh:
        text = fh.read()
    for match in re.finditer(r"#.*", text):
        head = text[text.rfind("\n", 0, match.start()) + 1:match.start()]
        inline_comment |= bool(head) and not head.isspace()
        tail = match[0][len(SAMPLE_HEADER_PREFIX):].strip()
        if match[0].startswith(SAMPLE_HEADER_PREFIX) and tail:
            provenance = tail
    del text  # numpy reads the file itself, in chunks
    try:
        if inline_comment:
            raise ValueError("a '#' inside a value line")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without values
            values = np.loadtxt(path, dtype=np.float64, comments="#", ndmin=2)
        if values.shape[1] > 1:
            raise ValueError("more than one value on a line")
    except ValueError as exc:
        raise ValueError(_bad_line(path) or f"{path}: {exc}") from None
    return Sample(values[:, 0], provenance=provenance)


def _bad_line(path) -> str | None:
    """The error for the first line of the file that is neither blank, a
    comment nor a number, if there is one."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    float(line)
                except ValueError:
                    return f"{path}:{lineno}: not a number: {line!r}"
    return None
