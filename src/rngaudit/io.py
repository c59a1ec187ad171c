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
import tempfile
import warnings

import numpy as np

from .generators import Sample

__all__ = [
    "atomic_files",
    "atomic_write_text",
    "sample_lines",
    "save_sample",
    "load_sample",
]

SAMPLE_HEADER_PREFIX = "# rngaudit-sample v1"
# Text writers convert this many values to Python floats at a time; a
# whole large array at once would hold a second copy of it next to its lines.
TEXT_BLOCK = 1 << 12
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
    # mkstemp makes every file 0600; the umask can only be read by setting it
    umask = os.umask(0)
    os.umask(umask)
    try:
        for path in paths:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=_TMP_PREFIX)
            temps.append(tmp)
            handles.append(os.fdopen(fd, "w"))
            os.chmod(tmp, 0o666 & ~umask)
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


def sample_lines(sample: Sample):
    """The sample file's text in pieces: the provenance header line, then
    one decimal value per line, TEXT_BLOCK lines per piece."""
    yield f"{SAMPLE_HEADER_PREFIX} {sample.provenance}\n"
    values = sample.values
    for start in range(0, values.size, TEXT_BLOCK):
        yield "".join([f"{v!r}\n" for v in values[start:start + TEXT_BLOCK].tolist()])


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
