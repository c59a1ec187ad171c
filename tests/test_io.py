"""Tests for the temp-and-rename writer behind every file the tools write,
for the vectorised ``repr`` that writes sample files and cloud CSVs, and
for the exact reader of sample files."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import whole_file_load_sample
from rngaudit import io
from rngaudit.generators import Sample, make_generator
from rngaudit.io import (READ_WIDTH, TEXT_BLOCK, _read_rows, atomic_files, atomic_write_text,
                         join_rows, load_sample, repr_rows, repr_text, sample_lines, save_sample)


def _temp_files(directory):
    return [p for p in os.listdir(directory) if p.startswith(".rngaudit-tmp-")]


class TestAtomicFiles:
    def test_writes_every_file(self, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        with atomic_files(paths) as (a, b):
            a.write("one\n")
            b.write("two\n")
            # nothing reaches a target before the block ends
            assert sorted(os.listdir(tmp_path)) == sorted(_temp_files(tmp_path))
        assert [p.read_text() for p in paths] == ["one\n", "two\n"]
        assert _temp_files(tmp_path) == []

    def test_error_while_writing_keeps_old_targets(self, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for p in paths:
            p.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_files(paths) as (a, b):
                a.write("new\n")
                raise RuntimeError("stop")
        assert [p.read_text() for p in paths] == ["old\n", "old\n"]
        assert _temp_files(tmp_path) == []

    def test_failed_rename_leaves_no_temp_files(self, tmp_path):
        (tmp_path / "b.txt").mkdir()
        with pytest.raises(OSError):
            with atomic_files([tmp_path / "a.txt", tmp_path / "b.txt"]) as (a, b):
                a.write("a\n")
                b.write("b\n")
        assert (tmp_path / "a.txt").read_text() == "a\n"  # renamed whole, before b failed
        assert _temp_files(tmp_path) == []

    def test_missing_directory_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with atomic_files([tmp_path / "a.txt", tmp_path / "no" / "b.txt"]):
                pass
        assert os.listdir(tmp_path) == []

    def test_writes_without_setting_the_umask(self, tmp_path, monkeypatch):
        # setting the umask, if only to read it, changes it for every thread
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        atomic_write_text(tmp_path / "s.txt", "text\n")
        assert (tmp_path / "s.txt").read_text() == "text\n"
        assert _temp_files(tmp_path) == []

    def test_existing_temp_name_is_left_alone(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "urandom", bytes)
        taken = tmp_path / (".rngaudit-tmp-" + bytes(8).hex())
        taken.write_text("not ours\n", encoding="utf-8")
        with pytest.raises(FileExistsError):
            atomic_write_text(tmp_path / "s.txt", "text\n")
        assert taken.read_text() == "not ours\n"
        assert not (tmp_path / "s.txt").exists()

    def test_text_from_one_string_or_pieces(self, tmp_path):
        atomic_write_text(tmp_path / "s.txt", "whole\n")
        atomic_write_text(tmp_path / "p.txt", iter(["a", "b\n"]))
        assert (tmp_path / "s.txt").read_text() == "whole\n"
        assert (tmp_path / "p.txt").read_text() == "ab\n"
        assert _temp_files(tmp_path) == []


# ---------------------------------------------------------------------------
# repr_text against CPython's repr, one value at a time


def per_value_repr(values) -> str:
    """The reference: what the sample writer did before repr_text."""
    return "".join([f"{v!r}\n" for v in np.asarray(values, np.float64).tolist()])


def assert_repr_text(values, block=1 << 16):
    values = np.asarray(values, np.float64).reshape(-1)
    for start in range(0, values.size, block):
        part = values[start:start + block]
        got, want = repr_text(part), per_value_repr(part)
        if got != want:
            # the first differing value, not a diff of megabytes of text
            bad = next(((v, g, w) for v, g, w in
                        zip(part.tolist(), got.split("\n"), want.split("\n")) if g != w),
                       ("a line count", got.count("\n"), want.count("\n")))
            pytest.fail(f"repr_text gives {bad[1]!r} for {bad[0]!r}, repr {bad[2]!r}")


def bit_patterns(lo, hi, size, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi, size=size, dtype=np.uint64, endpoint=True).view(np.float64)


class TestReprText:
    def test_dyadic_grid(self):
        # every k / 2**20: the grid where rounding ties and short digit
        # strings are dense
        assert_repr_text(np.arange(1 << 20) / 2.0**20)

    def test_sample_file_of_the_coarser_grid(self):
        values = np.arange(1 << 18) / 2.0**18
        sample = make_generator("lcg:m=262144,a=1,c=1,seed=0").sample(1 << 18)
        assert np.array_equal(np.sort(sample.values), values)
        text = "".join(sample_lines(sample)).partition("\n")[2]
        assert text == per_value_repr(sample.values)

    @pytest.mark.parametrize("descriptor", ["mt:seed=5489", "lcg:m=2147483647,a=16807,c=0,seed=1",
                                            "wh:seed1=1,seed2=2,seed3=3"])
    def test_first_values_of_each_generator_family(self, descriptor):
        assert_repr_text(make_generator(descriptor).generate(1 << 20))

    def test_random_bit_patterns(self):
        inside = (np.float64(1e-4).view(np.uint64), np.float64(1.0).view(np.uint64) - 1)
        assert_repr_text(bit_patterns(*inside, 1 << 20, seed=1))
        # everywhere, mostly outside [1e-4, 1): the fallback, in the same blocks
        assert_repr_text(bit_patterns(0, 2**64 - 1, 1 << 18, seed=2))

    @pytest.mark.parametrize("edge", [1e-4, 1e-3, 0.01, 0.1, 1.0])
    def test_neighbours_of_the_decimal_edges(self, edge):
        # where the count of zeros after "0." changes, and where the fast
        # range ends; 2000 floats on either side
        bits = np.float64(edge).view(np.uint64) + np.arange(-2000, 2001).astype(np.uint64)
        assert_repr_text(bits.view(np.float64))

    def test_ends_of_binades_and_near_decimal_edges(self):
        # the seed fl(x * 10**t) is off by up to 8 where x * 10**t nears
        # 10**17, just below each decimal edge, and each binade has its own
        # shift s - t: the first and last 2**10 significands of every binade
        # from 2**-14 to 2**-1, and 64 ulps either side of each edge
        ends = np.concatenate([np.arange(1 << 10), np.arange((1 << 52) - (1 << 10), 1 << 52)])
        binades = [np.float64(2.0**b).view(np.uint64) + ends.astype(np.uint64)
                   for b in range(-14, 0)]
        edges = [np.float64(e).view(np.uint64) + np.arange(-64, 65).astype(np.uint64)
                 for e in (0.1, 0.01, 0.001, 1e-4, 1 - 2.0**-53)]
        assert_repr_text(np.concatenate(binades + edges).view(np.float64))

    def test_powers_of_two_and_short_decimals(self):
        assert_repr_text(2.0 ** -np.arange(1075))
        assert_repr_text([k / 10**d for d in range(1, 9) for k in range(1, min(10**d, 10**4))])
        assert_repr_text([1 - 2.0**-53, 0.1 + 2**-56, 1e-4 * (1 + 2**-52)])

    def test_values_outside_the_fast_range(self):
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                   -2.2250738585072014e-308, 9.999999999999999e-05, -0.5, 1.0, 1.5, 1e16,
                   1.7976931348623157e308, 0.25]
        assert_repr_text(special)
        assert_repr_text(np.array([]))
        assert repr_text(np.array([])) == ""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40)
           | st.lists(st.floats(1e-4, 1.0, exclude_max=True).map(
               lambda f: int(np.float64(f).view(np.uint64))), max_size=40))
    def test_any_bit_patterns(self, patterns):
        assert_repr_text(np.array(patterns, dtype=np.uint64).view(np.float64))

    def test_rows_join_into_comma_separated_lines(self):
        values = np.array([[0.5, -0.0, 0.125], [np.nan, 1e-05, 0.3]])
        rows = repr_rows(values)
        assert rows.shape == (6, 32)
        assert join_rows(rows, 3) == "0.5,-0.0,0.125\nnan,1e-05,0.3\n"
        assert join_rows(repr_rows(values[:, :1])) == "0.5\nnan\n"

    def test_sample_lines_come_in_text_blocks(self):
        sample = make_generator("mt:seed=2").sample(2 * TEXT_BLOCK + 5)
        pieces = list(sample_lines(sample))
        assert pieces[0] == "# rngaudit-sample v1 mt:seed=2\n"
        assert [p.count("\n") for p in pieces[1:]] == [TEXT_BLOCK, TEXT_BLOCK, 5]
        assert "".join(pieces[1:]) == per_value_repr(sample.values)


# ---------------------------------------------------------------------------
# load_sample against float(), one value at a time


def assert_round_trip(values, path):
    """load_sample(save_sample(values)) gives back every bit of values."""
    values = np.asarray(values, np.float64)
    save_sample(Sample(values), path)
    back = load_sample(path).values
    assert back.shape == values.shape
    bad = np.flatnonzero(back.view(np.uint64) != values.view(np.uint64))
    if bad.size:
        pytest.fail(f"{values[bad[0]]!r} reads back as {back[bad[0]]!r}")


def assert_reads_as_float(texts, path):
    """A file of these value texts reads as float() of each."""
    path.write_text("".join(f"{t}\n" for t in texts), encoding="utf-8")
    want = np.array([float(t) for t in texts])
    got = load_sample(path).values
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    if bad.size:
        pytest.fail(f"{texts[bad[0]]!r} reads as {got[bad[0]]!r}, float() gives {want[bad[0]]!r}")


def random_decimals(size, seed, digits=(1, 20)):
    """Texts "0." and 1-20 random digits (not shortest reprs) below 1 as a double."""
    rng = np.random.default_rng(seed)
    texts = ["0." + "".join(map(str, rng.integers(0, 10, n)))
             for n in rng.integers(digits[0], digits[1] + 1, size)]
    return [t for t in texts if float(t) < 1.0]


class TestLoadSample:
    def test_dyadic_grid(self, tmp_path):
        assert_round_trip(np.arange(1 << 20) / 2.0**20, tmp_path / "s.txt")

    @pytest.mark.parametrize("descriptor", ["mt:seed=5489", "lcg:m=2147483647,a=16807,c=0,seed=1",
                                            "wh:seed1=1,seed2=2,seed3=3"])
    def test_values_of_each_generator_family(self, descriptor, tmp_path):
        assert_round_trip(make_generator(descriptor).generate(1 << 20), tmp_path / "s.txt")

    def test_random_bit_patterns(self, tmp_path):
        below_one = np.float64(1.0).view(np.uint64) - 1
        inside = bit_patterns(np.float64(1e-4).view(np.uint64), below_one, 1 << 20, seed=3)
        assert_round_trip(inside, tmp_path / "in.txt")
        # mostly far below 1e-4, which float reads, in the same file as the
        # values the exact kernel reads
        assert_round_trip(bit_patterns(0, below_one, 1 << 18, seed=4), tmp_path / "all.txt")

    def test_neighbours_of_the_decimal_edges_and_powers_of_two(self, tmp_path):
        # 2000 doubles on either side of each, those below 1
        edges = np.array([1e-4, 1e-3, 0.01, 0.1, 1.0, *2.0 ** -np.arange(1, 14)])
        bits = edges.view(np.uint64)[:, None] + np.arange(-2000, 2001).astype(np.uint64)
        values = bits.view(np.float64).reshape(-1)
        assert_round_trip(values[values < 1.0], tmp_path / "s.txt")

    def test_non_shortest_decimals(self, tmp_path):
        assert_reads_as_float(random_decimals(1 << 16, seed=5), tmp_path / "s.txt")
        # 17-20 digits, where most texts lie between two doubles
        assert_reads_as_float(random_decimals(1 << 16, seed=6, digits=(17, 20)), tmp_path / "t.txt")

    def test_decimals_next_to_midpoints(self, tmp_path):
        # the 20-place decimals just below, at and above the midpoint between
        # a double and the next, rounded: each is read on its side of it
        rng = np.random.default_rng(7)
        bits = rng.integers(np.float64(1e-4).view(np.uint64), np.float64(1.0).view(np.uint64) - 1,
                            4000, dtype=np.uint64)
        bits = np.concatenate([bits, (2.0 ** -np.arange(1, 14)).view(np.uint64)])
        texts = []
        for lo, hi in zip(bits.view(np.float64).tolist(), (bits + 1).view(np.float64).tolist()):
            mid = (Decimal(lo) + Decimal(hi)) / 2
            below = (Decimal(lo) + Decimal(np.nextafter(lo, 0))) / 2
            for point in (mid, below):
                q = point.quantize(Decimal("1e-20"))
                texts += [f"{q + k * Decimal('1e-20'):.20f}" for k in (-1, 0, 1)]
        assert_reads_as_float(texts, tmp_path / "s.txt")

    @settings(max_examples=200, deadline=None)
    @given(st.text("0123456789", min_size=1, max_size=21).filter(lambda d: float("0." + d) < 1))
    def test_any_digit_string(self, tmp_path_factory, digits):
        path = tmp_path_factory.mktemp("digits") / "s.txt"
        assert_reads_as_float(["0." + digits, "0.5"], path)

    def test_the_kernel_reads_every_repr_from_1e_4_to_1(self):
        x = np.concatenate([[1e-4, np.nextafter(1.0, 0), 0.5, 0.1],
                            np.random.default_rng(21).uniform(1e-4, 1, TEXT_BLOCK)])
        rows = np.array([repr(v).encode() for v in x.tolist()], f"S{READ_WIDTH}")
        out = np.empty(x.size)
        assert _read_rows(rows.view(np.uint8).reshape(-1, READ_WIDTH), out).all()
        assert out.view(np.uint64).tolist() == x.view(np.uint64).tolist()

    def test_other_texts_go_to_float(self, tmp_path):
        assert_reads_as_float(["0.5", "5.3e-05", "0.0", "0.", "0.00001", "1e-4", ".25", "0.25e0",
                               "+0.5", "0.99999999999999994", "00.5", "0.123456789012345678901",
                               "2.5e-1", "0.1234567e-1", "0.12345678901234e-3", "0.12345e+0"],
                              tmp_path / "s.txt")

    def test_a_text_longer_than_a_row(self, tmp_path):
        # a line longer than a row is read by float, as is every line the
        # kernel does not read
        long = "0.12345678901234567890123456789"
        assert len(long) > READ_WIDTH
        assert_reads_as_float(["0.5", long, "0.25"], tmp_path / "s.txt")
        assert_reads_as_float(["0.5", long[:READ_WIDTH]], tmp_path / "t.txt")

    def test_lines_end_in_cr_lf_or_crlf(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"# rngaudit-sample v1 mt:seed=1\r0.5\r\n0.25\n# rngaudit-sample v1 \r0.75")
        sample = load_sample(path)
        assert sample.values.tolist() == [0.5, 0.25, 0.75]
        assert sample.provenance == "mt:seed=1"

    @pytest.mark.parametrize("line", ["0.5\u00e9", "0.5\u20ac", "0.5\x00", "0.5\x001", "\x00",
                                      "0.1234567890:", "0.12345678901234/5", "0.25\x01"])
    def test_non_ascii_nul_or_non_digit_line_is_named(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"# rngaudit-sample v1 mt:seed=1\n0.25\n{line}\n0.5\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_sample(path)
        assert str(exc.value) == f"{path}:3: not a number: {line!r}"

    @pytest.mark.parametrize("line", ["0.99999999999999999", "1.0", "-0.25", "nan", "-inf"])
    def test_a_value_outside_0_1_is_named(self, tmp_path, line):
        # 0.99999999999999999 is a valid text that rounds up to 1.0
        path = tmp_path / "bad.txt"
        path.write_text(f"# rngaudit-sample v1 mt:seed=1\n0.25\n\n{line}\n0.5\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_sample(path)
        assert str(exc.value) == f"{path}:4: outside [0, 1): {line!r}"

    def test_inline_comment_after_a_cr_line_end(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0.25\r0.5 # note\r")
        with pytest.raises(ValueError, match=r":2: not a number: '0\.5 # note'"):
            load_sample(path)

    @pytest.mark.parametrize("data", [b"# note \xff\n0.5\n", b"0.25\n0.5\xff\n",
                                      b"0.25\n\xff0.5\n", b"0.25\n0.5\n\xa0\n"])
    def test_a_byte_that_is_not_utf8_is_a_decode_error(self, tmp_path, data):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError):
            load_sample(path)

    def test_the_grammar_is_floats(self, tmp_path):
        # numpy's parser rejected these, and named no line of the file
        path = tmp_path / "s.txt"
        path.write_text("# rngaudit-sample v1 x\n0.5\n 0.25\n5e-05\n0.2_5\n", encoding="utf-8")
        assert load_sample(path).values.tolist() == [0.5, 0.25, 5e-05, 0.25]
        path.write_text("# rngaudit-sample v1 x\n0.5\n 0.25\n5e-05\n0.2_5x\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_sample(path)
        assert str(exc.value) == f"{path}:5: not a number: '0.2_5x'"
        assert_reads_as_float(["\u0660.\u0665", "\uff10.\uff15", "1_0e-5", "0.5"],
                              tmp_path / "t.txt")

    def test_an_error_opens_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n0.25\nx\n0.125\n", encoding="utf-8")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open, raising=False)
        with pytest.raises(ValueError, match=r":3: not a number: 'x'$"):
            load_sample(path)
        assert opened == [path]

    def test_reads_and_writes_utf8_in_the_c_locale(self, tmp_path):
        # in the C locale, without UTF-8 mode, open() defaults to ASCII
        (tmp_path / "in.txt").write_bytes("# caf\u00e9 \u20ac\n0.5\n".encode())
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from rngaudit.generators import Sample\n"
             "from rngaudit.io import load_sample, save_sample\n"
             "print(load_sample(sys.argv[1]).values.tolist())\n"
             "save_sample(Sample([0.25], provenance='caf\\u00e9'), sys.argv[2])\n",
             str(tmp_path / "in.txt"), str(tmp_path / "out.txt")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0.5]"
        written = (tmp_path / "out.txt").read_bytes()
        assert written == "# rngaudit-sample v1 caf\u00e9\n0.25\n".encode()

    def test_reads_without_the_numpy_2_strings_namespace(self, tmp_path, monkeypatch):
        # the reader uses nothing of numpy.strings: a file of three text
        # blocks still reads back bit for bit with the namespace gone
        x = np.random.default_rng(20).random(3 * TEXT_BLOCK)
        path = tmp_path / "s.txt"
        save_sample(Sample(x, provenance="t"), path)
        monkeypatch.setattr(np, "strings", None, raising=False)
        assert load_sample(path).values.view(np.uint64).tolist() == x.view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# load_sample in small blocks against the whole-file reader


def outcome(load, path):
    """The values' bits and the provenance that ``load`` gives, or its error."""
    try:
        sample = load(path)
    except UnicodeDecodeError:
        return "UnicodeDecodeError"  # the byte offset it names depends on how text is read
    except ValueError as exc:
        return str(exc)
    return sample.values.view(np.uint64).tolist(), sample.provenance


def assert_reads_as_the_whole_file(data, path, monkeypatch, sizes=range(1, 41)):
    """With READ_BLOCK at each of ``sizes``, every line of ``data`` starts
    or ends across a block boundary at each offset; every one gives what
    the whole-file reader gives."""
    path.write_bytes(data)
    want = outcome(whole_file_load_sample, path)
    for size in sizes:
        monkeypatch.setattr(io, "READ_BLOCK", size)
        assert outcome(load_sample, path) == want, f"READ_BLOCK = {size}"
    return want


HEADER = b"# rngaudit-sample v1 mt:seed=1\n"
LONG = b"0.12345678901234567890123456789"


class TestReadInBlocks:
    @pytest.mark.parametrize("data", [
        HEADER + b"0.5\n0.123456789\n0.25\n0.0001\n0.99999999999999989\n",
        HEADER + b" 0.5 \n\t0.25\n\n   \n5.3e-05\n0.\n0.0\n",
        b"0.5\r\n0.25\r\n0.125\r\n\r\n0.75\r\n",
        b"0.5\r0.25\r\r0.125\r",
        b"0.5\n" + LONG + b"\n0.25\n" + LONG[:READ_WIDTH] + b"\n" + LONG[:READ_WIDTH - 1] + b"\n",
        b"# \xc3\xa9 note \xe2\x82\xac\n0.5\n# \x00 a NUL in a comment\n0.25\n",
        b"0.5\n0.25",
        b"# rngaudit-sample v1 mt:seed=3\n",
        b"# rngaudit-sample v1 mt:seed=3",
        b"",
        b"\n\n  \n",
    ], ids=["values", "spaces-blanks-others", "crlf", "cr", "long", "non-ascii-comment",
            "no-final-newline", "header-only", "header-only-no-newline", "empty", "blank"])
    def test_reads_as_the_whole_file(self, data, tmp_path, monkeypatch):
        assert not isinstance(assert_reads_as_the_whole_file(data, tmp_path / "s.txt", monkeypatch),
                              str)

    def test_the_last_header_wins_in_a_later_block(self, tmp_path, monkeypatch):
        data = (b"# rngaudit-sample v1 first\n0.5\n0.25\n# rngaudit-sample v1 second\n0.75\n"
                b"# rngaudit-sample v1 \n# a plain comment\n  # rngaudit-sample v1   \n0.125\n")
        values, provenance = assert_reads_as_the_whole_file(data, tmp_path / "s.txt", monkeypatch)
        assert provenance == "second"
        assert len(values) == 4

    @pytest.mark.parametrize("line", [b"0.25 # note", b"0.2\x005", b"\x00", b"0.5\xc3\xa9",
                                      b"0.5 0.25", b"1.0", b"-0.25", b"nan", LONG + b"x",
                                      b"0.1234567890123456789012x"])
    def test_a_bad_line_gives_the_same_error(self, line, tmp_path, monkeypatch):
        data = HEADER + b"0.5\n0.25\n" + line + b"\n0.125\n"
        error = assert_reads_as_the_whole_file(data, tmp_path / "s.txt", monkeypatch)
        assert error.startswith(f"{tmp_path / 's.txt'}:4: ")

    def test_a_later_byte_that_is_not_utf8_wins_over_a_bad_line(self, tmp_path, monkeypatch):
        # past the text layer's first 8192 bytes, which the bad line's search decodes
        data = b"0.5\n0.25 # note\n" + b"0.125\n" * 2000 + b"\xff\n"
        error = assert_reads_as_the_whole_file(data, tmp_path / "s.txt", monkeypatch, (1, 7, 64))
        assert error == "UnicodeDecodeError"

    def test_a_crlf_split_across_the_text_decoders_chunks(self, tmp_path, monkeypatch):
        # the text layer decodes 8192 bytes at a time: put a CR last in one
        lines = b"0.5\n" * 2047 + b"0.2\r\n0.25\r\n"
        assert lines[8191:8193] == b"\r\n"
        values, _ = assert_reads_as_the_whole_file(lines, tmp_path / "s.txt", monkeypatch,
                                                   (7, 64, 1 << 17))
        assert len(values) == 2049

    @settings(max_examples=150, deadline=None)
    @given(pieces=st.lists(st.sampled_from(
               ["0.5", "0.25", "0.1234567890123456789012", LONG.decode(), "5e-05", "0.", "1.0",
                " ", "\t", "#", "# rngaudit-sample v1 ", "x", "\x00", "\u00e9", "\r", "\n",
                "\r\n", "\n", "\n"]), max_size=30),
           size=st.integers(1, 48))
    def test_any_file_reads_as_the_whole_file(self, tmp_path_factory, pieces, size):
        path = tmp_path_factory.mktemp("blocks") / "s.txt"
        mp = pytest.MonkeyPatch()
        try:
            assert_reads_as_the_whole_file("".join(pieces).encode(), path, mp, (size,))
        finally:
            mp.undo()

    @pytest.mark.parametrize("first, second, error", [
        ("0.99999999999999999", "x", "outside [0, 1): '0.99999999999999999'"),
        ("x", "0.99999999999999999", "not a number: 'x'"),
        ("1.5", "0.99999999999999999", "outside [0, 1): '1.5'"),
        ("0.99999999999999999", "nan", "outside [0, 1): '0.99999999999999999'"),
    ], ids=["kernel-then-text", "text-then-kernel", "outside-then-kernel", "kernel-then-nan"])
    def test_the_first_bad_line_of_a_block_wins(self, first, second, error, tmp_path):
        # the kernel reads 0.99999999999999999 and rounds it up to 1.0
        path = tmp_path / "bad.txt"
        path.write_text(f"# rngaudit-sample v1 x\n0.5\n{first}\n0.25\n{second}\n0.125\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_sample(path)
        assert str(exc.value) == f"{path}:3: {error}"

    @pytest.mark.parametrize("size", [None, 64])
    @pytest.mark.parametrize("line", ["x", "0.99999999999999999", "-0.5"])
    def test_a_bad_line_in_a_later_block_names_its_line(self, line, size, tmp_path, monkeypatch):
        # 30 000 lines of about 20 characters, several blocks of the default
        # size; line 1 is the header, so the bad one is line 20 001
        if size:
            monkeypatch.setattr(io, "READ_BLOCK", size)
        values = make_generator("mt:seed=4").generate(30000)
        lines = [f"{v!r}" for v in values.tolist()]
        lines[19999] = line
        path = tmp_path / "bad.txt"
        path.write_text("# rngaudit-sample v1 x\n" + "\n".join(lines) + "\n", encoding="utf-8")
        assert path.stat().st_size > 2 * io.READ_BLOCK
        with pytest.raises(ValueError) as exc:
            load_sample(path)
        kind = "not a number" if line == "x" else "outside [0, 1)"
        assert str(exc.value) == f"{path}:20001: {kind}: {line!r}"

    @pytest.mark.parametrize("size", [None, 3, 64])
    @pytest.mark.parametrize("line, kind", [("0.2_5x", "not a number"),
                                            ("0.99999999999999999", "outside [0, 1)")])
    def test_a_bad_last_line_without_a_final_newline(self, line, kind, size, tmp_path,
                                                      monkeypatch):
        if size:
            monkeypatch.setattr(io, "READ_BLOCK", size)
        path = tmp_path / "bad.txt"
        path.write_text(f"0.5\n\n0.25\n{line}", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            load_sample(path)
        assert str(exc.value) == f"{path}:4: {kind}: {line!r}"

    def test_holds_the_values_and_a_block(self, tmp_path):
        n = 1 << 20
        path = tmp_path / "s.txt"
        save_sample(make_generator("mt:seed=3").sample(n), path)
        tracemalloc.start()
        try:
            sample = load_sample(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sample) == n
        # 8 bytes a value, a sixteenth more until the array is shrunk, and the
        # work arrays of one READ_BLOCK
        assert peak < 8 * n + 4 * 2**20
