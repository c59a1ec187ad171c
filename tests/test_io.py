"""Tests for the temp-and-rename writer behind every file the tools write."""

from __future__ import annotations

import os

import pytest

from rngaudit.io import atomic_files, atomic_write_text


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
            p.write_text("old\n")
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

    def test_text_from_one_string_or_pieces(self, tmp_path):
        atomic_write_text(tmp_path / "s.txt", "whole\n")
        atomic_write_text(tmp_path / "p.txt", iter(["a", "b\n"]))
        assert (tmp_path / "s.txt").read_text() == "whole\n"
        assert (tmp_path / "p.txt").read_text() == "ab\n"
        assert _temp_files(tmp_path) == []
