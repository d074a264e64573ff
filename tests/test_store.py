import re
import stat
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from coldsim import store
from coldsim.store import (MAGIC, VERSION, export_tsv, load_table, save_table,
                           write_atomic)


class TestWriteAtomic:
    def test_text_is_written_as_utf8_verbatim(self, tmp_path):
        write_atomic(tmp_path / "t.txt", "old")
        write_atomic(tmp_path / "t.txt", "café\r\n")
        assert (tmp_path / "t.txt").read_bytes() == "café\r\n".encode("utf-8")

    def test_failed_replace_keeps_old_file_and_no_temp(self, tmp_path,
                                                       monkeypatch):
        path = tmp_path / "a.json"
        write_atomic(path, b"old\n")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(store.os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_atomic(path, b"new\n")
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        with open(tmp_path / "plain", "w"):
            pass
        write_atomic(tmp_path / "atomic", b"x")
        mode = lambda name: stat.S_IMODE((tmp_path / name).stat().st_mode)
        assert mode("atomic") == mode("plain")


class TestBinaryTable:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        table = rng.normal(size=(13, 7)).astype(np.float32)
        save_table(tmp_path / "t.cemb", table)
        assert np.array_equal(load_table(tmp_path / "t.cemb", (None, None)), table)

    def test_header_layout(self, tmp_path):
        save_table(tmp_path / "t.cemb", np.zeros((3, 5), dtype=np.float32))
        raw = (tmp_path / "t.cemb").read_bytes()
        magic, version, rows, dim = struct.unpack("<4sIII", raw[:16])
        assert magic == MAGIC == b"CEMB"
        assert version == VERSION
        assert (rows, dim) == (3, 5)
        assert len(raw) == 16 + 3 * 5 * 4

    def test_empty_table(self, tmp_path):
        save_table(tmp_path / "t.cemb", np.zeros((0, 4)))
        assert load_table(tmp_path / "t.cemb", (None, None)).shape == (0, 4)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.cemb"
        save_table(path, np.ones((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_table(path, (None, None))

    def test_other_version_rejected(self, tmp_path):
        path = tmp_path / "t.cemb"
        save_table(path, np.ones((2, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", VERSION + 1) + raw[8:])
        with pytest.raises(ValueError,
                           match=f": unsupported version {VERSION + 1}$"):
            load_table(path, (None, None))

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.cemb"
        save_table(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_table(path, (None, None))

    def test_bytes_after_payload_rejected(self, tmp_path):
        # a header that under-counts its rows
        path = tmp_path / "t.cemb"
        save_table(path, np.ones((3, 4)))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: bytes after the payload")):
            load_table(path, (None, None))

    @pytest.mark.parametrize("shape,fits", [
        ((3, 4), True), ((None, 4), True), ((3, None), True),
        ((None, None), True), ((2, 4), False), ((3, 5), False),
        ((None, 3), False), ((4, None), False)])
    def test_shape_checked_from_the_header(self, tmp_path, shape, fits):
        # the header is compared before the payload is read, so a table
        # cut short reports its shape, not its truncation
        path = tmp_path / "t.cemb"
        save_table(path, np.ones((3, 4)))
        need = ", ".join("any" if n is None else str(n) for n in shape)
        error = re.escape(f"{path}: table shape (3, 4) where ({need}) is "
                          f"needed; it is stale or from another run")
        if fits:
            assert load_table(path, shape).shape == (3, 4)
            error = re.escape(f"{path}: truncated payload")
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match=f"^{error}$"):
            load_table(path, shape)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_table(tmp_path / "t.cemb", np.ones(5))

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e300])
    def test_non_finite_rejected_before_writing(self, tmp_path, value):
        # 1e300 is finite in float64 but not in float32
        table = np.ones((4, 3))
        table[2, 1], table[3, 0] = value, value
        path = tmp_path / "t.cemb"
        with pytest.raises(ValueError, match=rf"t\.cemb: row 2 is not finite"):
            save_table(path, table)
        assert list(tmp_path.iterdir()) == []

    def test_float64_input_truncates_deterministically(self, tmp_path):
        table = np.full((2, 2), 1 / 3)
        save_table(tmp_path / "a.cemb", table)
        save_table(tmp_path / "b.cemb", table)
        assert (tmp_path / "a.cemb").read_bytes() == \
            (tmp_path / "b.cemb").read_bytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), shape=st.tuples(st.integers(0, 6), st.integers(1, 6)))
    def test_round_trip_and_damaged_payloads(self, tmp_path, data, shape):
        # every finite float32 comes back bit for bit, signed zeros too; a
        # payload cut short or run long is rejected
        table = data.draw(hnp.arrays(np.float32, shape, elements=st.floats(
            width=32, allow_nan=False, allow_infinity=False)))
        path = tmp_path / "t.cemb"
        save_table(path, table)
        raw = path.read_bytes()
        assert load_table(path, (None, None)).tobytes() == table.astype("<f4").tobytes()
        cut = data.draw(st.integers(1, len(raw)))
        path.write_bytes(raw[:-cut])
        with pytest.raises(ValueError, match="truncated"):
            load_table(path, (None, None))
        path.write_bytes(raw + bytes(data.draw(st.integers(1, 8))))
        with pytest.raises(ValueError, match="bytes after the payload"):
            load_table(path, (None, None))


class TestTsvExport:
    def test_layout(self, tmp_path):
        export_tsv(tmp_path / "t.tsv", np.array([[1.5, -2.0], [0.0, 3.25]]))
        lines = (tmp_path / "t.tsv").read_text().splitlines()
        assert lines[0] == "0\t1.5 -2"
        assert lines[1].startswith("1\t0 3.25")
