"""Float PFM and 8-bit PGM round trips."""

import re

import numpy as np
import pytest

from evdepth.imgio import read_pfm, read_pgm, write_pfm, write_pgm


class TestPfm:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(7, 5)).astype(np.float32)
        img[0, 0] = -1.0     # sentinel value survives
        path = tmp_path / "depth.pfm"
        write_pfm(path, img)
        out = read_pfm(path)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, img)

    def test_rows_stored_bottom_up(self, tmp_path):
        img = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        path = tmp_path / "img.pfm"
        write_pfm(path, img)
        raw = path.read_bytes()
        # header: magic, dims, scale; payload starts with the last row
        payload = raw.split(b"\n", 3)[3]
        np.testing.assert_array_equal(
            np.frombuffer(payload[:8], dtype="<f4"), [3.0, 4.0])

    @pytest.mark.parametrize("scale, nan", [(b"-1.0", b"\x00\x00\x81\x7f"),
                                            (b"1.0", b"\x7f\x81\x00\x00")],
                             ids=["little", "big"])
    def test_signalling_nan_is_quieted(self, tmp_path, scale, nan):
        # widening a signalling NaN raises "invalid value encountered in cast"
        path = tmp_path / "snan.pfm"
        path.write_bytes(b"Pf\n2 1\n" + scale + b"\n" + nan + b"\x00" * 4)
        out = read_pfm(path).astype(np.float64)
        assert np.isnan(out[0, 0]) and out[0, 1] == 0.0

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pfm(tmp_path / "x.pfm", np.zeros((2, 2, 3)))

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"PF\n2 2\n-1.0\n" + b"\x00" * 48)
        with pytest.raises(ValueError):
            read_pfm(path)

    def test_truncated_payload_names_path(self, tmp_path):
        path = tmp_path / "short.pfm"
        write_pfm(path, np.ones((3, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated"):
            read_pfm(path)

    def test_float64_input_downcast(self, tmp_path):
        img = np.array([[0.1, 0.2]], dtype=np.float64)
        path = tmp_path / "img.pfm"
        write_pfm(path, img)
        np.testing.assert_array_equal(read_pfm(path),
                                      img.astype(np.float32))


class TestPgm:
    def test_round_trip_uint8(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_levels_written_as_given(self, tmp_path):
        # no normalisation: a float or int image keeps its grey levels
        path = tmp_path / "img.pgm"
        write_pgm(path, np.array([[0.0, 64.0, 128.0]]))
        np.testing.assert_array_equal(read_pgm(path), [[0, 64, 128]])
        write_pgm(path, np.array([[0, 128, 255]], dtype=np.int64))
        np.testing.assert_array_equal(read_pgm(path), [[0, 128, 255]])

    @pytest.mark.parametrize("value", [-1, 256, 300, 12.5, np.nan],
                             ids=["negative", "256", "300", "fraction", "nan"])
    def test_rejects_values_that_are_not_levels(self, tmp_path, value):
        path = tmp_path / "img.pgm"
        with pytest.raises(ValueError, match="grey levels"):
            write_pgm(path, np.array([[0.0, value]]))
        assert not path.exists()

    def test_rejects_non_2d(self, tmp_path):
        path = tmp_path / "img.pgm"
        with pytest.raises(ValueError, match=r"^expected a 2-D image, got "
                                             r"shape \(2, 2, 3\)$"):
            write_pgm(path, np.zeros((2, 2, 3)))
        assert not path.exists()

    def test_all_zero_image(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((2, 2)))
        assert not read_pgm(path).any()

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(ValueError):
            read_pgm(path)

    @pytest.mark.parametrize("header", [
        b"P5\nx 2\n255\n", b"P5\n\n255\n", b"P5\n# note\n2\n255\n",
        b"P5\n2 2\nff\n", b"P5\n2 2\n\n", b"P5\n2 2\n65535\n",
        b"P5\n2 2\n0\n"],
        ids=["size_text", "size_empty", "size_one", "maxval_text",
             "maxval_empty", "maxval_16bit", "maxval_zero"])
    def test_bad_header_names_path(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + b"\x00" * 4)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad"):
            read_pgm(path)

    def test_truncated_payload_names_path(self, tmp_path):
        path = tmp_path / "short.pgm"
        write_pgm(path, np.ones((3, 4)))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated"):
            read_pgm(path)


@pytest.mark.parametrize("size", [b"100000000 100000000", b"4000000000 4000000000"],
                         ids=["memory", "overflow"])
@pytest.mark.parametrize("read, header", [
    (read_pfm, b"Pf\n%s\n-1.0\n"), (read_pgm, b"P5\n%s\n255\n")],
    ids=["pfm", "pgm"])
def test_size_beyond_the_file_is_truncated(tmp_path, read, header, size):
    # the payload is not read, so a huge size line cannot exhaust memory
    path = tmp_path / "huge"
    path.write_bytes(header % size + b"\x00" * 16)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated "
                                         f".* payload: 16 of "):
        read(path)
