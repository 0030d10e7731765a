"""Container format and raster type tests.

The hand-built container bytes below are assembled independently of the
writer, directly from the documented byte layout, so reader and writer are
checked against the format rather than against each other.
"""

import json
import struct

import numpy as np
import pytest

from sardist.errors import FormatError, ShapeError, ValidationError
from sardist.raster import (BinaryDelineation, DistributionEstimate,
                            DisturbanceMap, RasterStack, read_array,
                            read_delineation, read_mask, read_metric_map,
                            read_stack, write_delineation,
                            write_mask, write_metric_map, write_stack)


def _hand_container(shape, timestamps, pol_names, payload, extra=None):
    header = {
        "shape": list(shape),
        "dtype": "f32le",
        "order": "TCHW",
        "timestamps": timestamps,
        "pol_names": pol_names,
    }
    if extra:
        header.update(extra)
    hdr = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"RTS0" + struct.pack("<I", len(hdr)) + hdr + payload


def _stack(t=3, h=16, w=16, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.01, 0.5, size=(t, 2, h, w)).astype(np.float32)
    stamps = [f"2024-01-{d:02d}" for d in range(1, t + 1)]
    return RasterStack(values, stamps)


class TestHandBuiltContainer:
    def test_reader_accepts_hand_built_file(self, tmp_path):
        shape = (2, 2, 8, 8)
        values = np.arange(np.prod(shape), dtype="<f4").reshape(shape) / 1000.0
        blob = _hand_container(shape, ["2024-01-01", "2024-01-13"],
                               ["VV", "VH"], values.tobytes())
        path = tmp_path / "hand.rts"
        path.write_bytes(blob)
        got, header = read_array(str(path))
        assert got.shape == shape
        assert np.array_equal(got, values)
        assert header["timestamps"] == ["2024-01-01", "2024-01-13"]

    def test_writer_emits_exact_hand_built_bytes(self, tmp_path):
        stack = _stack(t=2, h=4, w=4)
        path = tmp_path / "w.rts"
        write_stack(stack, str(path))
        expect = _hand_container((2, 2, 4, 4), stack.timestamps,
                                 list(stack.pol_names),
                                 stack.values.astype("<f4").tobytes())
        assert path.read_bytes() == expect

    def test_payload_longer_than_declared_rejected(self, tmp_path):
        shape = (2, 2, 8, 8)
        payload = b"\x00" * (2 * 2 * 8 * 8 * 4 + 4)
        blob = _hand_container(shape, ["a", "b"], ["VV", "VH"], payload)
        path = tmp_path / "long.rts"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_array(str(path))

    def test_payload_shorter_than_declared_rejected(self, tmp_path):
        shape = (2, 2, 8, 8)
        blob = _hand_container(shape, ["a", "b"], ["VV", "VH"], b"\x00" * 100)
        path = tmp_path / "short.rts"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_array(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rts"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FormatError):
            read_array(str(path))

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "trunc.rts"
        path.write_bytes(b"RTS0" + struct.pack("<I", 500) + b"{}")
        with pytest.raises(FormatError):
            read_array(str(path))

    def test_missing_header_key_rejected(self, tmp_path):
        header = json.dumps({"shape": [1, 1, 2, 2], "dtype": "f32le",
                             "order": "TCHW", "timestamps": ["a"]}).encode()
        blob = b"RTS0" + struct.pack("<I", len(header)) + header + b"\x00" * 16
        path = tmp_path / "nokey.rts"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_array(str(path))

    def test_wrong_dtype_tag_rejected(self, tmp_path):
        values = np.zeros((1, 1, 2, 2), dtype="<f4")
        blob = _hand_container((1, 1, 2, 2), ["a"], ["m"], values.tobytes())
        blob = blob.replace(b"f32le", b"f64le")
        path = tmp_path / "dtype.rts"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_array(str(path))

    def test_timestamp_count_mismatch_rejected(self, tmp_path):
        values = np.zeros((2, 1, 2, 2), dtype="<f4")
        blob = _hand_container((2, 1, 2, 2), ["only-one"], ["m"], values.tobytes())
        path = tmp_path / "stamps.rts"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_array(str(path))


class TestStackRoundtrip:
    def test_roundtrip_bit_exact(self, tmp_path):
        stack = _stack()
        path = tmp_path / "s.rts"
        write_stack(stack, str(path))
        back = read_stack(str(path))
        assert np.array_equal(
            back.values.view(np.uint32), stack.values.view(np.uint32))
        assert back.timestamps == stack.timestamps
        assert back.pol_names == stack.pol_names

    def test_write_deterministic(self, tmp_path):
        stack = _stack()
        a, b = tmp_path / "a.rts", tmp_path / "b.rts"
        write_stack(stack, str(a))
        write_stack(stack, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_out_of_range_value_rejected_on_write(self, tmp_path):
        values = np.full((2, 2, 4, 4), 0.25, dtype=np.float32)
        values[0, 0, 0, 0] = 1.5
        with pytest.raises(ValidationError):
            RasterStack(values, ["a", "b"])

    def test_allow_raw_reads_out_of_range(self, tmp_path):
        values = np.full((2, 2, 4, 4), 2.0, dtype="<f4")
        blob = _hand_container((2, 2, 4, 4), ["a", "b"], ["VV", "VH"],
                               values.tobytes())
        path = tmp_path / "raw.rts"
        path.write_bytes(blob)
        with pytest.raises(ValidationError):
            read_stack(str(path))
        stack = read_stack(str(path), allow_raw=True)
        assert float(stack.values.max()) == 2.0

    def test_nan_rejected_even_with_allow_raw(self, tmp_path):
        values = np.full((2, 2, 4, 4), np.nan, dtype="<f4")
        blob = _hand_container((2, 2, 4, 4), ["a", "b"], ["VV", "VH"],
                               values.tobytes())
        path = tmp_path / "nan.rts"
        path.write_bytes(blob)
        with pytest.raises(ValidationError):
            read_stack(str(path), allow_raw=True)


class TestStackValidation:
    def test_single_frame_rejected(self):
        with pytest.raises(ValidationError):
            RasterStack(np.full((1, 2, 4, 4), 0.1, np.float32), ["a"])

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(ShapeError):
            RasterStack(np.full((2, 3, 4, 4), 0.1, np.float32), ["a", "b"])

    def test_nonincreasing_timestamps_rejected(self):
        values = np.full((2, 2, 4, 4), 0.1, np.float32)
        with pytest.raises(ValidationError):
            RasterStack(values, ["2024-01-02", "2024-01-01"])
        with pytest.raises(ValidationError):
            RasterStack(values, ["2024-01-01", "2024-01-01"])

    def test_boundary_values_rejected(self):
        values = np.full((2, 2, 4, 4), 0.1, np.float32)
        values[0, 0, 0, 0] = 0.0
        with pytest.raises(ValidationError):
            RasterStack(values, ["a", "b"])
        values[0, 0, 0, 0] = 1.0
        with pytest.raises(ValidationError):
            RasterStack(values, ["a", "b"])


class TestTypedWrappers:
    def test_mask_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        mask = rng.random((12, 9)) > 0.7
        path = tmp_path / "m.rts"
        write_mask(mask, str(path))
        assert np.array_equal(read_mask(str(path)), mask)

    def test_mask_rejects_fractional_values(self, tmp_path):
        values = np.full((1, 1, 4, 4), 0.5, dtype="<f4")
        blob = _hand_container((1, 1, 4, 4), ["mask"], ["mask"], values.tobytes())
        path = tmp_path / "frac.rts"
        path.write_bytes(blob)
        with pytest.raises(ValidationError):
            read_mask(str(path))

    def test_metric_map_roundtrip_units(self, tmp_path):
        dmap = DisturbanceMap(np.abs(np.random.default_rng(2).normal(
            size=(8, 8))).astype(np.float32), "standard_deviations")
        path = tmp_path / "d.rts"
        write_metric_map(dmap, str(path))
        back = read_metric_map(str(path))
        assert back.units == "standard_deviations"
        assert np.array_equal(back.values, dmap.values)

    def test_metric_map_missing_units_rejected(self, tmp_path):
        values = np.zeros((1, 1, 4, 4), dtype="<f4")
        blob = _hand_container((1, 1, 4, 4), ["metric"], ["metric"],
                               values.tobytes())
        path = tmp_path / "nounits.rts"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_metric_map(str(path))

    def test_metric_map_bad_units_rejected(self):
        with pytest.raises(ValidationError):
            DisturbanceMap(np.zeros((4, 4), np.float32), "furlongs")

    def test_delineation_roundtrip(self, tmp_path):
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:4, 1:5] = True
        path = tmp_path / "del.rts"
        write_delineation(BinaryDelineation(mask, 3.0), str(path))
        back = read_delineation(str(path))
        assert np.array_equal(back.mask, mask)
        assert back.threshold == 3.0

    def test_estimate_validation(self):
        mu = np.zeros((2, 4, 4), np.float32)
        sigma = np.ones((2, 4, 4), np.float32)
        DistributionEstimate(mu, sigma)
        with pytest.raises(ValidationError):
            DistributionEstimate(mu, np.zeros_like(sigma))
        with pytest.raises(ShapeError):
            DistributionEstimate(mu, sigma[:1])

