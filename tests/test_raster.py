"""Container format and raster type tests.

The hand-built container bytes below are assembled independently of the
writer, directly from the documented byte layout, so reader and writer are
checked against the format rather than against each other.
"""

import json
import os
import struct

import numpy as np
import pytest

from sardist.errors import FormatError, ShapeError, ValidationError
from sardist.model import Model, ModelConfig, save_checkpoint
from sardist.raster import (BinaryDelineation, DistributionEstimate,
                            DisturbanceMap, RasterStack, read_array, read_container,
                            read_delineation, read_estimate, read_json, read_mask,
                            read_metric_map, read_stack, write_array, write_container,
                            write_delineation, write_estimate, write_file, write_json,
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

    def test_deeply_nested_header_rejected(self, tmp_path):
        # json.loads raised a bare RecursionError, which escaped the CLI as a traceback
        path = tmp_path / "deep.rts"
        path.write_bytes(b"RTS0" + struct.pack("<I", 200_000) + b"[" * 200_000)
        with pytest.raises(FormatError, match="unreadable header"):
            read_array(str(path))
        (tmp_path / "deep.json").write_bytes(b"[" * 200_000)
        with pytest.raises(FormatError, match="not valid UTF-8 JSON"):
            read_json(str(tmp_path / "deep.json"))

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


class TestContainerReader:
    def test_read_stack_peaks_near_one_stack(self, tmp_path):
        # the reader used to hold the file's bytes, a payload slice and a copy: 3.0 stacks
        import tracemalloc

        stack = _stack(t=11, h=128, w=128)
        path = str(tmp_path / "s.rts")
        write_stack(stack, path)
        tracemalloc.start()
        try:
            back = read_stack(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, stack.values)
        assert peak <= 1.5 * stack.values.nbytes, peak / stack.values.nbytes

    def test_payload_size_checked_before_the_read(self, tmp_path):
        # a header that declares a huge payload fails on the file size, allocating nothing
        blob = _hand_container((1 << 14, 2, 1 << 12, 1 << 12), ["a"] * (1 << 14),
                               ["VV", "VH"], bytes(64))
        path = tmp_path / "huge.rts"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"payload is 64 bytes, expected 2199023255552$"):
            read_array(str(path))

    def test_shape_whose_int64_product_wraps_rejected(self, tmp_path):
        # 2**62 * 4 wrapped to 0 values, so an empty payload passed the size check
        # and the reshape raised a bare ValueError
        path = tmp_path / "wrap.rts"
        path.write_bytes(_hand_container((1, 1 << 62, 4, 1), ["a"], ["VV", "VH"], b""))
        with pytest.raises(FormatError, match=r"payload is 0 bytes, expected 7378697629483820646"):
            read_array(str(path))

    def test_stacks_and_checkpoints_share_the_framing(self, tmp_path):
        save_checkpoint(_tiny_model(0), str(tmp_path))
        path = str(tmp_path / "weights.bin")
        header, values = read_container(path, lambda header: _tiny_model(0).parameter_count())
        assert header["version"] == 2 and values.dtype == np.dtype("<f4")
        with pytest.raises(FormatError, match=r"weights\.bin: header missing key 'shape'$"):
            read_array(path)
        write_container(str(tmp_path / "x.rts"), {"kind": "test"}, [np.zeros(2, "<f4")])
        with pytest.raises(FormatError, match=r"x\.rts: payload is 8 bytes, expected 12$"):
            read_container(str(tmp_path / "x.rts"), lambda header: 3)


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


    @pytest.mark.parametrize("timestamps, pol_names", [
        (["2024-03-01", "2024-01-01", "2024-01-01"], ["VV", "VH"]),
        (["2024-01-01", "2024-01-13", "2024-01-25"], ["VV", "VH", "HH"]),
    ], ids=["unordered-timestamps", "three-pol-names"])
    def test_allow_raw_skips_only_the_range_check(self, tmp_path, timestamps, pol_names):
        values = np.full((3, 2, 4, 4), 0.25, dtype="<f4")
        path = tmp_path / "bad.rts"
        path.write_bytes(_hand_container(values.shape, timestamps, pol_names,
                                         values.tobytes()))
        for allow_raw in (False, True):
            with pytest.raises(ValidationError, match="bad.rts"):
                read_stack(str(path), allow_raw=allow_raw)


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

    def test_metric_map_legacy_decibels_tag_refused_naming_the_file(self, tmp_path):
        # log-ratio maps were once tagged "decibels"; such a map is made again, not read
        values = np.full((1, 1, 4, 4), 0.5, dtype=np.float32)
        path = str(tmp_path / "legacy.rts")
        write_array(path, values, ["metric"], ("metric",), extra={"units": "decibels"})
        with pytest.raises(ValidationError) as refused:
            read_metric_map(path)
        assert str(refused.value).startswith(f"{path}: unknown units 'decibels'")
        assert "\n" not in str(refused.value)

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

    @pytest.mark.parametrize("threshold", ["abc", [3.0], True])
    def test_delineation_non_numeric_threshold_rejected(self, tmp_path, threshold):
        values = np.zeros((1, 1, 4, 4), dtype="<f4")
        blob = _hand_container((1, 1, 4, 4), ["mask"], ["mask"], values.tobytes(),
                               {"threshold": threshold})
        path = tmp_path / "del.rts"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="del.rts"):
            read_delineation(str(path))

    def test_delineation_threshold_past_float_range_rejected(self, tmp_path):
        # a JSON integer past float range passed the number check, then float()
        # raised a bare OverflowError
        blob = _hand_container((1, 1, 4, 4), ["mask"], ["mask"], bytes(64),
                               {"threshold": 10 ** 400})
        assert b'"threshold":1' + b"0" * 400 + b"," in blob
        path = tmp_path / "del.rts"
        path.write_bytes(blob)
        with pytest.raises(FormatError,
                           match=r"del\.rts: delineation threshold must be a number in float"):
            read_delineation(str(path))

    @pytest.mark.parametrize("kind, content, message", [
        ("metric map", -1.0, "metric map values must be >= 0"),
        ("delineation", 0.0, "threshold must be finite and > 0, got 0.0"),
        ("estimate", np.nan, "mu contains non-finite values"),
    ])
    def test_content_error_names_the_file(self, tmp_path, kind, content, message):
        # the types' own checks do not know the file; only read_stack used to name it
        path = str(tmp_path / "bad.rts")
        if kind == "metric map":
            write_array(path, np.full((1, 1, 4, 4), content), ["metric"], ("metric",),
                        extra={"units": "standard_deviations"})
            read, paths = read_metric_map, (path,)
        elif kind == "delineation":
            write_array(path, np.zeros((1, 1, 4, 4)), ["mask"], ("mask",),
                        extra={"threshold": content})
            read, paths = read_delineation, (path,)
        else:
            write_array(path, np.full((1, 2, 4, 4), content), ["2024-01-25"],
                        extra={"units": "logit", "source": "", "pair": ""})
            sigma = str(tmp_path / "sigma.rts")
            write_array(sigma, np.ones((1, 2, 4, 4)), ["2024-01-25"],
                        extra={"units": "logit", "source": "", "pair": ""})
            read, paths = read_estimate, (path, sigma)
        with pytest.raises(ValidationError) as info:
            read(*paths)
        assert str(info.value) == f"{', '.join(paths)}: {message}"

    def test_estimate_validation(self):
        mu = np.zeros((2, 4, 4), np.float32)
        sigma = np.ones((2, 4, 4), np.float32)
        DistributionEstimate(mu, sigma)
        with pytest.raises(ValidationError):
            DistributionEstimate(mu, np.zeros_like(sigma))
        with pytest.raises(ShapeError):
            DistributionEstimate(mu, sigma[:1])

    def test_estimate_roundtrip_keeps_timestamp(self, tmp_path):
        est = DistributionEstimate(np.zeros((2, 4, 4)), np.ones((2, 4, 4)),
                                   timestamp="2024-01-25", source="ab" * 32)
        mu, sigma = str(tmp_path / "mu.rts"), str(tmp_path / "sigma.rts")
        write_estimate(est, mu, sigma)
        back = read_estimate(mu, sigma)
        assert back.timestamp == "2024-01-25"
        assert back.source == "ab" * 32
        for path in (mu, sigma):
            assert read_array(path)[1]["source"] == "ab" * 32
        np.testing.assert_array_equal(back.mu, est.mu)
        np.testing.assert_array_equal(back.sigma, est.sigma)

    def test_estimate_pair_with_different_timestamps_rejected(self, tmp_path):
        paths = [str(tmp_path / n) for n in ("mu_a", "sigma_a", "mu_b", "sigma_b")]
        for (mu, sigma), timestamp in ((paths[:2], "2024-01-13"),
                                       (paths[2:], "2024-01-25")):
            write_estimate(DistributionEstimate(np.zeros((2, 4, 4)), np.ones((2, 4, 4)),
                                                timestamp=timestamp), mu, sigma)
        with pytest.raises(FormatError, match="2024-01-13"):
            read_estimate(paths[0], paths[3])

    def test_estimate_pair_with_different_sources_rejected(self, tmp_path):
        paths = [str(tmp_path / n) for n in ("mu_a", "sigma_a", "mu_b", "sigma_b")]
        for (mu, sigma), source in ((paths[:2], "a" * 64), (paths[2:], "b" * 64)):
            write_estimate(DistributionEstimate(np.zeros((2, 4, 4)), np.ones((2, 4, 4)),
                                                timestamp="2024-01-25", source=source), mu, sigma)
        with pytest.raises(FormatError, match="disagree.*'aaaa.*'bbbb"):
            read_estimate(paths[0], paths[3])

    @pytest.mark.parametrize("which", [0, 1])
    def test_estimate_header_without_source_rejected(self, tmp_path, which):
        # an estimate written before the source key must be made again
        paths = [str(tmp_path / "mu.rts"), str(tmp_path / "sigma.rts")]
        for i, path in enumerate(paths):
            extra = {"units": "logit", "pair": ""} | ({} if i == which else {"source": ""})
            write_array(path, np.ones((1, 2, 4, 4)), ["2024-01-25"], extra=extra)
        with pytest.raises(FormatError, match=r"estimate header missing 'source'$"):
            read_estimate(*paths)

    @pytest.mark.parametrize("which", [0, 1])
    def test_estimate_header_without_pair_rejected(self, tmp_path, which):
        # an estimate written before the pair key must be made again
        paths = [str(tmp_path / "mu.rts"), str(tmp_path / "sigma.rts")]
        for i, path in enumerate(paths):
            extra = {"units": "logit", "source": ""} | ({} if i == which else {"pair": ""})
            write_array(path, np.ones((1, 2, 4, 4)), ["2024-01-25"], extra=extra)
        with pytest.raises(FormatError, match=r"estimate header missing 'pair'$"):
            read_estimate(*paths)

    def test_estimate_source_must_be_a_string(self, tmp_path):
        paths = [str(tmp_path / "mu.rts"), str(tmp_path / "sigma.rts")]
        for path in paths:
            write_array(path, np.ones((1, 2, 4, 4)), ["2024-01-25"],
                        extra={"units": "logit", "source": 7, "pair": ""})
        with pytest.raises(FormatError, match="'source' is not a string"):
            read_estimate(*paths)

    def test_estimate_pair_is_the_digest_of_both_payloads(self, tmp_path):
        import hashlib

        est = DistributionEstimate(np.zeros((2, 4, 4)), np.full((2, 4, 4), 0.5))
        mu, sigma = str(tmp_path / "mu.rts"), str(tmp_path / "sigma.rts")
        write_estimate(est, mu, sigma)
        expect = hashlib.sha256(np.zeros(32, "<f4").tobytes()
                                + np.full(32, 0.5, "<f4").tobytes()).hexdigest()
        assert read_array(mu)[1]["pair"] == read_array(sigma)[1]["pair"] == expect

    @pytest.mark.parametrize("swap", ["mu", "sigma"])
    def test_estimate_files_of_two_forecasts_of_one_stack_rejected(self, tmp_path, swap):
        # same frames, same timestamp and source: only the pair tells the files apart
        paths = {}
        for run, scale in (("a", 1.0), ("b", 2.0)):
            paths[run] = str(tmp_path / f"mu_{run}.rts"), str(tmp_path / f"sigma_{run}.rts")
            values = np.full((2, 4, 4), scale)
            write_estimate(DistributionEstimate(values, values, timestamp="2024-01-25",
                                                source="c" * 64), *paths[run])
        mu, sigma = (paths["b"][0], paths["a"][1]) if swap == "mu" else \
            (paths["a"][0], paths["b"][1])
        with pytest.raises(FormatError) as info:
            read_estimate(mu, sigma)
        assert str(info.value) == f"{mu}, {sigma}: mu and sigma are not one estimate's pair"
        read_estimate(*paths["a"])
        read_estimate(*paths["b"])


def _tiny_model(seed):
    return Model(ModelConfig(input_size=2, patch_size=1, d_model=4, num_heads=2,
                             num_layers=1, ff_dim=4, max_t=3), seed=seed)


def _snapshot(directory):
    return {name: (directory / name).read_bytes() for name in os.listdir(directory)}


# (kind, files a successful write leaves, write of version `seed` into a directory)
ARTIFACT_WRITES = [
    ("stack", ["s.rts"], lambda d, seed: write_stack(_stack(seed=seed), str(d / "s.rts"))),
    ("json", ["x.json"], lambda d, seed: write_json(str(d / "x.json"), {"seed": seed})),
    ("checkpoint", ["weights.bin"],
     lambda d, seed: save_checkpoint(_tiny_model(seed), str(d))),
]


class TestAtomicWrites:
    @pytest.mark.parametrize("kind, names, write", ARTIFACT_WRITES,
                             ids=[k for k, _, _ in ARTIFACT_WRITES])
    def test_success_leaves_only_the_target(self, tmp_path, kind, names, write):
        write(tmp_path, 0)
        assert sorted(os.listdir(tmp_path)) == names

    @pytest.mark.parametrize("kind, names, write", ARTIFACT_WRITES,
                             ids=[k for k, _, _ in ARTIFACT_WRITES])
    def test_failed_replace_keeps_previous_bytes(self, tmp_path, monkeypatch,
                                                 kind, names, write):
        write(tmp_path, 0)
        before = _snapshot(tmp_path)

        def failing_replace(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated"):
            write(tmp_path, 1)
        assert _snapshot(tmp_path) == before

    def test_failure_between_chunks_keeps_previous_bytes(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_file(str(path), [b"old"])

        def chunks():
            yield b"new"
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError):
            write_file(str(path), chunks())
        assert _snapshot(tmp_path) == {"blob.bin": b"old"}

    def test_missing_directory_leaves_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_file(str(tmp_path / "absent" / "x.bin"), [b"x"])
        assert os.listdir(tmp_path) == []
