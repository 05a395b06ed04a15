import numpy as np
import pytest

from ctcx import (
    AudioClip,
    FeatureConfig,
    ManifestRow,
    WavFormatError,
    feature_normalize,
    frame_count,
    load_wav,
    mfcc,
    read_feature_cache,
    read_manifest,
    resample,
    save_wav,
    write_feature_cache,
    write_manifest,
)
from ctcx.frontend import (
    LOG_FLOOR,
    _mfcc_tables,
    dct_matrix,
    feature_cache_header,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    resampled_length,
)
from helpers import fail_writes_halfway
from oracles import oracle_resample


def sine(freq_hz, seconds, rate, amplitude=0.5):
    t = np.arange(int(round(seconds * rate))) / rate
    return AudioClip(amplitude * np.sin(2 * np.pi * freq_hz * t), rate)


class TestFraming:
    def test_one_second_at_16k_gives_98_frames(self):
        cfg = FeatureConfig()
        assert frame_count(16000, cfg) == 98

    def test_formula_matches_direct_count(self, rng):
        cfg = FeatureConfig()
        for _ in range(50):
            n = int(rng.integers(1, 50000))
            expected = 0 if n < 400 else 1 + (n - 400) // 160
            assert frame_count(n, cfg) == expected

    def test_window_and_hop_samples(self):
        cfg = FeatureConfig()
        assert cfg.window_samples == 400
        assert cfg.hop_samples == 160


class TestWavIO:
    def test_round_trip_exact_for_quantized_amplitudes(self, tmp_path, rng):
        samples = rng.integers(-32768, 32768, size=1000).astype(np.float64) / 32768.0
        clip = AudioClip(samples, 16000)
        path = tmp_path / "x.wav"
        save_wav(clip, path)
        loaded = load_wav(path)
        assert loaded.sample_rate_hz == 16000
        np.testing.assert_array_equal(loaded.samples, samples)

    def test_not_riff_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + b"\0" * 100)
        with pytest.raises(WavFormatError, match="not a RIFF/WAVE"):
            load_wav(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF")
        with pytest.raises(WavFormatError, match="truncated"):
            load_wav(path)

    def test_stereo_rejected(self, tmp_path):
        import struct

        data = b"\0\0" * 4
        header = (
            b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16)
            + b"data" + struct.pack("<I", len(data))
        )
        path = tmp_path / "stereo.wav"
        path.write_bytes(header + data)
        with pytest.raises(WavFormatError, match="channels=2"):
            load_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        import struct

        data = b"\0\0" * 4
        header = (
            b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 16000, 32000, 2, 16)
            + b"data" + struct.pack("<I", len(data))
        )
        path = tmp_path / "float.wav"
        path.write_bytes(header + data)
        with pytest.raises(WavFormatError, match="non-PCM format=3"):
            load_wav(path)

    def test_8_bit_rejected(self, tmp_path):
        import struct

        data = b"\0" * 4
        header = (
            b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 16000, 1, 8)
            + b"data" + struct.pack("<I", len(data))
        )
        path = tmp_path / "eight.wav"
        path.write_bytes(header + data)
        with pytest.raises(WavFormatError, match="bits=8"):
            load_wav(path)

    @pytest.mark.parametrize("rate,data,problem", [
        (0, b"\0\0" * 4, "sample rate 0"),
        (16000, b"", "empty data chunk"),
    ], ids=["zero-rate", "empty-data"])
    def test_unreadable_clip_is_a_wav_format_error(self, tmp_path, rate, data, problem):
        import struct

        header = (
            b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, 2 * rate, 2, 16)
            + b"data" + struct.pack("<I", len(data))
        )
        path = tmp_path / "x.wav"
        path.write_bytes(header + data)
        with pytest.raises(WavFormatError, match=f"x.wav: {problem}"):
            load_wav(path)


class TestResample:
    def test_same_rate_returns_clip_unchanged(self):
        clip = sine(440, 0.1, 16000)
        assert resample(clip, 16000) is clip

    def test_output_length_is_rounded_ratio(self):
        clip = sine(440, 0.1, 8000)
        out = resample(clip, 16000)
        assert len(out.samples) == round(len(clip.samples) * 2.0)
        assert out.sample_rate_hz == 16000

    def test_tone_survives_upsampling(self):
        clip = sine(440, 0.5, 8000)
        out = resample(clip, 16000)
        spectrum = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(len(out.samples), d=1 / 16000)
        assert abs(freqs[int(np.argmax(spectrum))] - 440) < 5

    def test_tone_survives_downsampling(self):
        clip = sine(440, 0.5, 48000)
        out = resample(clip, 16000)
        spectrum = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(len(out.samples), d=1 / 16000)
        assert abs(freqs[int(np.argmax(spectrum))] - 440) < 5

    @pytest.mark.parametrize("rate", [44100, 22050])
    def test_tone_survives_common_recording_rates(self, rate):
        clip = sine(440, 0.5, rate)
        out = resample(clip, 16000)
        spectrum = np.abs(np.fft.rfft(out.samples))
        freqs = np.fft.rfftfreq(len(out.samples), d=1 / 16000)
        assert abs(freqs[int(np.argmax(spectrum))] - 440) < 5

    # common recording rates, two off any round ratio (7,999 and 16,001 Hz,
    # where almost every output has its own phase) and a 1 kHz header; each
    # goes to every target
    SOURCE_RATES = (8000, 11025, 12000, 22050, 24000, 32000, 44100, 48000, 96000,
                    7999, 16001, 1000)
    TARGET_RATES = (16000, 8000, 22050)

    @pytest.mark.slow
    def test_matches_per_sample_oracle_bit_for_bit(self):
        # 8191/8192/8193 straddle the 8192-output chunk where the rates are
        # close; lengths whose output would be empty must fail the same way
        rng = np.random.default_rng(2026)
        cases = 0
        for source in self.SOURCE_RATES:
            for target in self.TARGET_RATES:
                lengths = [1, 2, 3, 8191, 8192, 8193, *rng.integers(1, 30001, size=2)]
                for n in lengths:
                    n = int(n)
                    if resampled_length(n, source, target) > 40000:
                        continue  # keeps the per-sample oracle quick
                    if rng.random() < 0.3:  # on the PCM16 grid, as loaded from a WAV
                        samples = rng.integers(-32768, 32768, size=n) / 32768.0
                    else:
                        samples = np.clip(rng.normal(0.0, 0.4, size=n), -1.0, 1.0)
                    clip = AudioClip(samples, source)
                    if resampled_length(n, source, target) == 0:
                        with pytest.raises(ValueError) as ours:
                            resample(clip, target)
                        with pytest.raises(ValueError) as theirs:
                            oracle_resample(clip, target)
                        assert str(ours.value) == str(theirs.value)
                        continue
                    got = resample(clip, target)
                    want = oracle_resample(clip, target)
                    assert got.sample_rate_hz == want.sample_rate_hz == target
                    assert got.samples.tobytes() == want.samples.tobytes(), (source, target, n)
                    cases += 1
        assert cases > 200

    def test_interior_reconstruction_error_is_small(self):
        clip = sine(440, 0.25, 8000)
        up = resample(clip, 16000)
        # even output samples should coincide with the source samples
        core = slice(100, -100)
        assert np.max(np.abs(up.samples[::2][core] - clip.samples[core])) < 1e-3

    def test_output_clipped_to_unit_range(self):
        clip = AudioClip(np.ones(4000) * 0.9999, 8000)
        out = resample(clip, 16000)
        assert np.max(np.abs(out.samples)) <= 1.0


class TestMelAndDct:
    def test_mel_scale_round_trip(self, rng):
        f = rng.uniform(0, 8000, size=100)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-12)

    def test_filters_have_unit_peak(self):
        weights, _ = mel_filterbank(FeatureConfig())
        # the triangle apex may fall between bins, so peaks approach 1
        assert weights.max() <= 1.0 + 1e-12
        assert weights.max(axis=1).min() > 0.5

    def test_filter_centers_increase(self):
        _, centers = mel_filterbank(FeatureConfig())
        assert len(centers) == 26
        assert np.all(np.diff(centers) > 0)

    def test_dct_matrix_orthonormal(self):
        m = dct_matrix(26)
        np.testing.assert_allclose(m @ m.T, np.eye(26), atol=1e-10)


class TestMfcc:
    def test_shape_and_finiteness(self):
        fm = mfcc(sine(440, 1.0, 16000))
        assert fm.values.shape == (98, 13)
        assert np.all(np.isfinite(fm.values))

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="resample first"):
            mfcc(sine(440, 1.0, 8000))

    def test_too_short_clip_rejected(self):
        clip = AudioClip(np.zeros(100), 16000)
        with pytest.raises(ValueError, match="short"):
            mfcc(clip)

    def test_silence_hits_log_floor_but_stays_finite(self):
        clip = AudioClip(np.zeros(16000), 16000)
        fm = mfcc(clip)
        assert np.all(np.isfinite(fm.values))
        # every filter energy floors at LOG_FLOOR, so c0 is exactly
        # sqrt(26) * log(1e-10) and all higher coefficients vanish
        np.testing.assert_allclose(fm.values[:, 0], np.sqrt(26) * np.log(LOG_FLOOR), rtol=1e-12)
        np.testing.assert_allclose(fm.values[:, 1:], 0, atol=1e-9)

    def test_deterministic(self):
        clip = sine(440, 0.5, 16000)
        np.testing.assert_array_equal(mfcc(clip).values, mfcc(clip).values)

    def test_recipe_tables_built_once_and_read_only(self):
        cfg = FeatureConfig()
        window, fbank, dct = _mfcc_tables(cfg)
        assert _mfcc_tables(FeatureConfig()) is _mfcc_tables(cfg)
        np.testing.assert_array_equal(window, np.hamming(cfg.window_samples))
        np.testing.assert_array_equal(fbank, mel_filterbank(cfg)[0])
        np.testing.assert_array_equal(dct, dct_matrix(cfg.n_mels))
        for table in (window, fbank, dct):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0

    def test_1000_hz_tone_peaks_at_nearest_filter(self):
        cfg = FeatureConfig()
        weights, centers = mel_filterbank(cfg)
        clip = sine(1000, 0.5, 16000)
        # reproduce the pipeline up to filterbank energies
        x = np.append(clip.samples[0], clip.samples[1:] - cfg.preemphasis * clip.samples[:-1])
        frames = np.lib.stride_tricks.sliding_window_view(x, cfg.window_samples)[:: cfg.hop_samples]
        power = np.abs(np.fft.rfft(frames * np.hamming(cfg.window_samples), cfg.fft_size)) ** 2
        energies = power @ weights.T
        strongest = int(np.argmax(energies.mean(axis=0)))
        nearest = int(np.argmin(np.abs(centers - 1000)))
        assert strongest == nearest


class TestFeatureNormalize:
    def test_zero_mean_unit_variance(self, rng):
        values = rng.standard_normal((50, 13)) * 3 + 1
        out = feature_normalize(values)
        np.testing.assert_allclose(out.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1, atol=1e-12)

    def test_constant_column_becomes_zero(self, rng):
        values = rng.standard_normal((50, 3))
        values[:, 1] = 7.0
        out = feature_normalize(values)
        np.testing.assert_array_equal(out[:, 1], np.zeros(50))

    def test_single_frame_becomes_zero(self):
        out = feature_normalize(np.ones((1, 4)))
        np.testing.assert_array_equal(out, np.zeros((1, 4)))


class TestFeatureCache:
    def test_round_trip(self, tmp_path, rng):
        values = rng.standard_normal((20, 13)).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.mfcc"
        write_feature_cache(values, path)
        np.testing.assert_array_equal(read_feature_cache(path), values)

    def test_header_reports_shape(self, tmp_path, rng):
        path = tmp_path / "x.mfcc"
        write_feature_cache(rng.standard_normal((17, 13)), path)
        assert feature_cache_header(path) == (17, 13)

    # both readers share one check of the magic, the version and the byte size
    READERS = (read_feature_cache, feature_cache_header)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.mfcc"
        path.write_bytes(b"JUNK" + b"\0" * 32)
        for reader in self.READERS:
            with pytest.raises(ValueError, match="not a feature cache"):
                reader(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        path = tmp_path / "x.mfcc"
        write_feature_cache(rng.standard_normal((17, 13)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        for reader in self.READERS:
            with pytest.raises(ValueError, match="expected 900 bytes, found 892"):
                reader(path)

    def test_later_version_rejected(self, tmp_path, rng):
        path = tmp_path / "x.mfcc"
        write_feature_cache(rng.standard_normal((17, 13)), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 2
        path.write_bytes(bytes(raw))
        for reader in self.READERS:
            with pytest.raises(ValueError, match="unsupported feature cache version 2"):
                reader(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, rng, value):
        path = tmp_path / "x.mfcc"
        values = rng.standard_normal((17, 13))
        values[9, 4] = value
        write_feature_cache(values, path)
        with pytest.raises(ValueError, match="x.mfcc: feature cache holds non-finite values"):
            read_feature_cache(path)

    def test_failed_write_keeps_the_old_cache(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "x.mfcc"
        write_feature_cache(rng.standard_normal((17, 13)), path)
        before = path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            write_feature_cache(rng.standard_normal((40, 13)), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.mfcc"]


class TestManifest:
    def test_failed_write_keeps_the_old_manifest(self, tmp_path, monkeypatch):
        path = tmp_path / "m.jsonl"
        write_manifest([ManifestRow("a.wav", "сәлем", 1.5)], path)
        before = path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            write_manifest([ManifestRow(f"{i}.wav", "бала") for i in range(50)], path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl"]

    def test_round_trip(self, tmp_path):
        rows = [
            ManifestRow("a.wav", "сәлем", 1.5),
            ManifestRow("b.wav", "бала", None),
        ]
        path = tmp_path / "m.jsonl"
        write_manifest(rows, path)
        assert read_manifest(path) == rows

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"audio": "a.wav"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="needs 'audio' and 'text'"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "line,match",
        [
            ("5", "m.jsonl:2: manifest row is not a JSON object"),
            ('{"audio": "b.wav", "text": "y", "duration_s": [1]}',
             r"m.jsonl:2: duration_s \[1\] is not a number"),
            ('{"audio": "b.wav", "text": "y", "duration_s": true}',
             "m.jsonl:2: duration_s True is not a number"),
            ('{"audio": "b.wav", "text": "y", "duration_s": "12"}',
             "m.jsonl:2: duration_s '12' is not a number"),
            ('{"audio": "b.wav", "text": "y", "duration_s": -3}',
             "m.jsonl:2: duration_s -3 is negative or not finite"),
            ('{"audio": "b.wav", "text": "y", "duration_s": NaN}',
             "m.jsonl:2: duration_s nan is negative or not finite"),
            ('{"audio": "b.wav", "text": "y", "duration_s": Infinity}',
             "m.jsonl:2: duration_s inf is negative or not finite"),
        ],
        ids=["non-object-row", "non-numeric-duration", "bool-duration", "string-duration",
             "negative-duration", "nan-duration", "infinite-duration"],
    )
    def test_malformed_row_names_path_and_line(self, tmp_path, line, match):
        path = tmp_path / "m.jsonl"
        path.write_text('{"audio": "a.wav", "text": "x"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            read_manifest(path)
