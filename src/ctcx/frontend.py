"""Audio ingestion, 16 kHz resampling, MFCC extraction, and manifest handling.

The MFCC pipeline is the classic ASR recipe: pre-emphasis, 25 ms Hamming
frames every 10 ms, power spectrum, 26 triangular mel filters (HTK mel
scale), log with a 1e-10 floor, orthonormal DCT-II, first 13 coefficients.
"""
from __future__ import annotations

import json
import os
import struct
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

LOG_FLOOR = 1e-10
FEATURE_CACHE_MAGIC = b"MFCC"
FEATURE_CACHE_VERSION = 1
MAX_UTTERANCE_SECONDS = 15.0


class WavFormatError(ValueError):
    """Raised for WAV files this toolkit cannot ingest."""


@dataclass(frozen=True)
class AudioClip:
    """Mono audio, amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        if self.samples.ndim != 1:
            raise ValueError(f"expected mono samples, got shape {self.samples.shape}")
        if len(self.samples) < 1:
            raise ValueError("empty clip")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("non-finite sample values")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"bad sample rate {self.sample_rate_hz}")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate_hz: int = 16000
    preemphasis: float = 0.97
    window_ms: int = 25
    hop_ms: int = 10
    fft_size: int = 512
    n_mels: int = 26
    n_mfcc: int = 13
    mel_fmin_hz: float = 0.0
    mel_fmax_hz: float = 8000.0

    def __post_init__(self) -> None:
        if self.fft_size < self.window_samples:
            raise ValueError("fft_size smaller than the analysis window")
        if self.n_mfcc > self.n_mels:
            raise ValueError("n_mfcc cannot exceed n_mels")
        if self.mel_fmax_hz > self.sample_rate_hz / 2:
            raise ValueError("mel_fmax_hz above Nyquist")

    @property
    def window_samples(self) -> int:
        return self.sample_rate_hz * self.window_ms // 1000

    @property
    def hop_samples(self) -> int:
        return self.sample_rate_hz * self.hop_ms // 1000


@dataclass(frozen=True)
class FeatureMatrix:
    """T x F matrix of MFCC frames."""

    values: np.ndarray


def write_atomic(path, data: bytes) -> None:
    """Write a whole file through a temp file in the same directory and a
    rename, so a killed or failed write leaves the previous file whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as out:
            out.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def frame_count(num_samples: int, cfg: FeatureConfig) -> int:
    """Number of analysis frames for a clip of ``num_samples`` samples."""
    if num_samples < cfg.window_samples:
        return 0
    return 1 + (num_samples - cfg.window_samples) // cfg.hop_samples


# ---------------------------------------------------------------------------
# WAV I/O (PCM16 mono only; parsed by hand so failures are precise)
# ---------------------------------------------------------------------------


def load_wav(path) -> AudioClip:
    """Read a RIFF/WAVE PCM 16-bit mono file, scaling int16 by 1/32768."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise WavFormatError(f"{path}: truncated file ({len(raw)} bytes)")
    if raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise WavFormatError(
                    f"{path}: truncated data chunk "
                    f"(header says {chunk_size} bytes, {len(body)} present)"
                )
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise WavFormatError(f"{path}: non-PCM format={audio_format} unsupported")
    if channels != 1:
        raise WavFormatError(f"{path}: channels={channels} unsupported")
    if bits != 16:
        raise WavFormatError(f"{path}: bits={bits} unsupported (need 16)")
    if sample_rate == 0:
        raise WavFormatError(f"{path}: sample rate 0")
    if not data:
        raise WavFormatError(f"{path}: empty data chunk")
    if len(data) % 2 != 0:
        raise WavFormatError(f"{path}: odd data chunk length")

    samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(samples, sample_rate)


def save_wav(clip: AudioClip, path) -> None:
    """Write a PCM16 mono WAV (round-trips exactly for k/32768 amplitudes)."""
    q = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    data = q.tobytes()
    header = (
        b"RIFF"
        + struct.pack("<I", 36 + len(data))
        + b"WAVE"
        + b"fmt "
        + struct.pack(
            "<IHHIIHH",
            16,
            1,
            1,
            clip.sample_rate_hz,
            clip.sample_rate_hz * 2,
            2,
            16,
        )
        + b"data"
        + struct.pack("<I", len(data))
    )
    Path(path).write_bytes(header + data)


# ---------------------------------------------------------------------------
# Resampling
# ---------------------------------------------------------------------------

_KAISER_BETA = 8.6
_ZERO_CROSSINGS = 16


def resampled_length(num_samples: int, source_hz: int, target_hz: int) -> int:
    """Sample count of a clip resampled from ``source_hz`` to ``target_hz``:
    round(n * target / source), and n itself when the rates match."""
    return int(round(num_samples * (target_hz / source_hz)))


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Band-limited windowed-sinc resampling (Kaiser window, 16 zero crossings).

    Returns the clip unchanged when the rates already match. Output length is
    ``resampled_length``.

    Output sample j sits at source position j / ratio = k0 + frac, and its
    kernel depends on ``frac`` alone. A rational rate ratio repeats only a
    few fractions (783 distinct ones in 18,400 outputs from 44.1 kHz, 2 from
    8 kHz), so each chunk evaluates the window and sinc once per distinct
    fraction, its phase table, and gives every output the row of its phase.
    The rows are the same elementwise floats the per-sample kernel had, the
    taps are the same source values, and the reduction is the same einsum
    over the same contiguous shapes, so the output is bit-identical to
    evaluating the kernel per sample (``tests/oracles.py: oracle_resample``,
    the reference).
    """
    if target_hz <= 0:
        raise ValueError(f"bad target rate {target_hz}")
    if target_hz == clip.sample_rate_hz:
        return clip

    x = clip.samples
    ratio = target_hz / clip.sample_rate_hz
    n_out = resampled_length(len(x), clip.sample_rate_hz, target_hz)
    scale = min(1.0, ratio)  # lowpass cutoff when decimating
    support = _ZERO_CROSSINGS / scale
    half_taps = int(np.floor(support)) + 1
    n_taps = 2 * half_taps + 1

    pad = np.concatenate([np.zeros(half_taps + 1), x, np.zeros(half_taps + 2)])
    taps = np.lib.stride_tricks.sliding_window_view(pad, n_taps)  # row k: pad[k : k + n_taps]
    out = np.empty(n_out)
    offsets = np.arange(n_taps) - half_taps

    chunk = 8192
    denom = np.i0(_KAISER_BETA)
    for start in range(0, n_out, chunk):
        j = np.arange(start, min(start + chunk, n_out))
        pos = j / ratio  # position in source samples
        k0 = np.floor(pos).astype(np.int64)
        fracs, phase = np.unique(pos - k0, return_inverse=True)
        # tap m covers source index k0 + offsets[m], which is pad[k0 + 1 + m]
        t = offsets[None, :] - fracs[:, None]
        u = t / support
        window = np.where(np.abs(u) <= 1.0, np.i0(_KAISER_BETA * np.sqrt(np.maximum(0.0, 1.0 - u * u))) / denom, 0.0)
        kernel = scale * np.sinc(scale * t) * window
        out[j] = np.einsum("ij,ij->i", kernel[phase], taps[k0 + 1])

    np.clip(out, -1.0, 1.0, out=out)
    return AudioClip(out, target_hz)


def wav_features(path, cfg: FeatureConfig) -> tuple[np.ndarray, bool]:
    """Raw (unnormalized) MFCC values of a WAV file, and whether it was resampled.

    Clips at another rate are resampled to ``cfg.sample_rate_hz`` first.
    """
    clip = load_wav(path)
    resampled = clip.sample_rate_hz != cfg.sample_rate_hz
    if resampled:
        clip = resample(clip, cfg.sample_rate_hz)
    return mfcc(clip, cfg).values, resampled


# ---------------------------------------------------------------------------
# MFCC
# ---------------------------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray]:
    """Triangular mel filters evaluated at FFT bin frequencies.

    Returns (weights, center_freqs_hz) with weights of shape
    (n_mels, fft_size // 2 + 1). Triangles are linear in Hz between
    mel-spaced edge frequencies, unit peak.
    """
    n_bins = cfg.fft_size // 2 + 1
    mel_points = np.linspace(
        hz_to_mel(cfg.mel_fmin_hz), hz_to_mel(cfg.mel_fmax_hz), cfg.n_mels + 2
    )
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * cfg.sample_rate_hz / cfg.fft_size

    weights = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        left, center, right = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    return weights, hz_points[1:-1]


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: rows are basis vectors, M @ M.T == I."""
    j = np.arange(n)
    k = np.arange(n)[:, None]
    m = np.sqrt(2.0 / n) * np.cos(np.pi * (j + 0.5) * k / n)
    m[0] /= np.sqrt(2.0)
    return m


@cache
def _mfcc_tables(cfg: FeatureConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Hamming window, mel filterbank and DCT matrix of a recipe, built once."""
    tables = (np.hamming(cfg.window_samples), mel_filterbank(cfg)[0], dct_matrix(cfg.n_mels))
    for table in tables:
        table.flags.writeable = False
    return tables


def mfcc(clip: AudioClip, cfg: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Extract MFCC features; deterministic for identical input."""
    if clip.sample_rate_hz != cfg.sample_rate_hz:
        raise ValueError(
            f"clip rate {clip.sample_rate_hz} != config rate {cfg.sample_rate_hz}; resample first"
        )
    win = cfg.window_samples
    hop = cfg.hop_samples
    x = clip.samples
    if len(x) < win:
        raise ValueError(f"clip of {len(x)} samples shorter than one {win}-sample window")

    window, fbank, dct = _mfcc_tables(cfg)
    emphasized = np.concatenate([x[:1], x[1:] - cfg.preemphasis * x[:-1]])
    frames = np.lib.stride_tricks.sliding_window_view(emphasized, win)[::hop]
    frames = frames * window

    power = np.abs(np.fft.rfft(frames, n=cfg.fft_size)) ** 2
    energies = power @ fbank.T
    log_energies = np.log(np.maximum(energies, LOG_FLOOR))
    cepstra = log_energies @ dct.T
    return FeatureMatrix(np.ascontiguousarray(cepstra[:, : cfg.n_mfcc]))


def feature_normalize(values: np.ndarray) -> np.ndarray:
    """Per-coefficient zero mean, unit variance of a T x F array over the utterance.

    Columns with no spread (including single-frame input) become zeros.
    """
    constant = values.max(axis=0) == values.min(axis=0)
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    safe = np.where(constant, 1.0, std)
    return np.where(constant, 0.0, (values - mean) / safe)


# ---------------------------------------------------------------------------
# Feature cache files
# ---------------------------------------------------------------------------


def write_feature_cache(values: np.ndarray, path) -> None:
    """Write a T x F float32 feature file: magic, version, T, F, row-major data."""
    t, f = values.shape
    header = FEATURE_CACHE_MAGIC + struct.pack("<III", FEATURE_CACHE_VERSION, t, f)
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    write_atomic(path, header + payload)


def _cache_shape(head: bytes, size: int, path) -> tuple[int, int]:
    """(T, F) of a cache file from its leading bytes and its total byte size.

    Raises ValueError unless the magic, the version and the size
    ``16 + 4 * T * F`` all match.
    """
    if len(head) < 16 or head[:4] != FEATURE_CACHE_MAGIC:
        raise ValueError(f"{path}: not a feature cache file")
    version, t, f = struct.unpack_from("<III", head, 4)
    if version != FEATURE_CACHE_VERSION:
        raise ValueError(f"{path}: unsupported feature cache version {version}")
    expected = 16 + 4 * t * f
    if size != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {size}")
    return t, f


def read_feature_cache(path) -> np.ndarray:
    """The (T, F) float64 features of a cache file; ValueError when the header
    does not match the size or a value is not finite."""
    raw = Path(path).read_bytes()
    t, f = _cache_shape(raw, len(raw), path)
    values = np.frombuffer(raw, dtype="<f4", offset=16).reshape(t, f)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: feature cache holds non-finite values")
    return values.astype(np.float64)


def feature_cache_header(path) -> tuple[int, int]:
    """Read and check (T, F) of a cache file without loading the payload."""
    with open(path, "rb") as fh:
        return _cache_shape(fh.read(16), os.fstat(fh.fileno()).st_size, path)


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestRow:
    audio: str
    text: str
    duration_s: float | None = None


def read_manifest(path) -> list[ManifestRow]:
    """Read a JSON Lines manifest: {"audio", "text", "duration_s"} per line.

    Any malformed line raises ValueError naming ``path:line``.
    """
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValueError(f"{where}: not JSON: {e}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: manifest row is not a JSON object")
        if "audio" not in obj or "text" not in obj:
            raise ValueError(f"{where}: manifest row needs 'audio' and 'text'")
        duration = obj.get("duration_s")
        if duration is not None:
            if isinstance(duration, bool) or not isinstance(duration, (int, float)):
                raise ValueError(f"{where}: duration_s {duration!r} is not a number")
            if not 0 <= duration <= sys.float_info.max:  # also NaN and Infinity
                raise ValueError(f"{where}: duration_s {duration!r} is negative or not finite")
            duration = float(duration)
        rows.append(ManifestRow(str(obj["audio"]), str(obj["text"]), duration))
    return rows


def write_manifest(rows, path) -> None:
    lines = []
    for r in rows:
        obj = {"audio": r.audio, "text": r.text}
        if r.duration_s is not None:
            obj["duration_s"] = r.duration_s
        lines.append(json.dumps(obj, ensure_ascii=False))
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def within_max_duration(seconds: float) -> bool:
    """The 15 s rule: longer utterances are dropped, 15.0 itself is kept."""
    return seconds <= MAX_UTTERANCE_SECONDS

