"""Seeded mutation fuzz of the five file readers.

Each mutant of a valid file either reads or raises the reader's documented
error, whose message starts with the file's path; no other exception may
escape. A checkpoint or feature cache that reads writes back the bytes it
was read from, so no mutant is read wrong without an error. A sample of the
checkpoint and alphabet mutants also goes through ``ctcx transfer``, which
must exit 0 on the ones that read and 2 on the rest, never 3.
"""
import json

import numpy as np

from ctcx import (
    AudioClip,
    CheckpointError,
    ManifestRow,
    ModelConfig,
    WavFormatError,
    init_params,
    load_alphabet,
    load_wav,
    read_checkpoint,
    read_feature_cache,
    read_manifest,
    save_alphabet,
    save_checkpoint,
    save_wav,
    write_checkpoint,
    write_feature_cache,
    write_manifest,
)
from ctcx.cli import main as cli_main
from helpers import Raw, rewrite_header

MUTANTS = 1000  # per file format and mutation kind

# replacement values for field mutations: every JSON type, and the edge cases
# of the readers' type checks (bool for int, float for int, a lone surrogate)
VALUES = [None, False, True, 0, 1, -1, 7, 0.5, 2.0, float("inf"), "", "а", "\ud800",
          [], [0], [1, 2], {}, {"a": 1}]


def byte_mutants(raw: bytes, rng, end=None):
    """Copies of ``raw`` with 1-3 bytes before ``end`` overwritten; one in
    ten is cut short instead, and one in ten has bytes appended."""
    end = len(raw) if end is None else end
    for _ in range(MUTANTS):
        data = bytearray(raw)
        kind = rng.integers(10)
        if kind == 0:
            data = data[: rng.integers(len(data))]
        elif kind == 1:
            data += rng.bytes(rng.integers(1, 9))
        else:
            for pos in rng.integers(0, end, size=rng.integers(1, 4)):
                data[pos] = rng.integers(256)
        yield bytes(data)


def containers(value):
    """Every JSON object and array inside ``value``, ``value`` included."""
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from containers(child)


def field_mutant(value, rng):
    """A copy of the JSON value ``value`` in which one object or array has a
    member removed, replaced by one of ``VALUES``, or one added."""
    value = json.loads(json.dumps(value))
    nodes = list(containers(value))
    node = nodes[rng.integers(len(nodes))]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    new = VALUES[rng.integers(len(VALUES))]
    op = rng.integers(3) if keys else 2
    if op == 2:
        if isinstance(node, dict):
            node["extra"] = new
        else:
            node.append(new)
    elif op == 1:
        node[keys[rng.integers(len(keys))]] = new
    else:
        del node[keys[rng.integers(len(keys))]]
    return value


def dump(value, rng) -> str:
    """JSON text of ``value``, with non-ASCII characters escaped or not."""
    return json.dumps(value, ensure_ascii=bool(rng.integers(2)))


def run_reader(tmp_path, mutants, read, error, write=None):
    """Read every mutant; return the mutants that read and those refused.

    ``read`` may raise only ``error``. With ``write``, every mutant that reads
    must write back the same bytes.
    """
    path, again = tmp_path / "mutant", tmp_path / "again"
    accepted, refused = [], []
    for data in mutants:
        path.write_bytes(data)
        try:
            value = read(path)
        except error as e:
            assert str(e).startswith(str(path)), e
            refused.append(data)
            continue
        accepted.append(data)
        if write is not None:
            write(value, again)
            assert again.read_bytes() == data
    assert accepted and refused  # the mutants reach both outcomes
    return accepted, refused


def cli_sample(accepted, refused):
    """(mutant, expected exit code) pairs for a sample of both outcomes."""
    return [*((d, 0) for d in accepted[::40]), *((d, 2) for d in refused[::25])]


def transfer_exit_code(tmp_path, source, target_alphabet) -> int:
    return cli_main(["transfer", "--source", str(source), "--target-alphabet", target_alphabet,
                     "--out", str(tmp_path / "out.ckpt"), "--verify-probes", "1"])


def checkpoint_mutants(raw: bytes, tmp_path, rng):
    header_len = int.from_bytes(raw[8:12], "little")
    prefix_len = 12 + header_len + (-(12 + header_len)) % 64
    yield from byte_mutants(raw, rng, end=prefix_len)  # magic to padding
    yield from byte_mutants(raw, rng)
    path = tmp_path / "field.ckpt"
    for _ in range(MUTANTS):
        path.write_bytes(raw)
        rewrite_header(path, lambda header: Raw(dump(field_mutant(header, rng), rng)))
        yield path.read_bytes()


def test_checkpoint_reads_and_writes_back_the_same_bytes_or_is_refused(tmp_path, kk):
    rng = np.random.default_rng(1)
    cfg = ModelConfig(feature_dim=3, num_classes=kk.num_classes, hidden=2, num_layers=2,
                      bidirectional=True, seed=5)
    path = tmp_path / "valid.ckpt"
    save_checkpoint(init_params(cfg), cfg, kk, path)
    accepted, refused = run_reader(tmp_path, checkpoint_mutants(path.read_bytes(), tmp_path, rng),
                                   read_checkpoint, CheckpointError, write_checkpoint)
    source = tmp_path / "source.ckpt"
    for data, code in cli_sample(accepted, refused):
        source.write_bytes(data)
        assert transfer_exit_code(tmp_path, source, "ru") == code


def test_feature_cache_reads_and_writes_back_the_same_bytes_or_is_refused(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "valid.mfcc"
    write_feature_cache(rng.standard_normal((6, 13)), path)
    raw = path.read_bytes()
    mutants = [*byte_mutants(raw, rng, end=16), *byte_mutants(raw, rng)]
    run_reader(tmp_path, mutants, read_feature_cache, ValueError, write_feature_cache)


def test_wav_reads_or_raises_wav_format_error(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "valid.wav"
    save_wav(AudioClip(rng.uniform(-0.5, 0.5, 160), 16000), path)
    raw = path.read_bytes()
    run_reader(tmp_path, [*byte_mutants(raw, rng, end=44), *byte_mutants(raw, rng)],
               load_wav, WavFormatError)


def test_manifest_reads_or_raises_value_error(tmp_path):
    rng = np.random.default_rng(4)
    rows = [ManifestRow("a/утт1.wav", "сәлем әлем", 1.25), ManifestRow("b.mfcc", "аб"),
            ManifestRow("c.wav", "в", 0)]
    path = tmp_path / "valid.jsonl"
    write_manifest(rows, path)
    raw = path.read_bytes()
    objects = [json.loads(line) for line in raw.decode("utf-8").splitlines()]

    def field_mutants():
        for _ in range(MUTANTS):
            lines = [dump(obj, rng) for obj in objects]
            i = rng.integers(len(lines))
            lines[i] = dump(field_mutant(objects[i], rng), rng)
            yield ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")

    mutants = [*byte_mutants(raw, rng), *field_mutants()]
    run_reader(tmp_path, mutants, read_manifest, ValueError)


def test_alphabet_reads_or_raises_value_error(tmp_path, kk):
    rng = np.random.default_rng(5)
    path = tmp_path / "valid.alphabet"
    save_alphabet(kk, path)
    accepted, refused = run_reader(tmp_path, byte_mutants(path.read_bytes(), rng),
                                   load_alphabet, ValueError)
    cfg = ModelConfig(feature_dim=3, num_classes=kk.num_classes, hidden=2, num_layers=2)
    source, target = tmp_path / "source.ckpt", tmp_path / "target.alphabet"
    save_checkpoint(init_params(cfg), cfg, kk, source)
    for data, code in cli_sample(accepted, refused):
        target.write_bytes(data)
        assert transfer_exit_code(tmp_path, source, str(target)) == code
