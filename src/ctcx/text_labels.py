"""Alphabets, transcript normalization, and integer label encoding.

The label inventory is lowercase letters plus a single space character.
The CTC blank is an extra class appended after all symbols, so a model
trained against an alphabet has ``len(symbols) + 1`` output classes and
blank is always the last class index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .frontend import write_atomic

# Letter inventories in dictionary order. Space is appended as the last
# symbol when the alphabet is built.
RUSSIAN_LETTERS = "абвгдеёжзийклмнопрстуфхцчшщъыьэюя"
KAZAKH_LETTERS = "аәбвгғдеёжзийкқлмнңоөпрстуұүфхһцчшщъыіьэюя"

SPACE_ESCAPE = "<sp>"


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol inventory for one language.

    ``symbols`` holds unique lowercase characters, exactly one of which is
    a space. Blank is not a symbol; it occupies the extra final class.
    """

    name: str
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"alphabet {self.name!r} has duplicate symbols")
        if sum(1 for s in self.symbols if s == " ") != 1:
            raise ValueError(f"alphabet {self.name!r} must contain space exactly once")
        for s in self.symbols:
            if len(s) != 1:
                raise ValueError(f"symbol {s!r} is not a single character")
            if s != " " and s != s.lower():
                raise ValueError(f"symbol {s!r} is not lowercase")

    @property
    def blank_index(self) -> int:
        return len(self.symbols)

    @property
    def num_classes(self) -> int:
        """Network output dimension: one class per symbol plus blank."""
        return len(self.symbols) + 1

    @property
    def letters(self) -> frozenset[str]:
        return frozenset(s for s in self.symbols if s != " ")

    @cached_property
    def _symbol_ids(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    def __contains__(self, ch: str) -> bool:
        return ch in self._symbol_ids


def builtin_alphabet(name: str) -> Alphabet:
    """Return one of the two built-in alphabets, ``"kk"`` or ``"ru"``."""
    if name == "ru":
        return Alphabet("ru", tuple(RUSSIAN_LETTERS) + (" ",))
    if name == "kk":
        return Alphabet("kk", tuple(KAZAKH_LETTERS) + (" ",))
    raise ValueError(f"unknown builtin alphabet {name!r} (expected 'kk' or 'ru')")


def normalize_transcript(raw: str, alphabet: Alphabet) -> str:
    """Lowercase, squash whitespace to single spaces, drop foreign characters.

    Deleting characters can create new space runs, so the squash happens
    after filtering; this keeps normalization idempotent.
    """
    lowered = raw.lower()
    kept = []
    for ch in lowered:
        if ch.isspace():
            kept.append(" ")
        elif ch in alphabet:
            kept.append(ch)
    out = []
    for ch in kept:
        if ch == " " and (not out or out[-1] == " "):
            continue
        out.append(ch)
    if out and out[-1] == " ":
        out.pop()
    return "".join(out)


def encode(text: str, alphabet: Alphabet) -> tuple[int, ...]:
    """Map text to symbol ids. Every character must be in the alphabet."""
    ids = []
    table = alphabet._symbol_ids
    for pos, ch in enumerate(text):
        if ch not in table:
            raise ValueError(
                f"character {ch!r} at position {pos} is not in alphabet {alphabet.name!r}"
            )
        ids.append(table[ch])
    return tuple(ids)


def decode(ids, alphabet: Alphabet) -> str:
    """Inverse of :func:`encode`; ids must be valid symbol indices."""
    n = len(alphabet.symbols)
    out = []
    for i in ids:
        if not 0 <= i < n:
            raise ValueError(f"label id {i} out of range for alphabet {alphabet.name!r}")
        out.append(alphabet.symbols[i])
    return "".join(out)


def overlap_ratio(source: Alphabet, target: Alphabet) -> float:
    """Fraction of the target's letters (space excluded) shared with the source."""
    target_letters = target.letters
    if not target_letters:
        return 0.0
    return len(source.letters & target_letters) / len(target_letters)


def load_alphabet(path) -> Alphabet:
    """Read an alphabet file: one symbol per line, space escaped as ``<sp>``.

    The alphabet is named after the file's stem. A file that is not UTF-8 or
    not a valid alphabet raises ValueError naming ``path``.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        symbols = tuple(" " if line == SPACE_ESCAPE else line for line in lines if line)
        return Alphabet(path.stem, symbols)
    except ValueError as e:  # UnicodeDecodeError is one
        raise ValueError(f"{path}: {e}") from None


def save_alphabet(alphabet: Alphabet, path) -> None:
    lines = [SPACE_ESCAPE if s == " " else s for s in alphabet.symbols]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
