import pytest

from ctcx import (
    Alphabet,
    builtin_alphabet,
    decode,
    encode,
    load_alphabet,
    normalize_transcript,
    overlap_ratio,
    save_alphabet,
)
from helpers import fail_writes_halfway


class TestBuiltinAlphabets:
    def test_russian_inventory(self, ru):
        assert len(ru.symbols) == 34  # 33 letters + space
        assert ru.num_classes == 35
        assert ru.blank_index == 34
        assert " " in ru.symbols
        assert ru.symbols[-1] == " "

    def test_kazakh_inventory(self, kk):
        assert len(kk.symbols) == 43  # 42 letters + space
        assert kk.num_classes == 44
        assert kk.blank_index == 43

    def test_kazakh_contains_specific_letters(self, kk):
        for ch in "әғқңөұүһі":
            assert ch in kk

    def test_russian_letters_are_a_subset_of_kazakh(self, ru, kk):
        assert ru.letters <= kk.letters

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown builtin alphabet"):
            builtin_alphabet("en")


class TestAlphabetValidation:
    def test_duplicate_symbol_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alphabet("x", ("а", "а", " "))

    def test_space_required(self):
        with pytest.raises(ValueError, match="space"):
            Alphabet("x", ("а", "б"))

    def test_doubled_space_caught_as_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alphabet("x", ("а", " ", " "))

    def test_uppercase_rejected(self):
        with pytest.raises(ValueError, match="lowercase"):
            Alphabet("x", ("А", " "))

    def test_multicharacter_symbol_rejected(self):
        with pytest.raises(ValueError, match="single character"):
            Alphabet("x", ("ab", " "))


class TestNormalize:
    def test_lowercases_and_strips_punctuation(self, kk):
        assert normalize_transcript("Абай!", kk) == "абай"

    def test_whitespace_runs_collapse(self, kk):
        assert normalize_transcript("бала \t\n бала", kk) == "бала бала"

    def test_foreign_characters_removed(self, kk):
        assert normalize_transcript("сәлем world қалайсың", kk) == "сәлем қалайсың"

    def test_leading_and_trailing_space_trimmed(self, kk):
        assert normalize_transcript("  сөз  ", kk) == "сөз"

    def test_deleting_foreign_chars_does_not_leave_double_spaces(self, kk):
        # "a ! b" style input: the deleted char sat between two spaces
        assert normalize_transcript("ал ! бар", kk) == "ал бар"

    def test_idempotent(self, kk):
        samples = [
            "Абай!", "  сөз  ", "ал ! бар", "A B C", "қалайсың123",
            "бала \t бала", "", "?!.", "ә Ә ә",
        ]
        for raw in samples:
            once = normalize_transcript(raw, kk)
            assert normalize_transcript(once, kk) == once

    def test_empty_result_for_fully_foreign_text(self, kk):
        assert normalize_transcript("hello world", kk) == ""


class TestEncodeDecode:
    def test_round_trip(self, kk):
        text = "сәлем әлем"
        assert decode(encode(text, kk), kk) == text

    def test_ids_are_symbol_positions(self, ru):
        assert encode("аб", ru) == (0, 1)
        assert encode(" ", ru) == (33,)

    def test_unknown_character_names_char_and_position(self, ru):
        with pytest.raises(ValueError, match=r"'қ' at position 2"):
            encode("абқ", ru)

    def test_decode_rejects_blank_and_out_of_range(self, ru):
        with pytest.raises(ValueError, match="out of range"):
            decode([ru.blank_index], ru)
        with pytest.raises(ValueError, match="out of range"):
            decode([-1], ru)


class TestOverlapRatio:
    def test_russian_to_kazakh(self, ru, kk):
        ratio = overlap_ratio(ru, kk)
        assert ratio == pytest.approx(33 / 42)
        assert 0.78 <= ratio <= 0.79

    def test_kazakh_to_russian_is_full(self, ru, kk):
        assert overlap_ratio(kk, ru) == 1.0

    def test_disjoint_alphabets(self):
        a = Alphabet("a", ("а", " "))
        b = Alphabet("b", ("б", " "))
        assert overlap_ratio(a, b) == 0.0


class TestAlphabetFiles:
    def test_round_trip_preserves_order_and_space(self, kk, tmp_path):
        path = tmp_path / "kk.alphabet"
        save_alphabet(kk, path)
        loaded = load_alphabet(path)
        assert loaded.symbols == kk.symbols
        assert loaded.name == "kk"
        assert "<sp>" in path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("content", [b"\xd0\xb0\n\xff\n<sp>\n", "ab\n<sp>\n".encode(),
                                         "а\nа\n<sp>\n".encode(), "а\n".encode()])
    def test_bad_file_raises_value_error_naming_it(self, tmp_path, content):
        path = tmp_path / "letters.alphabet"
        path.write_bytes(content)
        with pytest.raises(ValueError) as exc:
            load_alphabet(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_failed_save_keeps_the_old_file(self, kk, ru, tmp_path, monkeypatch):
        path = tmp_path / "letters.alphabet"
        save_alphabet(ru, path)
        before = path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            save_alphabet(kk, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["letters.alphabet"]
