import re
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stacklm import bpe
from stacklm.bpe import TokenizerError, TokenizerVocab, decode, encode, load_vocab, save_vocab, train_bpe

BASE = len(bpe.SPECIAL_NAMES)


def base_size(vocab):
    return BASE + len(vocab.alphabet)


def test_single_candidate_pair_is_merged_first():
    vocab = train_bpe("aaaa", BASE + 2 + 1)  # specials + {a, marker} + one merge
    assert vocab.alphabet == [b"a", bpe.MARKER]
    assert vocab.merges[0] == (b"a", b"a")


def test_highest_frequency_pair_wins():
    # "ab" occurs 4 times inside words; merges never span the space
    vocab = train_bpe("abab abab", 64)
    assert vocab.merges[0] == (b"a", b"b")
    assert all(b" " not in left + right for left, right in vocab.merges)


def test_tie_break_is_lexicographic():
    # "ba" and "ab" both occur twice; (a,b) < (b,a)
    vocab = train_bpe("ab ab ba ba", BASE + 4 + 1)  # alphabet {space,a,b,marker}
    assert vocab.merges[0] == (b"a", b"b")


def test_target_size_must_exceed_base():
    with pytest.raises(TokenizerError):
        train_bpe("abc abc", BASE + 4)  # alphabet {a,b,c,marker}


def test_empty_corpus_rejected():
    with pytest.raises(TokenizerError):
        train_bpe("", 100)


def test_repeated_base_symbol_rejected(tmp_path):
    vocab = train_bpe("ab ab ba ba", BASE + 4 + 1)
    with pytest.raises(TokenizerError, match="listed twice"):
        TokenizerVocab(vocab.alphabet + vocab.alphabet[:1], vocab.merges)
    # a saved file with one base symbol repeated would shift every later id by one
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    start = lines.index(f"alphabet {len(vocab.alphabet)}")
    lines[start : start + 2] = [f"alphabet {len(vocab.alphabet) + 1}", lines[start + 1], lines[start + 1]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TokenizerError, match="^" + re.escape(str(path)) + ": .*listed twice"):
        load_vocab(str(path))


def test_training_stops_when_no_pair_repeats():
    vocab = train_bpe("ab cd", 1000)
    assert vocab.size < 1000


def test_ids_are_contiguous_and_specials_first():
    vocab = train_bpe("hello hello world", 64)
    assert sorted(vocab.special_ids) == list(range(BASE))
    assert vocab.size == BASE + len(vocab.alphabet) + len(vocab.merges)
    merged_ids = [vocab.token_to_id[l + r] for l, r in vocab.merges]
    assert merged_ids == list(range(base_size(vocab), vocab.size))


@pytest.fixture(scope="module")
def english_vocab():
    corpus = (
        "the happy dog chased the happy cat over the happy hill\n"
        "while a very happy bird sang a happy song about happy days\n"
        "and the dog and the cat and the bird were happy together\n"
    )
    return train_bpe(corpus * 4, 400)


def test_encode_empty(english_vocab):
    assert encode("", english_vocab) == []
    assert decode([], english_vocab) == ""


def test_round_trip_exact_in_splitter_mode(english_vocab):
    for text in ["hello world", "the happy  dog", " leading", "trailing ", "a   b", "happy\nhappy days"]:
        assert decode(encode(text, english_vocab), english_vocab) == text


def test_whole_word_merges_to_single_token(english_vocab):
    ids = encode("happy", english_vocab)
    assert len(ids) == 1
    # the same id shows up after a boundary: no space-prefixed duplicate
    tail = encode("so happy", english_vocab)
    assert tail[-1] == ids[0]


def test_decode_specials(english_vocab):
    v = english_vocab
    assert decode([v.eod_id], v) == "<|eod|>"
    assert decode([v.mask_id, v.pad_id, v.unknown_id], v) == "<|mask|><|pad|><|unk|>"
    # the splitter decodes to the space it encodes
    assert decode([v.splitter_id], v) == " "


def test_decode_rejects_unknown_id(english_vocab):
    with pytest.raises(IndexError):
        decode([english_vocab.size], english_vocab)


def test_unknown_bytes_map_to_unknown_id(english_vocab):
    ids = encode("happyé", english_vocab)  # e-acute never seen in training
    assert english_vocab.unknown_id in ids


def test_prefix_stability_across_documents(english_vocab):
    docs = ["the happy dog", "a happy song", "happy days together"]
    joined = []
    for doc in docs:
        joined.extend(encode(doc, english_vocab))
        joined.append(english_vocab.eod_id)
    per_doc = sum([encode(d, english_vocab) + [english_vocab.eod_id] for d in docs], [])
    assert joined == per_doc


def test_training_is_deterministic():
    corpus = "some words repeat words repeat some some words"
    a = train_bpe(corpus, 80)
    b = train_bpe(corpus, 80)
    assert a.merges == b.merges
    assert a.alphabet == b.alphabet


def test_save_load_round_trip(tmp_path, english_vocab):
    path = tmp_path / "vocab.txt"
    save_vocab(english_vocab, str(path))
    loaded = load_vocab(str(path))
    assert loaded.merges == english_vocab.merges
    assert loaded.alphabet == english_vocab.alphabet
    assert path.read_text(encoding="utf-8").splitlines()[-6:] == ["specials 5", *_SPECIALS]
    text = "the happy cat sang"
    assert encode(text, loaded) == encode(text, english_vocab)


@pytest.mark.parametrize("spelling", ["%ff", "%41", "%zz", "%4", " ", "a b", "é", ""])
@pytest.mark.parametrize("section", ["alphabet", "merges"])
def test_symbol_not_in_its_one_spelling_names_file_and_line(tmp_path, english_vocab, spelling, section):
    path = tmp_path / "vocab.txt"
    save_vocab(english_vocab, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    line = lines.index(next(l for l in lines if l.startswith(f"{section} "))) + 1
    lines[line] = spelling if section == "alphabet" else f"{spelling} x"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TokenizerError, match="^" + re.escape(f"{path}:{line + 1}: ")):
        load_vocab(str(path))


# the last lines of every vocabulary file, after "specials 5"
_SPECIALS = ["end_of_document <|eod|>", "mask <|mask|>", "pad <|pad|>", "unknown <|unk|>", "splitter <|split|>"]
_SPECIALS_EDITS = {
    "other-sentinel": lambda lines: lines[:-1] + ["splitter <|sep|>"],
    "reordered": lambda lines: lines[:-5] + [_SPECIALS[1], _SPECIALS[0], *_SPECIALS[2:]],
    "extra-special": lambda lines: lines[:-6] + ["specials 6", *_SPECIALS, "cls <|cls|>"],
    "count": lambda lines: lines[:-6] + ["specials 05", *_SPECIALS],
    "missing-special": lambda lines: lines[:-6] + ["specials 4", *_SPECIALS[:4]],
    "trailing-line": lambda lines: lines + [""],
}


@pytest.mark.parametrize("edit", _SPECIALS_EDITS.values(), ids=_SPECIALS_EDITS.keys())
def test_specials_other_than_the_saved_section_name_file_and_line(tmp_path, english_vocab, edit):
    path = tmp_path / "vocab.txt"
    save_vocab(english_vocab, str(path))
    saved = path.read_text(encoding="utf-8").splitlines()
    lines = edit(saved)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    line = next(i for i, (a, b) in enumerate(zip(lines + [None], saved + [None])) if a != b) + 1
    with pytest.raises(TokenizerError, match="^" + re.escape(f"{path}:{line}: ")):
        load_vocab(str(path))


def test_canonical_spellings_load(tmp_path):
    vocab = TokenizerVocab([b"%", b" ", b"\xff", b"!", b"~"], [(b"!", b"~")])
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[2:9] == ["%25", "%20", "%FF", "!", "~", "merges 1", "! ~"]
    loaded = load_vocab(str(path))
    assert (loaded.alphabet, loaded.merges) == (vocab.alphabet, vocab.merges)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(symbol=st.binary(min_size=1))
def test_any_symbol_round_trips_through_the_file(tmp_path, symbol):
    vocab = TokenizerVocab([symbol], [(symbol, symbol)])
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, str(path))
    loaded = load_vocab(str(path))
    assert (loaded.alphabet, loaded.merges) == (vocab.alphabet, vocab.merges)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something else\n")
    with pytest.raises(TokenizerError):
        load_vocab(str(path))


@pytest.mark.parametrize("target", [30000, 30522, 21128, 26240, 29752])
def test_reference_vocabulary_sizes_are_accepted(target):
    vocab = train_bpe("plenty of words " * 3, target)
    assert vocab.size <= target


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.ascii_lowercase + " .,\n", max_size=60))
def test_round_trip_property(text):
    vocab = _PROPERTY_VOCAB
    assert decode(encode(text, vocab), vocab) == text


_PROPERTY_VOCAB = train_bpe(string.ascii_lowercase + " .,\n" + " the and cat dog" * 5, 300)


def _saved_vocab_bytes(tmp_path) -> bytes:
    path = tmp_path / "full.txt"
    save_vocab(_PROPERTY_VOCAB, str(path))
    return path.read_bytes()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncated_vocab_raises_tokenizer_error(tmp_path, data):
    raw = _saved_vocab_bytes(tmp_path)
    path = tmp_path / "cut.txt"
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
    with pytest.raises(TokenizerError):
        load_vocab(str(path))


def test_every_line_boundary_truncation_is_rejected(tmp_path):
    raw = _saved_vocab_bytes(tmp_path)
    ends = [i + 1 for i, b in enumerate(raw) if b == ord("\n")]
    assert ends[-1] == len(raw)
    path = tmp_path / "cut.txt"
    for end in ends[:-1]:
        path.write_bytes(raw[:end])
        with pytest.raises(TokenizerError):
            load_vocab(str(path))
    path.write_bytes(raw)
    assert load_vocab(str(path)) == _PROPERTY_VOCAB


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), junk=st.binary(min_size=1, max_size=4))
def test_garbled_vocab_loads_or_raises_tokenizer_error(tmp_path, data, junk):
    raw = _saved_vocab_bytes(tmp_path)
    start = data.draw(st.integers(0, len(raw) - 1), label="offset")
    path = tmp_path / "garbled.txt"
    path.write_bytes(raw[:start] + junk + raw[start + len(junk) :])
    try:
        vocab = load_vocab(str(path))
    except TokenizerError:
        return
    # whatever loads saves again to a file that loads back the same vocabulary
    save_vocab(vocab, str(path))
    assert load_vocab(str(path)) == vocab
