"""Byte-pair-encoding tokenizer with a reversible word-boundary scheme.

Training is byte level: the base alphabet is the set of bytes observed in
the corpus, so any text over that alphabet round-trips.  Merges are learned
inside whitespace-delimited words only, which keeps the vocabulary free of
duplicated boundary-marked variants (one token "happy", never a second
"_happy").

Every single space becomes the dedicated splitter special token, so
``decode(encode(text)) == text`` exactly for any text over the training
alphabet.

Vocabulary file grammar (UTF-8, line oriented)::

    stacklm-bpe v1
    alphabet <count>
    <symbol>                   # one per base symbol, id order
    merges <count>
    <left> <right>             # one per merge, id order
    specials <count>
    <name> <sentinel>          # one per special, id order

Two rules hold for every vocabulary:

- Each symbol has one spelling: ``urllib.parse.quote_from_bytes`` with
  every printable ASCII byte but ``%`` kept as itself, so other bytes,
  ``%`` and the space are ``%XX`` in uppercase hex.  A reader rejects any
  other spelling of the same bytes, such as ``%41`` or ``%ff``.
- The specials are ids 0-4, in ``SPECIAL_NAMES`` order; the file records
  only their sentinels.

The file ends with a newline, so a reader can tell a complete file from a
truncated one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence
from urllib.parse import quote_from_bytes, unquote_to_bytes

from .fileio import atomic_write

MARKER = "▁".encode("utf-8")

SPECIAL_NAMES = ("end_of_document", "mask", "pad", "unknown", "splitter")

DEFAULT_SENTINELS = {
    "end_of_document": "<|eod|>",
    "mask": "<|mask|>",
    "pad": "<|pad|>",
    "unknown": "<|unk|>",
    "splitter": "<|split|>",
}


class TokenizerError(ValueError):
    pass


# bytes a symbol spells as themselves: printable ASCII but "%"
_SAFE = "".join(chr(b) for b in range(0x21, 0x7F) if b != 0x25)


def _merge_pair(symbols: Sequence[bytes], left: bytes, right: bytes) -> list[bytes]:
    """Join every adjacent ``(left, right)`` in ``symbols``, scanning left to right."""
    merged: list[bytes] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
            merged.append(left + right)
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return merged


@dataclass
class TokenizerVocab:
    """Ordered BPE vocabulary: specials, then base symbols, then merges."""

    alphabet: list[bytes]
    merges: list[tuple[bytes, bytes]]
    sentinels: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_SENTINELS))

    # unannotated, so class constants rather than fields: every vocabulary's specials are ids 0-4
    eod_id, mask_id, pad_id, unknown_id, splitter_id = range(len(SPECIAL_NAMES))
    special_ids = frozenset(range(len(SPECIAL_NAMES)))

    def __post_init__(self):
        self.id_to_token: list[bytes | None] = [None] * len(SPECIAL_NAMES)
        self.token_to_id: dict[bytes, int] = {}
        for sym in self.alphabet:
            if sym in self.token_to_id:
                raise TokenizerError(f"base symbol {sym!r} is listed twice")
            self.token_to_id[sym] = len(self.id_to_token)
            self.id_to_token.append(sym)
        self.merge_ranks: dict[tuple[bytes, bytes], int] = {}
        for rank, (left, right) in enumerate(self.merges):
            joined = left + right
            if joined in self.token_to_id:
                raise TokenizerError(f"merge {rank} would duplicate token {joined!r}")
            self.merge_ranks[(left, right)] = rank
            self.token_to_id[joined] = len(self.id_to_token)
            self.id_to_token.append(joined)
        self._word_cache: dict[bytes, tuple[int, ...]] = {}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def _merge_pass(self, symbols: list[bytes]) -> list[bytes]:
        while len(symbols) >= 2:
            best_rank = None
            for left, right in zip(symbols, symbols[1:]):
                rank = self.merge_ranks.get((left, right))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
            if best_rank is None:
                break
            symbols = _merge_pair(symbols, *self.merges[best_rank])
        return symbols

    def _encode_segment(self, segment: bytes) -> tuple[int, ...]:
        cached = self._word_cache.get(segment)
        if cached is not None:
            return cached
        # unknown bytes split the segment; merges never bridge them
        ids: list[int] = []
        run: list[bytes] = []

        def flush():
            for sym in self._merge_pass(run):
                ids.append(self.token_to_id[sym])
            run.clear()

        for i in range(len(segment)):
            sym = segment[i : i + 1]
            if sym in self.token_to_id:
                run.append(sym)
            else:
                flush()
                ids.append(self.unknown_id)
        flush()
        return self._word_cache.setdefault(segment, tuple(ids))


def train_bpe(corpus: str | Iterable[str], target_vocab_size: int) -> TokenizerVocab:
    """Learn a BPE vocabulary by greedy highest-frequency pair merging.

    Merging stops at ``target_vocab_size`` total entries or when no pair
    occurs at least twice.  Ties break to the lexicographically smallest
    pair so training is deterministic.
    """
    if isinstance(corpus, str):
        corpus = [corpus]
    word_counts: Counter[bytes] = Counter()
    seen_bytes: set[int] = set()
    for chunk in corpus:
        raw = chunk.encode("utf-8")
        seen_bytes.update(raw)
        for word in raw.split():
            word_counts[word] += 1
    if not seen_bytes:
        raise TokenizerError("cannot train a vocabulary on an empty corpus")

    alphabet = [bytes([b]) for b in sorted(seen_bytes)]
    # No encoding emits the marker glyph, but every trained alphabet keeps it:
    # dropping it would renumber every merge id and change the vocabulary
    # size, and with it every seeded model.
    if MARKER not in alphabet:
        alphabet.append(MARKER)
    base_size = len(SPECIAL_NAMES) + len(alphabet)
    if target_vocab_size <= base_size:
        raise TokenizerError(
            f"target vocabulary size {target_vocab_size} must exceed "
            f"alphabet ({len(alphabet)}) plus specials ({len(SPECIAL_NAMES)})"
        )

    words: dict[tuple[bytes, ...], int] = {
        tuple(w[i : i + 1] for i in range(len(w))): c for w, c in word_counts.items()
    }
    merges: list[tuple[bytes, bytes]] = []
    produced: set[bytes] = set(alphabet)

    while base_size + len(merges) < target_vocab_size:
        pair_counts: Counter[tuple[bytes, bytes]] = Counter()
        for symbols, count in words.items():
            for pair in zip(symbols, symbols[1:]):
                pair_counts[pair] += count
        best_pair = None
        best_count = 1
        for pair, count in pair_counts.items():
            if pair[0] + pair[1] in produced:
                continue  # a duplicate token string would break the id bijection
            if count > best_count or (count == best_count and (best_pair is None or pair < best_pair)):
                best_pair, best_count = pair, count
        if best_pair is None or best_count < 2:
            break
        merges.append(best_pair)
        produced.add(best_pair[0] + best_pair[1])
        left, right = best_pair
        updated: dict[tuple[bytes, ...], int] = {}
        for symbols, count in words.items():
            if left in symbols and right in symbols:
                symbols = tuple(_merge_pair(symbols, left, right))
            updated[symbols] = updated.get(symbols, 0) + count
        words = updated

    return TokenizerVocab(alphabet, merges)


def encode(text: str, vocab: TokenizerVocab) -> list[int]:
    """Tokenize ``text``; every single space becomes the splitter token."""
    ids: list[int] = []
    for i, segment in enumerate(text.encode("utf-8").split(b" ")):
        if i > 0:
            ids.append(vocab.splitter_id)
        ids.extend(vocab._encode_segment(segment))
    return ids


def decode(ids: Sequence[int], vocab: TokenizerVocab) -> str:
    """Exact inverse of ``encode``; other specials decode to their sentinels."""
    pieces: list[bytes] = []
    for raw in ids:
        i = int(raw)
        if i < 0 or i >= vocab.size:
            raise IndexError(f"token id {i} outside vocabulary of size {vocab.size}")
        if i == vocab.splitter_id:
            pieces.append(b" ")
        elif i in vocab.special_ids:
            pieces.append(vocab.sentinels[SPECIAL_NAMES[i]].encode("utf-8"))
        else:
            pieces.append(vocab.id_to_token[i])
    return b"".join(pieces).decode("utf-8", errors="replace")


def save_vocab(vocab: TokenizerVocab, path: str) -> None:
    lines = ["stacklm-bpe v1", f"alphabet {len(vocab.alphabet)}"]
    lines.extend(quote_from_bytes(sym, _SAFE) for sym in vocab.alphabet)
    lines.append(f"merges {len(vocab.merges)}")
    lines.extend(f"{quote_from_bytes(l, _SAFE)} {quote_from_bytes(r, _SAFE)}" for l, r in vocab.merges)
    lines.append(f"specials {len(SPECIAL_NAMES)}")
    for name in SPECIAL_NAMES:
        lines.append(f"{name} {vocab.sentinels[name]}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_vocab(path: str) -> TokenizerVocab:
    """Read a file written by ``save_vocab``.

    A malformed file, or a symbol in any spelling but the one
    ``save_vocab`` writes, raises ``TokenizerError``.  ``save_vocab`` ends
    the file with a newline, so a file cut short anywhere is rejected too.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise TokenizerError(f"{path} is not UTF-8 text: {exc.reason}") from None
    lines = text.splitlines()
    if not lines or lines[0] != "stacklm-bpe v1":
        raise TokenizerError(f"{path} is not a stacklm-bpe v1 vocabulary file")
    if not text.endswith("\n"):
        raise TokenizerError(f"{path} is truncated: the last line has no newline")
    pos = 1

    def fields(what: str, n: int) -> list[str]:
        nonlocal pos
        if pos >= len(lines):
            raise TokenizerError(f"{path} ends early: expected {what} at line {pos + 1}")
        parts = lines[pos].split(maxsplit=n - 1)
        if len(parts) != n:
            raise TokenizerError(f"{path}:{pos + 1}: expected {what}, found {lines[pos]!r}")
        pos += 1
        return parts

    def header(expected: str) -> int:
        tag, count = fields(f"'{expected} <count>'", 2)
        if tag != expected or not (count.isascii() and count.isdigit()):
            raise TokenizerError(f"{path}:{pos}: expected '{expected} <count>', found {lines[pos - 1]!r}")
        return int(count)

    def symbols(what: str, n: int) -> list[bytes]:
        out = []
        for word in fields(what, n):  # never empty: fields splits on whitespace
            symbol = unquote_to_bytes(word)
            spelling = quote_from_bytes(symbol, _SAFE)
            if spelling != word:
                raise TokenizerError(f"{path}:{pos}: symbol {word!r} must be spelled {spelling!r}")
            out.append(symbol)
        return out

    alphabet = [symbols("a symbol", 1)[0] for _ in range(header("alphabet"))]
    merges = [tuple(symbols("'<left> <right>'", 2)) for _ in range(header("merges"))]
    sentinels = {}
    for _ in range(header("specials")):
        name, sentinel = fields("'<name> <sentinel>'", 2)
        sentinels[name] = sentinel
    if sorted(sentinels) != sorted(SPECIAL_NAMES):
        raise TokenizerError(f"{path}: specials must be {', '.join(SPECIAL_NAMES)}, found {', '.join(sentinels)}")
    try:
        return TokenizerVocab(alphabet, merges, sentinels)
    except TokenizerError as exc:
        raise TokenizerError(f"{path}: {exc}") from None
