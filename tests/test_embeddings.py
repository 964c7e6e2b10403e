import errno
import gc
import hashlib
import io
import os
import random
import struct
import warnings
from decimal import Decimal

import numpy as np
import pytest

from softprove import embeddings
from softprove.embeddings import (
    BLOCK_LINES,
    CACHE_MAGIC,
    EmbeddingError,
    EmbeddingStore,
    load_embeddings,
    load_embeddings_cached,
    read_cache,
    symbol_embedding,
    weak_unify_score,
    write_cache,
)
from conftest import data_path
from genutil import cosine_pair_table, reference_vectors


def _stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


def test_load_two_line_stream():
    store = load_embeddings(_stream("cat 1.0 0.0 0.0\ndog 0.0 1.0 0.0\n"))
    assert store.vocab_size == 2
    assert store.dimension == 3


def test_load_leaves_the_callers_stream_open():
    # a load, then failed loads: a structural fault, and each text of _FAULTS
    for text in ("cat 1.0 0.0\ndog 0.0 1.0\n", "cat 1.0\ndog 1.0 2.0\n", *(text for text, _ in _FAULTS.values())):
        stream = _stream(text)
        try:
            load_embeddings(stream)
        except EmbeddingError:
            pass
        gc.collect()
        assert not stream.closed
        stream.seek(0)
        assert stream.read(3) == b"cat"


def test_dimension_mismatch_reports_line():
    with pytest.raises(EmbeddingError, match=r"^line 2: expected 3 components, got 4$"):
        load_embeddings(_stream("cat 1.0 0.0 0.0\ndog 0.0 1.0 0.0 9.9\n"))


def test_format_error_on_non_numeric():
    with pytest.raises(EmbeddingError, match=r"^line 1: non-numeric vector component$"):
        load_embeddings(_stream("cat 1.0 zero 0.0\n"))


@pytest.mark.parametrize("numeral", ["nan", "inf", "1e39"])  # 1e39 overflows float32 to inf
def test_non_finite_component_names_its_token(numeral):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is an error, not a warning
        with pytest.raises(EmbeddingError, match=r"^token 'kick' has a non-finite vector component$"):
            load_embeddings(_stream(f"harm 1.0 0.0\nkick {numeral} 0.0\ndog 0.0 1.0\n"))
        with pytest.raises(EmbeddingError, match=r"^token 'kick' has a non-finite vector component$"):
            EmbeddingStore(2, {"harm": [1.0, 0.0], "kick": [float(numeral), 0.0], "dog": [0.0, 1.0]})


def test_empty_source():
    with pytest.raises(EmbeddingError, match="contains no vector lines"):
        load_embeddings(_stream(""))
    with pytest.raises(EmbeddingError, match="contains no vector lines"):
        load_embeddings(_stream("\n\n"))


@pytest.mark.parametrize("limit", [0, -3])
def test_limit_below_one_is_rejected(limit):
    with pytest.raises(EmbeddingError, match=rf"^limit must be at least 1, got {limit}$"):
        load_embeddings(_stream("a 1.0\nb 2.0\n"), limit=limit)


def test_limit_loads_prefix_only():
    store = load_embeddings(_stream("a 1.0\nb 2.0\nc 3.0\n"), limit=2)
    assert store.vocab_size == 2
    assert "c" not in store


def test_duplicate_tokens_first_wins():
    store = load_embeddings(_stream("cat 1.0\ncat 2.0\n"))
    assert store.vocab_size == 1
    assert float(store.token_vector("cat")[0]) == 1.0


def test_tokens_are_lowercased():
    store = load_embeddings(_stream("Cat 1.0 0.0\n"))
    assert "cat" in store


def _filler(count: int, start: int = 0) -> list[str]:
    return [f"w{i} {i % 7}.5 -{i % 3}e-2\n" for i in range(start, start + count)]


# Faulty texts and the error each must give: that of the first fault in file
# order.
_FAULTS = {
    # a bad numeral on line 4, a dimension mismatch on line 7 of the same block
    "numeral-before-mismatch": (
        "cat 1 2\n" + "".join(_filler(2)) + "bad 1 x\n" + "".join(_filler(2, 2)) + "short 1\n",
        "line 4: non-numeric vector component",
    ),
    # a bad numeral on line 2, no components at all on line 3
    "numeral-before-missing-components": ("cat 1 2\ndog 3 x\nfrog\n", "line 2: non-numeric vector component"),
    # nothing after the token, which loadtxt would skip as an empty line
    "nothing-after-token": ("cat 1\ndog 2\nfrog \ntoad 3\n", "line 3: non-numeric vector component"),
    "only-nothing-after-token": ("cat \n", "line 1: non-numeric vector component"),
    # two blocks, two blank lines, then a bad numeral in the third block
    "third-block": (
        "cat 1 2\n" + "".join(_filler(2 * BLOCK_LINES - 1)) + "\n\n" + "".join(_filler(40)) + "bad 1 1e\n"
        + "".join(_filler(20)),
        f"line {2 * BLOCK_LINES + 43}: non-numeric vector component",
    ),
    # the first line for "cat" wins, but the later one must still parse
    "repeated-token": ("cat 1 2\ndog 3 4\nCAT 5 five\n", "line 3: non-numeric vector component"),
    # loadtxt strips an ASCII separator around a numeral; float does not
    "separator": ("cat 1 2\ndog 3 \x1c4\n", "line 2: non-numeric vector component"),
    # a dimension mismatch on line 3 comes before the bad numeral on line 4
    "mismatch-before-numeral": ("cat 1 2\ndog 3 4\nfrog 5\ntoad 6 x\n", "line 3: expected 2 components, got 1"),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_first_fault_in_file_order_is_reported(fault):
    text, message = _FAULTS[fault]
    with pytest.raises(EmbeddingError) as reference:
        reference_vectors(text.encode("utf-8"))
    assert str(reference.value) == message
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt's "input contained no data" included
        with pytest.raises(EmbeddingError) as excinfo:
            load_embeddings(_stream(text))
    assert str(excinfo.value) == message


# Texts that are not UTF-8 and the error each must give.
_NOT_UTF8 = {
    # two tokens that differ only in a Latin-1 byte
    "latin1-tokens": (b"caf\xe9 1.0 0.0\ncaf\xe8 0.0 1.0\n", "line 1: not valid UTF-8"),
    # a bad byte in a numeral is named as such, not as a bad numeral
    "in-a-numeral": (b"cat 1.0 0.0\ndog 1.0 0.\xff\n", "line 2: not valid UTF-8"),
    # a truncated two-byte sequence at the end of the text
    "truncated-at-end": (b"cat 1.0 0.0\ndog 1.0 0.0\xc3", "line 2: not valid UTF-8"),
    # an encoded surrogate, past two blocks and two blank lines
    "third-block": (
        ("cat 1 2\n" + "".join(_filler(2 * BLOCK_LINES - 1)) + "\n\n").encode() + b"\xed\xa0\x80 1 2\n",
        f"line {2 * BLOCK_LINES + 3}: not valid UTF-8",
    ),
    # a bad numeral earlier in the same block is reported first
    "numeral-first": (b"cat 1 2\ndog 3 x\ncaf\xe9 1 2\n", "line 2: non-numeric vector component"),
}


@pytest.mark.parametrize("fault", sorted(_NOT_UTF8))
def test_text_that_is_not_utf8_names_its_line(fault):
    data, message = _NOT_UTF8[fault]
    with pytest.raises(EmbeddingError) as excinfo:
        load_embeddings(io.BytesIO(data))
    assert str(excinfo.value) == message


def test_utf8_tokens_load_also_across_the_decoders_reads():
    # "é" is two bytes, and the text wrapper decodes reads of 8,192 bytes:
    # the filler puts one byte on each side of the first boundary
    filler = "".join(f"w{i} 1 2\n" for i in range(800)).encode()
    token = "x" * (8191 - len(filler)) + "é"
    data = filler + f"{token} 1 2\nÉt 3 4\n".encode()
    assert data[8191:8193] == "é".encode()
    store = load_embeddings(io.BytesIO(data))
    assert store.tokens()[-2:] == [token, "ét"]
    assert load_embeddings(io.BytesIO(b"cat 1 2\ncaf\xe9 1 2\n"), limit=1).tokens() == ["cat"]  # past the limit


def test_cached_loader_rejects_text_that_is_not_utf8(tmp_path):
    source = tmp_path / "vectors.txt"
    source.write_bytes(_NOT_UTF8["latin1-tokens"][0])
    cache = tmp_path / "vectors.spemb"
    with pytest.raises(EmbeddingError, match=r"^line 1: not valid UTF-8$"):
        load_embeddings_cached(source, cache)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vectors.txt"]  # no cache, no partial file


def _midpoint_numerals(rng: np.random.Generator) -> list[str]:
    """Numerals at the midpoint between two adjacent float32 values: in 17
    significant digits and in shortest form, one double either side of it,
    and its exact decimal with a digit added far past the last, which rounds
    to float32 by the tie rule through float64 but away from it if parsed
    to float32 directly."""
    low = np.float32(rng.uniform(-4.0, 4.0) * 10.0 ** rng.integers(-30, 30))
    high = np.nextafter(low, np.float32(np.inf))
    mid = (float(low) + float(high)) / 2.0  # exact in float64
    below, above = np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)
    mantissa, exponent = format(Decimal(mid), "e").split("e")
    just_past = f"{mantissa}{'' if '.' in mantissa else '.'}00000001e{exponent}"
    return [f"{mid:.17g}", repr(mid), f"{below:.17g}", f"{above:.17g}", just_past]


_SPELLINGS = ["1.", ".5", "-.5", "+3", "-0.0", "0.0", "1e-50", "-1E+20", "2.5e-3", "7E3", "1e-45", "3.4028235e38"]
_FLOAT_ONLY = ["1_0", "١٢", "１", "0.000_01"]  # numerals only Python's float takes


def _awkward_vocabulary(seed: int, dimension: int = 6) -> bytes:
    """Three and a half blocks of vector lines with CRLF endings and no
    newline after the last line: 17-digit numerals at float32 rounding
    midpoints, every spelling of ``_SPELLINGS``, numerals of ``_FLOAT_ONLY``
    in the middle of the file, a few blank lines, and tokens repeated in
    other cases, also across blocks."""
    rng = np.random.default_rng(seed)
    count = 3 * BLOCK_LINES + BLOCK_LINES // 2
    float_only = dict(zip(range(count // 2, count, 3), _FLOAT_ONLY))  # line index -> numeral
    lines: list[str] = []
    for i in range(count):
        if i % 97 == 13:
            lines.append("")
        token = f"Tok{i}" if i < 10 or i % 41 else f"TOK{int(rng.integers(0, i // 2))}"  # an earlier token
        components = []
        for _ in range(dimension):
            pick = rng.random()
            if pick < 0.45:
                components.append(rng.choice(_midpoint_numerals(rng)))
            elif pick < 0.6:
                components.append(str(rng.choice(_SPELLINGS)))
            else:
                components.append(repr(float(rng.normal())))
        if i in float_only:
            components[int(rng.integers(0, dimension))] = float_only[i]
        lines.append(f"{token} " + " ".join(components))
    return "\r\n".join(lines).encode("utf-8")


@pytest.mark.parametrize("limit", [None, 2 * BLOCK_LINES + 37])
def test_block_load_matches_the_per_line_reference(limit):
    data = _awkward_vocabulary(seed=41)
    tokens, matrix = reference_vectors(data, limit=limit)
    store = load_embeddings(io.BytesIO(data), limit=limit)
    assert store.tokens() == tokens
    assert len(tokens) > (limit or 3 * BLOCK_LINES) * 0.9  # most lines hold a new token
    loaded = np.stack([store.token_vector(token) for token in tokens])
    assert loaded.dtype == matrix.dtype == np.float32
    assert loaded.tobytes() == matrix.tobytes()


# -- symbol embedding --------------------------------------------------------------


def test_symbol_embedding_mean_of_tokens(demo_store):
    physical = demo_store.token_vector("physical")
    harm = demo_store.token_vector("harm")
    combined = symbol_embedding(demo_store, "physical_harm")
    assert combined is not None
    np.testing.assert_allclose(combined, (physical + harm) / 2.0)


def test_symbol_embedding_all_oov_is_absent(demo_store):
    assert symbol_embedding(demo_store, "xqzwv_qqq") is None


def test_symbol_embedding_single_token_identity(demo_store):
    np.testing.assert_array_equal(
        symbol_embedding(demo_store, "crush"), demo_store.token_vector("crush")
    )


def test_symbol_embedding_skips_oov_tokens(demo_store):
    with_oov = symbol_embedding(demo_store, "xqzwv_crush")
    np.testing.assert_array_equal(with_oov, demo_store.token_vector("crush"))


# -- weak unification score ---------------------------------------------------------


def test_identity_fast_path_without_vectors():
    store = EmbeddingStore.empty()
    assert weak_unify_score(store, "frog", "frog") == 1.0
    assert weak_unify_score(store, "frog", "toad") == 0.0


def test_demo_ordering(demo_store):
    pf = weak_unify_score(demo_store, "physical_harm", "pushing_force")
    comp = weak_unify_score(demo_store, "physical_harm", "compression")
    crush = weak_unify_score(demo_store, "physical_harm", "crush")
    assert pf > comp > crush >= 0.5


def test_absent_symbol_scores_zero(demo_store):
    assert weak_unify_score(demo_store, "physical_harm", "zzzznope") == 0.0


def test_negative_cosine_clamps_to_zero():
    store = EmbeddingStore(2, {"up": np.array([1.0, 0.0]), "down": np.array([-1.0, 0.0])})
    assert weak_unify_score(store, "up", "down") == 0.0


def test_zero_norm_vector_scores_zero():
    store = EmbeddingStore(2, {"null": np.zeros(2), "up": np.array([1.0, 0.0])})
    assert weak_unify_score(store, "null", "up") == 0.0


def test_symmetry_against_direct_cosine_500_pairs(demo_store):
    rng = random.Random(13)
    tokens = sorted(demo_store.tokens())
    direct = cosine_pair_table({t: np.asarray(demo_store.token_vector(t), dtype=np.float64) for t in tokens})
    for _ in range(500):
        a, b = rng.choice(tokens), rng.choice(tokens)
        forward = weak_unify_score(demo_store, a, b)
        backward = weak_unify_score(demo_store, b, a)
        assert forward == backward
        assert forward == pytest.approx(direct(a, b), abs=1e-9)
        assert 0.0 <= forward <= 1.0


def test_scores_identical_with_and_without_cache(demo_store):
    fresh = EmbeddingStore(demo_store.dimension, {t: demo_store.token_vector(t) for t in demo_store.tokens()})
    pairs = [("physical_harm", "pushing_force"), ("crush", "compression"), ("frog", "animal")]
    warmed = [weak_unify_score(demo_store, a, b) for a, b in pairs]
    warmed_again = [weak_unify_score(demo_store, a, b) for a, b in pairs]  # cache hits
    cold = [weak_unify_score(fresh, a, b) for a, b in pairs]
    assert warmed == warmed_again == cold


# -- binary cache -------------------------------------------------------------------


def test_cache_round_trip(tmp_path, demo_store):
    cache = tmp_path / "demo.spemb"
    write_cache(demo_store, cache, source_hash=b"\x01" * 32, limit=None)
    loaded, source_hash, limit = read_cache(cache)
    assert source_hash == b"\x01" * 32
    assert limit is None
    assert loaded.vocab_size == demo_store.vocab_size
    assert loaded.dimension == demo_store.dimension
    for token in demo_store.tokens():
        np.testing.assert_array_equal(loaded.token_vector(token), demo_store.token_vector(token))


def test_cached_loader_detects_source_change(tmp_path):
    source = tmp_path / "vectors.txt"
    cache = tmp_path / "vectors.spemb"
    source.write_text("cat 1.0 0.0\n")
    first = load_embeddings_cached(source, cache)
    assert cache.exists()
    assert first.vocab_size == 1
    source.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
    second = load_embeddings_cached(source, cache)
    assert second.vocab_size == 2  # cache was regenerated on hash change


def test_cached_loader_scores_bit_identical(tmp_path, demo_store):
    source = tmp_path / "demo.txt"
    lines = []
    for token in demo_store.tokens():
        vec = demo_store.token_vector(token)
        lines.append(token + " " + " ".join(repr(float(x)) for x in vec))
    source.write_text("\n".join(lines) + "\n")
    direct = load_embeddings(source)
    cached_path = tmp_path / "demo.spemb"
    load_embeddings_cached(source, cached_path)  # builds the cache
    via_cache = load_embeddings_cached(source, cached_path)  # reads it back
    for a, b in [("physical_harm", "pushing_force"), ("the_frog", "frog"), ("leave", "leave_without_permission")]:
        assert weak_unify_score(direct, a, b) == weak_unify_score(via_cache, a, b)


def test_cache_magic_guard(tmp_path):
    bogus = tmp_path / "bogus.spemb"
    bogus.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(EmbeddingError):
        read_cache(bogus)


def _vectors_text(rng: random.Random, tokens, dimension: int) -> str:
    return "".join(
        token + " " + " ".join(repr(rng.uniform(-1.0, 1.0)) for _ in range(dimension)) + "\n" for token in tokens
    )


def _first_wins_mapping(text: str, limit):
    """The vocabulary a text load should give, parsed with ``float`` and kept as
    a mapping whose keys keep the case of each token's first line."""
    mapping, seen = {}, set()
    for line in text.splitlines()[:limit]:
        token, *components = line.split(" ")
        if token.lower() not in seen:
            seen.add(token.lower())
            mapping[token] = np.array([float(c) for c in components])
    return mapping


def _demo_symbols(demo_store, principle_doc) -> list[str]:
    predicates = {a.predicate for rule in principle_doc.rules for a in (rule.head, *rule.body)}
    extra = {"physical_harm", "pushing_force", "the_frog", "leave_without_permission", "xqzwv_crush"}
    return sorted(set(demo_store.tokens()) | predicates | extra)


@pytest.mark.parametrize("limit", [None, 2, 3])
def test_text_cache_and_mapping_stores_agree_bit_for_bit(tmp_path, monkeypatch, demo_store, principle_doc, limit):
    rng = random.Random(29)
    tokens = []
    for i, token in enumerate(demo_store.tokens()):
        tokens.append((token.upper(), token.capitalize(), token)[i % 3])
        if i % 5 == 2:  # a later line for the same token, in another case: the first wins
            tokens.append(token.swapcase())
    text = _vectors_text(rng, tokens, 6)
    source = tmp_path / "vectors.txt"
    source.write_text(text, "utf-8")
    cache = tmp_path / "vectors.spemb"

    from_text = load_embeddings(source, limit=limit)
    load_embeddings_cached(source, cache, limit=limit)  # writes the cache

    def no_text_load(*args, **kwargs):
        raise AssertionError("the second load should read the cache")

    monkeypatch.setattr(embeddings, "load_embeddings", no_text_load)
    from_cache = load_embeddings_cached(source, cache, limit=limit)
    from_mapping = EmbeddingStore(6, _first_wins_mapping(text, limit))

    expected_tokens = list(dict.fromkeys(t.lower() for t in tokens[:limit]))
    symbols = _demo_symbols(demo_store, principle_doc)
    for store in (from_text, from_cache, from_mapping):
        assert store.tokens() == expected_tokens
        assert store.vocab_size == len(expected_tokens)
    for token in expected_tokens:
        vectors = [store.token_vector(token) for store in (from_text, from_cache, from_mapping)]
        assert {(v.dtype.str, v.tobytes()) for v in vectors} == {("<f4", vectors[0].tobytes())}, token
    scores = [
        [weak_unify_score(store, a, b).hex() for a in symbols for b in symbols]
        for store in (from_text, from_cache, from_mapping)
    ]
    assert scores[0] == scores[1] == scores[2]
    assert any(s != (0.0).hex() and s != (1.0).hex() for s in scores[0])


def _spemb1_bytes(store: EmbeddingStore, source_hash: bytes) -> bytes:
    """The previous cache layout: per-token length-prefixed names."""
    tokens = store.tokens()
    out = bytearray(b"SPEMB1" + source_hash + struct.pack("<III", 0, store.dimension, len(tokens)))
    for token in tokens:
        raw = token.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw
    out += np.stack([store.token_vector(t) for t in tokens]).astype("<f4").tobytes()
    return bytes(out)


def _count_disagrees_with_blob(good: bytes, dimension: int) -> bytes:
    """One fewer token in the header than in the blob, the matrix cut to match
    the header, so that only the token count is wrong."""
    at = len(CACHE_MAGIC) + 32 + 8
    (count,) = struct.unpack_from("<I", good, at)
    return good[:at] + struct.pack("<I", count - 1) + good[at + 4 : len(good) - 4 * dimension]


@pytest.mark.parametrize(
    "damage",
    ["spemb1_layout", "spemb2_magic", "truncated_by_one_byte", "count_disagrees_with_blob", "blob_past_the_end"],
)
def test_damaged_or_old_cache_is_rebuilt(tmp_path, damage):
    source = tmp_path / "vectors.txt"
    source.write_text(_vectors_text(random.Random(31), ["cat", "dog", "Frog", "toad"], 4), "utf-8")
    cache = tmp_path / "vectors.spemb"
    expected = load_embeddings(source)
    load_embeddings_cached(source, cache)
    good = cache.read_bytes()
    if damage == "spemb1_layout":
        cache.write_bytes(_spemb1_bytes(expected, hashlib.sha256(source.read_bytes()).digest()))
    elif damage == "spemb2_magic":
        # The same layout under the previous magic, which a text loader that
        # read bad UTF-8 as U+FFFD may have built.
        cache.write_bytes(b"SPEMB2" + good[len(CACHE_MAGIC) :])
    elif damage == "truncated_by_one_byte":
        cache.write_bytes(good[:-1])
    elif damage == "blob_past_the_end":  # read_cache must not ask for 4 GiB of token blob
        at = len(CACHE_MAGIC) + 32 + 12
        cache.write_bytes(good[:at] + struct.pack("<I", 0xFFFFFFFF) + good[at + 4 :])
    else:
        cache.write_bytes(_count_disagrees_with_blob(good, expected.dimension))

    with pytest.raises(EmbeddingError):
        read_cache(cache)
    rebuilt = load_embeddings_cached(source, cache)
    assert rebuilt.tokens() == expected.tokens()
    for token in expected.tokens():
        assert rebuilt.token_vector(token).tobytes() == expected.token_vector(token).tobytes()
    assert cache.read_bytes() == good
    assert read_cache(cache)[0].tokens() == expected.tokens()


def test_cache_an_older_version_built_from_bad_utf8_is_not_loaded(tmp_path):
    # The previous text loader read bytes that are not UTF-8 as U+FFFD and
    # cached the mangled tokens under the source's hash with the same layout.
    source = tmp_path / "latin1.txt"
    source.write_bytes(b"caf\xe9 1.0 0.0\ncaf\xe8 0.0 1.0\n")
    cache = tmp_path / "latin1.spemb"
    mangled = EmbeddingStore(2, {"caf\ufffd": np.array([1.0, 0.0])})
    write_cache(mangled, cache, hashlib.sha256(source.read_bytes()).digest(), limit=None)
    cache.write_bytes(b"SPEMB2" + cache.read_bytes()[len(CACHE_MAGIC) :])
    with pytest.raises(EmbeddingError, match="line 1: not valid UTF-8"):
        load_embeddings_cached(source, cache)


def test_cache_rejects_a_token_with_a_newline(tmp_path):
    store = EmbeddingStore(2, {"two\nlines": np.array([1.0, 0.0]), "one": np.array([0.0, 1.0])})
    cache = tmp_path / "newline.spemb"
    with pytest.raises(EmbeddingError):
        write_cache(store, cache, source_hash=b"\x02" * 32, limit=None)
    assert list(tmp_path.iterdir()) == []


class _DiskFull:
    """A file with room for ``room`` bytes: a write past them stores what fits
    and fails with ENOSPC."""

    def __init__(self, fh, room: int):
        self.fh = fh
        self.room = room

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        raw = memoryview(data).cast("B")
        self.fh.write(raw[: self.room])
        if len(raw) > self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(raw)
        return len(raw)


def test_failed_cache_write_leaves_the_previous_cache(tmp_path, monkeypatch):
    source = tmp_path / "vectors.txt"
    cache = tmp_path / "vectors.spemb"
    source.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
    load_embeddings_cached(source, cache)
    before = cache.read_bytes()

    real_open = open

    def open_with_full_disk(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return fh if mode.startswith("r") else _DiskFull(fh, room=64)

    monkeypatch.setattr(embeddings, "open", open_with_full_disk, raising=False)
    source.write_text("cat 1.0 0.0\ndog 0.0 1.0\nfrog 0.5 0.5\n")
    with pytest.raises(OSError) as excinfo:
        load_embeddings_cached(source, cache)
    assert excinfo.value.errno == errno.ENOSPC
    monkeypatch.undo()

    assert cache.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vectors.spemb", "vectors.txt"]
    store, _, _ = read_cache(cache)
    assert store.tokens() == ["cat", "dog"]
    assert load_embeddings_cached(source, cache).tokens() == ["cat", "dog", "frog"]


def test_cached_loader_detects_a_same_size_source_change(tmp_path):
    source = tmp_path / "vectors.txt"
    cache = tmp_path / "vectors.spemb"
    source.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
    load_embeddings_cached(source, cache)
    stat = source.stat()
    source.write_text("cat 1.0 0.0\ndog 0.0 2.0\n")
    os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # size and mtime as before
    assert source.stat().st_size == stat.st_size
    store = load_embeddings_cached(source, cache)
    assert store.token_vector("dog").tolist() == [0.0, 2.0]


# -- a store read from the cache ------------------------------------------------------


def _cache_of(tmp_path, store: EmbeddingStore, name: str = "vectors.spemb"):
    cache = tmp_path / name
    write_cache(store, cache, source_hash=b"\x03" * 32, limit=None)
    return cache


def test_cache_and_text_stores_agree_on_every_demo_token(tmp_path):
    source = data_path("demo_vectors.txt")
    from_text = load_embeddings(source)
    cache = tmp_path / "demo.spemb"
    load_embeddings_cached(source, cache)  # builds the cache from the text
    with load_embeddings_cached(source, cache) as from_cache:
        assert from_cache.tokens() == from_text.tokens()
        for token in from_text.tokens():
            cached, text = from_cache.token_vector(token), from_text.token_vector(token)
            assert (cached.dtype.str, cached.shape, cached.tobytes()) == (text.dtype.str, text.shape, text.tobytes())
            assert not cached.flags.writeable


def test_read_cache_reads_only_the_header_and_the_tokens_until_a_row_is_asked_for(tmp_path, monkeypatch):
    store = EmbeddingStore(3, {f"t{i}": np.full(3, i, dtype=np.float32) for i in range(50)})
    cache = _cache_of(tmp_path, store)
    read = []
    real_pread = os.pread

    def counting_pread(fd, size, offset):
        data = real_pread(fd, size, offset)
        read.append(len(data))
        return data

    monkeypatch.setattr(os, "pread", counting_pread)
    loaded, _, _ = read_cache(cache)
    matrix_bytes = 50 * 3 * 4
    assert sum(read) == cache.stat().st_size - matrix_bytes
    assert loaded.token_vector("t7").tolist() == [7.0, 7.0, 7.0]
    assert sum(read) == cache.stat().st_size - matrix_bytes + 3 * 4
    loaded.close()


def test_cache_store_keeps_its_vectors_after_the_cache_is_replaced(tmp_path):
    first = EmbeddingStore(2, {"cat": np.array([1.0, 0.0]), "dog": np.array([0.0, 1.0])})
    cache = _cache_of(tmp_path, first)
    with read_cache(cache)[0] as loaded:
        assert loaded.token_vector("cat").tolist() == [1.0, 0.0]
        second = EmbeddingStore(2, {"cat": np.array([5.0, 5.0]), "dog": np.array([7.0, 7.0])})
        _cache_of(tmp_path, second)  # a new file moved over the old name
        assert read_cache(cache)[0].token_vector("dog").tolist() == [7.0, 7.0]
        assert loaded.token_vector("cat").tolist() == [1.0, 0.0]
        assert loaded.token_vector("dog").tolist() == [0.0, 1.0]


def test_cache_truncated_in_place_makes_a_row_read_fail(tmp_path):
    store = EmbeddingStore(2, {"cat": np.array([1.0, 0.0]), "dog": np.array([0.0, 1.0])})
    cache = _cache_of(tmp_path, store)
    with read_cache(cache)[0] as loaded:
        with open(cache, "r+b") as fh:
            fh.truncate(cache.stat().st_size - 4)
        assert loaded.token_vector("cat").tolist() == [1.0, 0.0]
        with pytest.raises(EmbeddingError, match="ends before row 1"):
            loaded.token_vector("dog")


@pytest.mark.parametrize("kind", ["cache", "text"])
def test_store_after_close_raises(tmp_path, kind):
    text = tmp_path / "vectors.txt"
    text.write_text("cat 1.0 0.0\ndog 0.0 1.0\n")
    store = read_cache(_cache_of(tmp_path, load_embeddings(text)))[0] if kind == "cache" else load_embeddings(text)
    store.close()
    store.close()  # closing twice is harmless
    with pytest.raises(EmbeddingError, match="closed"):
        store.token_vector("cat")
    with pytest.raises(EmbeddingError, match="closed"):
        weak_unify_score(store, "cat", "dog")
    assert store.token_vector("frog") is None  # an unknown token needs no row
    assert store.vocab_size == 2


def test_a_dropped_cache_store_closes_its_descriptor(tmp_path):
    store = read_cache(_cache_of(tmp_path, EmbeddingStore(2, {"cat": np.array([1.0, 0.0])})))[0]
    finalizer = store._vectors.close
    assert finalizer.alive
    del store
    gc.collect()
    assert not finalizer.alive


def test_a_rejected_cache_leaves_no_descriptor_open(tmp_path):
    good = _cache_of(tmp_path, EmbeddingStore(2, {"cat": np.array([1.0, 0.0])})).read_bytes()
    bad = tmp_path / "bad.spemb"
    bad.write_bytes(good[:-1])
    opened = []
    real_open = os.open

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "open", recording_open)
        with pytest.raises(EmbeddingError):
            read_cache(bad)
    with pytest.raises(OSError):
        os.fstat(opened[0])


def test_writing_a_cache_loaded_store_gives_the_same_cache(tmp_path, monkeypatch):
    rng = random.Random(37)
    text = tmp_path / "vectors.txt"
    text.write_text(_vectors_text(rng, [f"w{i}" for i in range(11)], 5), "utf-8")
    monkeypatch.setattr(embeddings, "_WRITE_ROWS", 4)  # three blocks, the last one short
    first = _cache_of(tmp_path, load_embeddings(text), "first.spemb")
    with read_cache(first)[0] as loaded:
        second = _cache_of(tmp_path, loaded, "second.spemb")
    assert second.read_bytes() == first.read_bytes()
