import errno
import gc
import hashlib
import io
import os
import random
import struct

import numpy as np
import pytest

from softprove import embeddings
from softprove.embeddings import (
    DimensionMismatch,
    EmbeddingError,
    EmbeddingStore,
    EmptySource,
    FormatError,
    load_embeddings,
    load_embeddings_cached,
    read_cache,
    symbol_embedding,
    weak_unify_score,
    write_cache,
)
from genutil import cosine_pair_table


def _stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


def test_load_two_line_stream():
    store = load_embeddings(_stream("cat 1.0 0.0 0.0\ndog 0.0 1.0 0.0\n"))
    assert store.vocab_size == 2
    assert store.dimension == 3


def test_load_leaves_the_callers_stream_open():
    for text in ("cat 1.0 0.0\ndog 0.0 1.0\n", "cat 1.0\ndog 1.0 2.0\n"):  # a load and a failed load
        stream = _stream(text)
        try:
            load_embeddings(stream)
        except DimensionMismatch:
            pass
        gc.collect()
        assert not stream.closed
        stream.seek(0)
        assert stream.read(3) == b"cat"


def test_dimension_mismatch_reports_line():
    with pytest.raises(DimensionMismatch) as excinfo:
        load_embeddings(_stream("cat 1.0 0.0 0.0\ndog 0.0 1.0 0.0 9.9\n"))
    assert excinfo.value.line_no == 2


def test_format_error_on_non_numeric():
    with pytest.raises(FormatError) as excinfo:
        load_embeddings(_stream("cat 1.0 zero 0.0\n"))
    assert excinfo.value.line_no == 1


def test_empty_source():
    with pytest.raises(EmptySource):
        load_embeddings(_stream(""))
    with pytest.raises(EmptySource):
        load_embeddings(_stream("\n\n"))


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
    at = len(b"SPEMB2") + 32 + 8
    (count,) = struct.unpack_from("<I", good, at)
    return good[:at] + struct.pack("<I", count - 1) + good[at + 4 : len(good) - 4 * dimension]


@pytest.mark.parametrize("damage", ["spemb1_layout", "truncated_by_one_byte", "count_disagrees_with_blob"])
def test_damaged_or_old_cache_is_rebuilt(tmp_path, damage):
    source = tmp_path / "vectors.txt"
    source.write_text(_vectors_text(random.Random(31), ["cat", "dog", "Frog", "toad"], 4), "utf-8")
    cache = tmp_path / "vectors.spemb"
    expected = load_embeddings(source)
    load_embeddings_cached(source, cache)
    good = cache.read_bytes()
    if damage == "spemb1_layout":
        cache.write_bytes(_spemb1_bytes(expected, hashlib.sha256(source.read_bytes()).digest()))
    elif damage == "truncated_by_one_byte":
        cache.write_bytes(good[:-1])
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
