import io
import random

import numpy as np
import pytest

from softprove.embeddings import (
    DimensionMismatch,
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
    with pytest.raises(Exception):
        read_cache(bogus)
