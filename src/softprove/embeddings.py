"""Word-vector store and the weak-unification score between symbols.

Vectors load from GloVe-style text (one ``token v1 .. vd`` line per token).
Multiword symbols such as ``physical_harm`` embed as the mean of their
in-vocabulary underscore-split tokens.  A binary cache (magic ``SPEMB1``,
little-endian float32) can sidestep repeated text parsing; it is regenerated
whenever the source file's content hash changes.
"""

from __future__ import annotations

import hashlib
import io
import struct
from pathlib import Path
from typing import BinaryIO, Mapping, Optional, Union

import numpy as np

CACHE_MAGIC = b"SPEMB1"


class EmbeddingError(ValueError):
    pass


class EmptySource(EmbeddingError):
    def __init__(self) -> None:
        super().__init__("embedding source contains no vector lines")


class FormatError(EmbeddingError):
    def __init__(self, line_no: int, detail: str = "non-numeric vector component") -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class DimensionMismatch(EmbeddingError):
    def __init__(self, line_no: int, expected: int, got: int) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: expected {expected} components, got {got}")


class EmbeddingStore:
    """Read-only token -> vector map with per-symbol and per-pair score caches."""

    def __init__(self, dimension: int, vectors: Mapping[str, np.ndarray]) -> None:
        if dimension < 1:
            raise EmbeddingError(f"dimension must be positive, got {dimension}")
        self.dimension = dimension
        self._vectors: dict[str, np.ndarray] = {}
        for token, vec in vectors.items():
            if not token:
                raise EmbeddingError("empty token")
            arr = np.asarray(vec, dtype=np.float32)
            if arr.shape != (dimension,):
                raise EmbeddingError(f"token {token!r} has shape {arr.shape}, want ({dimension},)")
            self._vectors[token.lower()] = arr
        self._symbol_cache: dict[str, Optional[np.ndarray]] = {}
        self._pair_cache: dict[tuple[str, str], float] = {}

    @property
    def vocab_size(self) -> int:
        return len(self._vectors)

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def token_vector(self, token: str) -> Optional[np.ndarray]:
        return self._vectors.get(token)

    def tokens(self) -> list[str]:
        return list(self._vectors)

    @classmethod
    def empty(cls, dimension: int = 1) -> "EmbeddingStore":
        """A store with no vocabulary: only exact symbol matches unify."""
        return cls(dimension, {})


def load_embeddings(
    source: Union[str, Path, BinaryIO], limit: Optional[int] = None
) -> EmbeddingStore:
    """Load GloVe-style text; dimension is inferred from the first line.

    ``limit`` keeps only the first ``limit`` vector lines, which is enough for
    frequency-ordered files when only common words matter.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return load_embeddings(fh, limit=limit)
    dimension: Optional[int] = None
    vectors: dict[str, np.ndarray] = {}
    loaded = 0
    for line_no, raw in enumerate(io.TextIOWrapper(source, encoding="utf-8", errors="replace"), start=1):
        if limit is not None and loaded >= limit:
            break
        parts = raw.rstrip("\n").split(" ")
        if parts == [""]:
            continue
        token, components = parts[0], parts[1:]
        if not token or not components:
            raise FormatError(line_no, "line has no vector components")
        if dimension is None:
            dimension = len(components)
        elif len(components) != dimension:
            raise DimensionMismatch(line_no, dimension, len(components))
        try:
            vec = np.array(components, dtype=np.float32)
        except ValueError as exc:
            raise FormatError(line_no) from exc
        vectors.setdefault(token.lower(), vec)
        loaded += 1
    if dimension is None:
        raise EmptySource()
    return EmbeddingStore(dimension, vectors)


def symbol_embedding(store: EmbeddingStore, symbol: str) -> Optional[np.ndarray]:
    """Mean of in-vocabulary underscore-split token vectors, None when all are
    out of vocabulary; cached."""
    cached = store._symbol_cache.get(symbol, Ellipsis)
    if cached is not Ellipsis:
        return cached
    hits = [v for v in (store.token_vector(t) for t in symbol.split("_")) if v is not None]
    vector = None if not hits else np.mean(np.stack(hits), axis=0)
    store._symbol_cache[symbol] = vector
    return vector


def weak_unify_score(store: EmbeddingStore, a: str, b: str) -> float:
    """Symbol similarity in [0, 1]: exact match 1.0, else clamped cosine.

    Distinct symbols score 0.0 when either embedding is absent or has zero
    norm; negative cosines clamp to 0 as well.
    """
    if a == b:
        return 1.0
    key = (a, b) if a <= b else (b, a)
    cached = store._pair_cache.get(key)
    if cached is not None:
        return cached
    va = symbol_embedding(store, key[0])
    vb = symbol_embedding(store, key[1])
    if va is None or vb is None:
        score = 0.0
    else:
        x = va.astype(np.float64)
        y = vb.astype(np.float64)
        denom = float(np.linalg.norm(x)) * float(np.linalg.norm(y))
        score = 0.0 if denom == 0.0 else max(0.0, min(1.0, float(np.dot(x, y)) / denom))
    store._pair_cache[key] = score
    return score


# -- binary cache -------------------------------------------------------------


def _content_hash(path: Union[str, Path]) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.digest()


def write_cache(store: EmbeddingStore, cache_path: Union[str, Path], source_hash: bytes, limit: Optional[int]) -> None:
    tokens = store.tokens()
    with open(cache_path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(source_hash)
        fh.write(struct.pack("<III", limit or 0, store.dimension, len(tokens)))
        for token in tokens:
            raw = token.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
        matrix = np.stack([store.token_vector(t) for t in tokens]) if tokens else np.zeros((0, store.dimension), np.float32)
        fh.write(matrix.astype("<f4").tobytes())


def read_cache(cache_path: Union[str, Path]) -> tuple[EmbeddingStore, bytes, Optional[int]]:
    with open(cache_path, "rb") as fh:
        if fh.read(len(CACHE_MAGIC)) != CACHE_MAGIC:
            raise EmbeddingError(f"{cache_path}: not an SPEMB1 cache file")
        source_hash = fh.read(32)
        limit, dimension, count = struct.unpack("<III", fh.read(12))
        tokens = []
        for _ in range(count):
            (length,) = struct.unpack("<H", fh.read(2))
            tokens.append(fh.read(length).decode("utf-8"))
        data = np.frombuffer(fh.read(count * dimension * 4), dtype="<f4").reshape(count, dimension)
        vectors = {token: data[i] for i, token in enumerate(tokens)}
    return EmbeddingStore(dimension, vectors), source_hash, (limit or None)


def load_embeddings_cached(
    source_path: Union[str, Path],
    cache_path: Optional[Union[str, Path]] = None,
    limit: Optional[int] = None,
) -> EmbeddingStore:
    """Load via the binary cache, rebuilding it on source-hash or limit change."""
    source_path = Path(source_path)
    cache_path = Path(cache_path) if cache_path else source_path.with_suffix(source_path.suffix + ".spemb")
    current_hash = _content_hash(source_path)
    if cache_path.exists():
        try:
            store, cached_hash, cached_limit = read_cache(cache_path)
            if cached_hash == current_hash and cached_limit == limit:
                return store
        except (EmbeddingError, struct.error, ValueError):
            pass  # corrupt cache: rebuild below
    store = load_embeddings(source_path, limit=limit)
    write_cache(store, cache_path, current_hash, limit)
    return store
