"""Word-vector store and the weak-unification score between symbols.

Vectors load from GloVe-style text (one ``token v1 .. vd`` line per token).
The store holds them as one float32 matrix, one row per token, plus a
token -> row dict.  Multiword symbols such as ``physical_harm`` embed as the
mean of their in-vocabulary underscore-split tokens.

A binary cache sidesteps repeated text parsing; it is regenerated whenever the
source file's content hash (SHA-256) or the ``limit`` changes.  Its layout,
all integers little-endian:

- magic ``SPEMB2``, then the 32-byte source hash;
- ``<IIII``: limit (0 for none), dimension, token count, token-blob length;
- the token blob: the tokens in row order, UTF-8, joined by newlines (a text
  line cannot hold one, so ``write_cache`` rejects a token that does);
- the matrix: count x dimension ``<f4`` values, row-major, to the end of file.

A cache is written to a temporary file beside it and moved into place, so a
reader never sees a half-written one.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
import uuid
from pathlib import Path
from typing import BinaryIO, Mapping, Optional, Union

import numpy as np

CACHE_MAGIC = b"SPEMB2"


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
    """Read-only token -> vector map with per-symbol and per-pair score caches.

    The vectors are the rows of one float32 matrix; ``token_vector`` returns a
    view of its row.
    """

    def __init__(self, dimension: int, vectors: Mapping[str, np.ndarray]) -> None:
        """Validate ``vectors`` and copy them into the store's own matrix.

        Tokens are lower-cased; a later key that lower-cases to an earlier one
        replaces its vector and keeps its position.
        """
        if dimension < 1:
            raise EmbeddingError(f"dimension must be positive, got {dimension}")
        checked: dict[str, np.ndarray] = {}
        for token, vec in vectors.items():
            if not token:
                raise EmbeddingError("empty token")
            arr = np.asarray(vec, dtype=np.float32)
            if arr.shape != (dimension,):
                raise EmbeddingError(f"token {token!r} has shape {arr.shape}, want ({dimension},)")
            checked[token.lower()] = arr
        matrix = np.stack(list(checked.values())) if checked else np.empty((0, dimension), np.float32)
        self._init(dimension, dict(zip(checked, range(len(checked)))), matrix)

    @classmethod
    def _from_matrix(cls, dimension: int, rows: dict[str, int], matrix: np.ndarray) -> "EmbeddingStore":
        """The loaders' constructor: ``rows`` maps each token, already lower-cased,
        to its row of ``matrix``, in row order.  Nothing is re-validated."""
        store = cls.__new__(cls)
        store._init(dimension, rows, matrix)
        return store

    def _init(self, dimension: int, rows: dict[str, int], matrix: np.ndarray) -> None:
        self.dimension = dimension
        self._rows = rows
        self._matrix = matrix
        self._symbol_cache: dict[str, Optional[np.ndarray]] = {}
        self._pair_cache: dict[tuple[str, str], float] = {}

    @property
    def vocab_size(self) -> int:
        return len(self._rows)

    def __contains__(self, token: str) -> bool:
        return token in self._rows

    def token_vector(self, token: str) -> Optional[np.ndarray]:
        row = self._rows.get(token)
        return None if row is None else self._matrix[row]

    def tokens(self) -> list[str]:
        return list(self._rows)

    @classmethod
    def empty(cls, dimension: int = 1) -> "EmbeddingStore":
        """A store with no vocabulary: only exact symbol matches unify."""
        return cls(dimension, {})


def load_embeddings(
    source: Union[str, Path, BinaryIO], limit: Optional[int] = None
) -> EmbeddingStore:
    """Load GloVe-style text; dimension is inferred from the first line.

    ``limit`` keeps only the first ``limit`` vector lines, which is enough for
    frequency-ordered files when only common words matter.  A binary stream
    passed in is left open.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return load_embeddings(fh, limit=limit)
    dimension: Optional[int] = None
    rows: dict[str, int] = {}
    # One growing buffer: collecting per-row arrays and stacking them at the
    # end would hold the vocabulary twice at the peak.
    data = bytearray()
    loaded = 0
    text = io.TextIOWrapper(source, encoding="utf-8", errors="replace")
    try:
        for line_no, raw in enumerate(text, start=1):
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
            token = token.lower()
            if token not in rows:  # the first line for a token wins
                rows[token] = len(rows)
                data += vec.tobytes()
            loaded += 1
    finally:
        text.detach()  # collecting an attached wrapper would close the caller's stream
    if dimension is None:
        raise EmptySource()
    matrix = np.frombuffer(data, dtype=np.float32).reshape(len(rows), dimension)
    return EmbeddingStore._from_matrix(dimension, rows, matrix)


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


_HEADER = struct.Struct("<IIII")  # limit, dimension, token count, token-blob length
_HASH_SIZE = 32
_BLOB_START = len(CACHE_MAGIC) + _HASH_SIZE + _HEADER.size


def write_cache(store: EmbeddingStore, cache_path: Union[str, Path], source_hash: bytes, limit: Optional[int]) -> None:
    """Write ``store`` as an SPEMB2 cache, replacing ``cache_path`` only once the
    whole file is written."""
    tokens = store.tokens()
    if any("\n" in token for token in tokens):
        raise EmbeddingError("a token contains a newline, which separates tokens in the cache")
    blob = "\n".join(tokens).encode("utf-8")
    header = _HEADER.pack(limit or 0, store.dimension, len(tokens), len(blob))
    cache_path = Path(cache_path)
    partial = cache_path.with_name(f"{cache_path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(partial, "xb") as fh:
            fh.write(CACHE_MAGIC + source_hash + header + blob)
            fh.write(store._matrix.astype("<f4", copy=False))
        os.replace(partial, cache_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def read_cache(cache_path: Union[str, Path]) -> tuple[EmbeddingStore, bytes, Optional[int]]:
    with open(cache_path, "rb") as fh:
        data = fh.read()
    if data[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise EmbeddingError(f"{cache_path}: not an SPEMB2 cache file")
    if len(data) < _BLOB_START:
        raise EmbeddingError(f"{cache_path}: truncated header")
    source_hash = data[len(CACHE_MAGIC) : len(CACHE_MAGIC) + _HASH_SIZE]
    limit, dimension, count, blob_size = _HEADER.unpack_from(data, _BLOB_START - _HEADER.size)
    matrix_start = _BLOB_START + blob_size
    try:
        blob = data[_BLOB_START:matrix_start].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EmbeddingError(f"{cache_path}: token blob is not UTF-8") from exc
    tokens = blob.split("\n") if blob else []
    if dimension < 1 or len(tokens) != count or len(data) - matrix_start != count * dimension * 4:
        raise EmbeddingError(f"{cache_path}: header disagrees with the token blob or the matrix size")
    rows = dict(zip(tokens, range(count)))
    if len(rows) != count:
        raise EmbeddingError(f"{cache_path}: duplicate token")
    matrix = np.frombuffer(data, dtype="<f4", count=count * dimension, offset=matrix_start)
    return EmbeddingStore._from_matrix(dimension, rows, matrix.reshape(count, dimension)), source_hash, (limit or None)


def default_cache_path(source_path: Union[str, Path]) -> Path:
    """``<source>.spemb``: where the cache of ``source_path`` goes unless told otherwise."""
    source_path = Path(source_path)
    return source_path.with_suffix(source_path.suffix + ".spemb")


def load_embeddings_cached(
    source_path: Union[str, Path],
    cache_path: Optional[Union[str, Path]] = None,
    limit: Optional[int] = None,
) -> EmbeddingStore:
    """Load via the binary cache, rebuilding it on source-hash or limit change."""
    source_path = Path(source_path)
    cache_path = Path(cache_path) if cache_path else default_cache_path(source_path)
    current_hash = _content_hash(source_path)
    if cache_path.exists():
        try:
            store, cached_hash, cached_limit = read_cache(cache_path)
            if cached_hash == current_hash and cached_limit == limit:
                return store
        except EmbeddingError:
            pass  # stale layout or corrupt cache: rebuild below
    store = load_embeddings(source_path, limit=limit)
    write_cache(store, cache_path, current_hash, limit)
    return store
