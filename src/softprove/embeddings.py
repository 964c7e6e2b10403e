"""Word-vector store and the weak-unification score between symbols.

Vectors load from GloVe-style text: one ``token v1 .. vd`` line per token,
single spaces between the fields.  A component is any numeral that Python's
``float`` accepts (``-1.5e-3``, ``1.``, ``.5``, ``1_0``, ``١٢``, ``１``),
rounded to float32; a nan or infinite component, or one too large for
float32, is an error.  A store maps each token to its float32 row.  Where
the rows live follows how the store was made: a store loaded from text or
built from a mapping holds them as one matrix, and a store read from the
binary cache reads a row from the cache file each time it is asked for one.
Multiword symbols such as ``physical_harm`` embed as the mean of their
in-vocabulary underscore-split tokens.

The text load splits its work.  A Python pass reads each line, lower-cases
its token and checks the component count; NumPy's C reader (``np.loadtxt``)
parses the numerals of each block of ``BLOCK_LINES`` lines to double and
rounds them to float32.  That reader takes fewer numerals than ``float``
(no underscores, no non-ASCII digits), so a block it rejects is parsed again
one line at a time by NumPy's string cast, which takes what ``float`` takes
and gives the same values.  A line that is not UTF-8 is an error too.  An
error names the first faulty line in file order.

Each store keeps what scoring has computed, so that no symbol or pair is
scored twice: per symbol, its mean vector cast to float64 and that vector's
norm; per pair, its score in one similarity table, ``symbol -> {symbol:
score}``, filled in both directions.  The table holds raw scores, which
depend on the vectors only, so searches under any solver settings share it.
Neither is ever evicted.

A binary cache sidesteps repeated text parsing; it is regenerated whenever the
source file's content hash (SHA-256) or the ``limit`` changes, and whenever its
magic is not this version's.  ``SPEMB2`` caches have this layout too, but the
text loader that built them read bytes that are not UTF-8 as U+FFFD, so such a
cache can hold a token that the text load now rejects; each is rebuilt once.
The layout, all integers little-endian:

- magic ``SPEMB3``, then the 32-byte source hash;
- ``<IIII``: limit (0 for none), dimension, token count, token-blob length;
- the token blob: the tokens in row order, UTF-8, joined by newlines (a text
  line cannot hold one, so ``write_cache`` rejects a token that does);
- the matrix: count x dimension ``<f4`` values, row-major, to the end of file.

A cache is written to a temporary file beside it and moved into place, so a
reader never sees a half-written one.

``read_cache`` checks the whole layout (magic, header, token blob, token
count, duplicate tokens, and the file size against count x dimension) but
reads only the header and the token blob.  The store it returns keeps the
file's descriptor open and answers ``token_vector`` with one positional read
(``os.pread``) of a row: a scoring pass asks for the rows of the symbols it
meets, a small share of a large vocabulary.  The descriptor pins the inode
that was checked, so a cache that ``write_cache`` replaces later does not
change the store's vectors; a file cut short in place makes a read raise
``EmbeddingError``.  A store is closed by ``close()`` (or a ``with`` block),
and its descriptor also closes when the store is collected.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
import uuid
import weakref
from pathlib import Path
from typing import BinaryIO, Mapping, Optional, Union

import numpy as np

CACHE_MAGIC = b"SPEMB3"


class EmbeddingError(ValueError):
    """A malformed vector source or cache; a source error names its line."""


class EmbeddingStore:
    """Read-only token -> vector map with a per-symbol cache and a similarity table.

    ``token_vector`` returns a token's float32 row: a view of the store's
    matrix, or, for a store read from the cache, a read-only array read from
    the file.  After ``close()`` it raises ``EmbeddingError``.
    """

    @np.errstate(over="ignore")  # a component too large for float32 becomes inf
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
        rows = dict(zip(checked, range(len(checked))))
        _check_finite(rows, matrix)
        self._init(dimension, rows, matrix)

    @classmethod
    def _from_rows(cls, dimension: int, rows: dict[str, int], vectors: Union[np.ndarray, _CacheRows]) -> "EmbeddingStore":
        """The loaders' constructor: ``rows`` maps each token, already lower-cased,
        to its row of ``vectors``, in row order.  Nothing is re-validated."""
        store = cls.__new__(cls)
        store._init(dimension, rows, vectors)
        return store

    def _init(self, dimension: int, rows: dict[str, int], vectors: Union[np.ndarray, _CacheRows]) -> None:
        self.dimension = dimension
        self._rows = rows
        # the row source: indexed by a row number or a slice of rows
        self._vectors = vectors
        # symbol -> (float64 mean vector, its norm), None when no token is known
        self._symbol_cache: dict[str, Optional[tuple[np.ndarray, float]]] = {}
        self._similarity: dict[str, dict[str, float]] = {}

    @property
    def vocab_size(self) -> int:
        return len(self._rows)

    def __contains__(self, token: str) -> bool:
        return token in self._rows

    def token_vector(self, token: str) -> Optional[np.ndarray]:
        row = self._rows.get(token)
        return None if row is None else self._vectors[row]

    def tokens(self) -> list[str]:
        return list(self._rows)

    def similarities(self, symbol: str) -> Mapping[str, float]:
        """``symbol``'s row of the similarity table: the ``weak_unify_score`` of
        each symbol scored against it so far.  A symbol missing from the row
        has never been scored against ``symbol`` in this store."""
        return self._similarity.get(symbol, {})

    @classmethod
    def empty(cls, dimension: int = 1) -> "EmbeddingStore":
        """A store with no vocabulary: only exact symbol matches unify."""
        return cls(dimension, {})

    def close(self) -> None:
        """Release the cache file a store read from the cache holds open.  Any
        later ``token_vector`` of a known token raises ``EmbeddingError``."""
        vectors, self._vectors = self._vectors, _CLOSED
        if isinstance(vectors, _CacheRows):
            vectors.close()

    def __enter__(self) -> "EmbeddingStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Closed:
    def __getitem__(self, key) -> np.ndarray:
        raise EmbeddingError("the embedding store is closed")


_CLOSED = _Closed()


class _CacheRows:
    """The vector rows of an SPEMB3 cache, read from its open descriptor on
    demand.  Indexed like the matrix: a row number gives one row, a slice a
    block of rows; each read is one ``os.pread``."""

    def __init__(self, path: Union[str, Path], fd: int, offset: int, count: int, dimension: int) -> None:
        self._path = path
        self._fd = fd
        self._offset = offset
        self._count = count
        self._dimension = dimension
        self._row_bytes = dimension * 4
        # a store that is dropped unclosed still gives its descriptor back
        self.close = weakref.finalize(self, os.close, fd)

    def __getitem__(self, key: Union[int, slice]) -> np.ndarray:
        if isinstance(key, slice):
            start, stop, _ = key.indices(self._count)
        else:
            start, stop = key, key + 1
        size = (stop - start) * self._row_bytes
        data = os.pread(self._fd, size, self._offset + start * self._row_bytes)
        if len(data) != size:
            raise EmbeddingError(f"{self._path}: cache file ends before row {start + len(data) // self._row_bytes}")
        block = np.frombuffer(data, dtype="<f4")
        return block.reshape(stop - start, self._dimension) if isinstance(key, slice) else block


def _check_finite(rows: Mapping[str, int], matrix: np.ndarray) -> None:
    """Reject a matrix with a nan or infinite component, naming its token:
    such a vector would score its symbols 1.0 against every other symbol.

    A row's float64 sum cannot overflow, so it is finite exactly when every
    float32 component is; unlike ``np.isfinite(matrix)`` it needs no
    matrix-sized temporary.
    """
    finite = np.isfinite(matrix.sum(axis=1, dtype=np.float64))
    if not finite.all():
        row = int(np.flatnonzero(~finite)[0])
        raise EmbeddingError(f"token {list(rows)[row]!r} has a non-finite vector component")


# Lines per ``np.loadtxt`` call: enough to spread the cost of a call, few
# enough that the load's peak memory stays that of a per-line parse.
BLOCK_LINES = 128

# NumPy's reader strips these ASCII separators around a numeral as
# whitespace; ``float`` rejects a numeral that holds one.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


@np.errstate(over="ignore")  # a numeral too large for float32 becomes inf
def load_embeddings(
    source: Union[str, Path, BinaryIO], limit: Optional[int] = None
) -> EmbeddingStore:
    """Load GloVe-style text; dimension is inferred from the first line.

    The text must be UTF-8; a line that is not raises ``EmbeddingError``.
    Blank lines are skipped.  A token is lower-cased and its first line wins;
    a later line for it must still be well formed.  A component is a numeral
    that Python's ``float`` accepts, rounded to float32.  Each block of
    ``BLOCK_LINES`` lines is parsed by ``np.loadtxt``, and again line by line
    when that reader rejects it (``_parse_block``), so an error names the
    first faulty line in file order: ``line N: ...``.

    ``limit`` keeps only the first ``limit`` vector lines, which is enough for
    frequency-ordered files when only common words matter; it must be at
    least 1.  A binary stream passed in is left open.
    """
    if limit is not None and limit < 1:
        raise EmbeddingError(f"limit must be at least 1, got {limit}")
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return load_embeddings(fh, limit=limit)
    dimension: Optional[int] = None
    rows: dict[str, int] = {}
    # One growing buffer: collecting per-block arrays and stacking them at
    # the end would hold the vocabulary twice at the peak.
    data = bytearray()
    loaded = 0
    # The pending block: each line's text after the token, its line number,
    # and the block positions of lines whose token an earlier line holds.
    rests: list[str] = []
    line_nos: list[int] = []
    repeats: list[int] = []

    def flush() -> None:
        if rests:
            matrix = _parse_block(rests, line_nos, dimension)
            data.extend(np.delete(matrix, repeats, axis=0) if repeats else matrix)
            rests.clear()
            line_nos.clear()
            repeats.clear()

    # Invalid bytes decode to lone surrogates, which a line that is not ASCII
    # is checked for, so that the error can name its line.
    text = io.TextIOWrapper(source, encoding="utf-8", errors="surrogateescape")
    try:
        for line_no, raw in enumerate(text, start=1):
            if limit is not None and loaded >= limit:
                break
            if raw == "\n":
                continue
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    flush()
                    raise EmbeddingError(f"line {line_no}: not valid UTF-8") from None
            token, space, rest = raw.partition(" ")
            if not token or not space:
                flush()  # a fault on an earlier line is reported first
                raise EmbeddingError(f"line {line_no}: line has no vector components")
            count = rest.count(" ") + 1
            if dimension is None:
                dimension = count
            elif count != dimension:
                flush()
                raise EmbeddingError(f"line {line_no}: expected {dimension} components, got {count}")
            token = token.lower()
            if token in rows:  # the first line for a token wins
                repeats.append(len(rests))
            else:
                rows[token] = len(rows)
            rests.append(rest)
            line_nos.append(line_no)
            loaded += 1
            if len(rests) == BLOCK_LINES:
                flush()
        flush()
    finally:
        text.detach()  # collecting an attached wrapper would close the caller's stream
    if dimension is None:
        raise EmbeddingError("embedding source contains no vector lines")
    matrix = np.frombuffer(data, dtype=np.float32).reshape(len(rows), dimension)
    _check_finite(rows, matrix)
    return EmbeddingStore._from_rows(dimension, rows, matrix)


def _parse_block(rests: list[str], line_nos: list[int], dimension: int) -> np.ndarray:
    """The float32 rows of a block of lines, one per line: ``rests`` holds
    each line's text after the token, with ``dimension`` space-separated
    fields, and ``line_nos`` its line number.

    ``np.loadtxt`` parses the block unless it raises, returns another shape
    (it skips a line with nothing after the token) or could strip one of
    ``_SEPARATORS``.  Then each line is parsed on its own, by NumPy's string
    cast, which takes exactly what ``float`` takes, and the first line that
    fails is named.
    """
    joined = "".join(rests)
    # loadtxt warns that it read no data on a block of only empty lines; such
    # a block is no longer than its line count.
    if len(joined) > len(rests) and not any(sep in joined for sep in _SEPARATORS):
        try:
            matrix = np.loadtxt(rests, dtype=np.float32, delimiter=" ", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if matrix.shape == (len(rests), dimension):
                return matrix
    matrix = np.empty((len(rests), dimension), dtype=np.float32)
    for row, (line_no, rest) in enumerate(zip(line_nos, rests)):
        try:
            matrix[row] = np.array(rest.rstrip("\n").split(" "), dtype=np.float32)
        except ValueError as exc:
            raise EmbeddingError(f"line {line_no}: non-numeric vector component") from exc
    return matrix


def symbol_embedding(store: EmbeddingStore, symbol: str) -> Optional[np.ndarray]:
    """Mean of in-vocabulary underscore-split token vectors, None when all are
    out of vocabulary."""
    hits = [v for v in (store.token_vector(t) for t in symbol.split("_")) if v is not None]
    return None if not hits else np.mean(np.stack(hits), axis=0)


def _scoring_vector(store: EmbeddingStore, symbol: str) -> Optional[tuple[np.ndarray, float]]:
    """``symbol_embedding`` cast to float64, with its norm; cached per symbol."""
    cached = store._symbol_cache.get(symbol, Ellipsis)
    if cached is Ellipsis:
        vector = symbol_embedding(store, symbol)
        if vector is not None:
            vector = vector.astype(np.float64)
            cached = (vector, float(np.linalg.norm(vector)))
        else:
            cached = None
        store._symbol_cache[symbol] = cached
    return cached


def weak_unify_score(store: EmbeddingStore, a: str, b: str) -> float:
    """Symbol similarity in [0, 1]: exact match 1.0, else clamped cosine.

    Distinct symbols score 0.0 when either embedding is absent or has zero
    norm; negative cosines clamp to 0 as well.  A pair is scored once per
    store and kept in its similarity table (``EmbeddingStore.similarities``).
    """
    row = store._similarity.get(a)
    if row is not None:
        score = row.get(b)
        if score is not None:
            return score
    if a == b:
        score = 1.0
    else:
        first, second = (a, b) if a <= b else (b, a)
        x = _scoring_vector(store, first)
        y = _scoring_vector(store, second)
        if x is None or y is None:
            score = 0.0
        else:
            denom = x[1] * y[1]
            score = 0.0 if denom == 0.0 else max(0.0, min(1.0, float(np.dot(x[0], y[0])) / denom))
    table = store._similarity
    table.setdefault(a, {})[b] = score
    table.setdefault(b, {})[a] = score
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


# Rows per write when a store is written to a cache: a cache-backed store
# reads them in one ``os.pread`` each, so the vocabulary is never in memory whole.
_WRITE_ROWS = 4096


def write_cache(store: EmbeddingStore, cache_path: Union[str, Path], source_hash: bytes, limit: Optional[int]) -> None:
    """Write ``store`` as an SPEMB3 cache, replacing ``cache_path`` only once the
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
            for start in range(0, len(tokens), _WRITE_ROWS):
                fh.write(store._vectors[start : start + _WRITE_ROWS].astype("<f4", copy=False))
        os.replace(partial, cache_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def read_cache(cache_path: Union[str, Path]) -> tuple[EmbeddingStore, bytes, Optional[int]]:
    """Check an SPEMB3 cache and return a store that reads its rows on demand,
    with the source hash and ``limit`` it was built from."""
    fd = os.open(cache_path, os.O_RDONLY)
    try:
        head = os.pread(fd, _BLOB_START, 0)
        if head[: len(CACHE_MAGIC)] != CACHE_MAGIC:
            raise EmbeddingError(f"{cache_path}: not an SPEMB3 cache file")
        if len(head) < _BLOB_START:
            raise EmbeddingError(f"{cache_path}: truncated header")
        source_hash = head[len(CACHE_MAGIC) : len(CACHE_MAGIC) + _HASH_SIZE]
        limit, dimension, count, blob_size = _HEADER.unpack_from(head, _BLOB_START - _HEADER.size)
        matrix_start = _BLOB_START + blob_size
        matrix_size = os.fstat(fd).st_size - matrix_start
        if dimension < 1 or matrix_size != count * dimension * 4:
            raise EmbeddingError(f"{cache_path}: header disagrees with the token blob or the matrix size")
        try:
            blob = os.pread(fd, blob_size, _BLOB_START).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EmbeddingError(f"{cache_path}: token blob is not UTF-8") from exc
        tokens = blob.split("\n") if blob else []
        if len(tokens) != count:
            raise EmbeddingError(f"{cache_path}: header disagrees with the token blob or the matrix size")
        rows = dict(zip(tokens, range(count)))
        if len(rows) != count:
            raise EmbeddingError(f"{cache_path}: duplicate token")
    except BaseException:
        os.close(fd)
        raise
    vectors = _CacheRows(cache_path, fd, matrix_start, count, dimension)
    return EmbeddingStore._from_rows(dimension, rows, vectors), source_hash, (limit or None)


def default_cache_path(source_path: Union[str, Path]) -> Path:
    """``<source>.spemb``: where the cache of ``source_path`` goes unless told otherwise."""
    source_path = Path(source_path)
    return source_path.with_suffix(source_path.suffix + ".spemb")


def load_embeddings_cached(
    source_path: Union[str, Path],
    cache_path: Optional[Union[str, Path]] = None,
    limit: Optional[int] = None,
) -> EmbeddingStore:
    """Load via the binary cache, rebuilding it on source-hash or limit change.

    A store read from the cache holds the cache file open until it is closed
    or collected; a rebuilt one is the text load's and holds its matrix."""
    source_path = Path(source_path)
    cache_path = Path(cache_path) if cache_path else default_cache_path(source_path)
    current_hash = _content_hash(source_path)
    if cache_path.exists():
        try:
            store, cached_hash, cached_limit = read_cache(cache_path)
        except EmbeddingError:
            pass  # stale layout or corrupt cache: rebuild below
        else:
            if cached_hash == current_hash and cached_limit == limit:
                return store
            store.close()
    store = load_embeddings(source_path, limit=limit)
    write_cache(store, cache_path, current_hash, limit)
    return store
