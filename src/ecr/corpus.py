"""Multilingual instruction corpus and embedding matrix I/O.

A corpus file is UTF-8 JSON lines.  Line 1 is a header object declaring the
factor label inventories; every following line is one record:

    {"tasks": [...], "languages": [...], "emotions": [...], "intents": [...]}
    {"dialog_id": "d0", "task": "faq", "language": "en", "emotion": "neutral",
     "intent": "inquiry", "en_q": "...", "zh_q": "...", "hi_q": "...",
     "en_a": "...", "zh_a": "...", "hi_a": "..."}

Records are aligned triplets: every field is a string, the three query
fields must be non-empty, dialog ids unique, and factor labels drawn from
the header inventories, which are lists of strings.

Embedding matrices live in a small binary format (magic ``ECRE``) holding
little-endian float32 data plus the row id table; round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter, contains, itemgetter

import numpy as np

from .binio import ByteReader, ByteWriter, atomic_write_text, read_envelope, write_envelope

EMBEDDING_MAGIC = b"ECRE"
EMBEDDING_VERSION = 1

LANGUAGES = ("en", "zh", "hi")

# Factor code -> record field carrying its label.  "P" (tone/strategy) has no
# corpus field; it is only derivable by clustering.
FACTOR_FIELDS = {"T": "task", "L": "language", "E": "emotion", "I": "intent"}

QUERY_FIELDS = ("en_q", "zh_q", "hi_q")

# Record label field -> the header inventory its labels are drawn from.
_INVENTORY_OF = {"task": "tasks", "language": "languages", "emotion": "emotions", "intent": "intents"}


class CorpusError(ValueError):
    """Raised on malformed corpus files or invariant violations."""


@dataclass(frozen=True)
class CorpusRecord:
    dialog_id: str
    task: str
    language: str
    emotion: str
    intent: str
    en_q: str
    zh_q: str
    hi_q: str
    en_a: str
    zh_a: str
    hi_a: str

    def query(self, language: str) -> str:
        if language not in LANGUAGES:
            raise CorpusError(f"unknown language {language!r}")
        return getattr(self, f"{language}_q")

    def answer(self, language: str) -> str:
        if language not in LANGUAGES:
            raise CorpusError(f"unknown language {language!r}")
        return getattr(self, f"{language}_a")


RECORD_FIELDS = tuple(f.name for f in fields(CorpusRecord))
_fields_of = attrgetter(*RECORD_FIELDS)  # a record's values, in field order
_values_of = itemgetter(*RECORD_FIELDS)  # a record line's values, in field order
_queries_of = attrgetter(*QUERY_FIELDS)
_labels_of = attrgetter(*_INVENTORY_OF)
_is_text = str.__instancecheck__  # isinstance(value, str), for map


@dataclass(frozen=True)
class CorpusHeader:
    """Finite label inventories for the four labeled factors."""

    tasks: tuple[str, ...]
    languages: tuple[str, ...]
    emotions: tuple[str, ...]
    intents: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in _INVENTORY_OF.values():
            values = getattr(self, name)
            if not values:
                raise CorpusError(f"header inventory {name!r} is empty")
            if len(set(values)) != len(values):
                raise CorpusError(f"header inventory {name!r} has duplicates")
        unknown = [l for l in self.languages if l not in LANGUAGES]
        if unknown:
            raise CorpusError(f"unsupported language {unknown[0]!r} in header")

    def inventory(self, factor_field: str) -> tuple[str, ...]:
        name = _INVENTORY_OF.get(factor_field)
        if name is None:
            raise CorpusError(f"unknown factor field {factor_field!r}")
        return getattr(self, name)


@dataclass
class Corpus:
    """Validated, immutable-after-load record collection.

    Built from records alone, it validates each one; :func:`load_corpus`
    validates while it reads and hands over the id map it built.
    """

    header: CorpusHeader
    records: list[CorpusRecord]
    _by_id: dict[str, CorpusRecord] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._by_id:
            label_sets = _label_sets(self.header)
            for rec in self.records:
                if rec.dialog_id in self._by_id:
                    raise CorpusError(f"duplicate dialog_id {rec.dialog_id!r}")
                problem = _record_problem(rec, label_sets)
                if problem:
                    raise CorpusError(f"record {rec.dialog_id!r}: {problem}")
                self._by_id[rec.dialog_id] = rec

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def get(self, dialog_id: str) -> CorpusRecord:
        try:
            return self._by_id[dialog_id]
        except KeyError:
            raise CorpusError(f"unknown dialog_id {dialog_id!r}") from None


def _label_sets(header: CorpusHeader) -> tuple[frozenset[str], ...]:
    """The inventory of each label field as a set, in ``_INVENTORY_OF`` order."""
    return tuple(frozenset(header.inventory(name)) for name in _INVENTORY_OF)


def _record_problem(rec: CorpusRecord, label_sets: tuple[frozenset[str], ...]) -> str | None:
    """What makes a record invalid under the header of ``label_sets``, or None."""
    queries, labels = _queries_of(rec), _labels_of(rec)
    if all(map(str.strip, queries)) and all(map(contains, label_sets, labels)):
        return None
    for name, text in zip(QUERY_FIELDS, queries):
        if not text.strip():
            return f"field {name!r} is empty"
    for name, label, allowed in zip(_INVENTORY_OF, labels, label_sets):
        if label not in allowed:
            return f"{name} label {label!r} not in header inventory"
    return None


def _parse_header(obj: dict, where: str) -> CorpusHeader:
    missing = [k for k in _INVENTORY_OF.values() if k not in obj]
    if missing:
        raise CorpusError(f"header line missing inventories: {missing}")
    for k in _INVENTORY_OF.values():
        if type(obj[k]) is not list or not all(map(_is_text, obj[k])):
            raise CorpusError(f"{where}: header inventory {k!r} is not a list of strings")
    return CorpusHeader(**{k: tuple(obj[k]) for k in _INVENTORY_OF.values()})


def load_corpus(path: str) -> Corpus:
    """Parse and validate a corpus file.

    Raises :class:`CorpusError` naming the offending line on malformed JSON,
    a line that is not an object, inventories that are not lists of
    strings, missing, empty or non-string fields, unknown labels, or
    duplicate dialog ids.
    """
    records: list[CorpusRecord] = []
    header: CorpusHeader | None = None
    by_id: dict[str, CorpusRecord] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: malformed line: {exc.msg}") from exc
            if type(obj) is not dict:
                raise CorpusError(f"{path}:{lineno}: line is not a JSON object")
            if header is None:
                header = _parse_header(obj, f"{path}:{lineno}")
                label_sets = _label_sets(header)
                continue
            try:
                values = _values_of(obj)
            except KeyError:
                missing = [k for k in RECORD_FIELDS if k not in obj]
                raise CorpusError(f"{path}:{lineno}: record missing field {missing[0]!r}") from None
            if not all(map(_is_text, values)):
                bad = next(k for k, v in zip(RECORD_FIELDS, values) if not _is_text(v))
                raise CorpusError(f"{path}:{lineno}: record field {bad!r} is not a string")
            rec = CorpusRecord(*values)
            if rec.dialog_id in by_id:
                raise CorpusError(f"{path}:{lineno}: duplicate dialog_id {rec.dialog_id!r}")
            problem = _record_problem(rec, label_sets)
            if problem:
                raise CorpusError(f"record {rec.dialog_id!r} ({path}:{lineno}): {problem}")
            by_id[rec.dialog_id] = rec
            records.append(rec)
    if header is None:
        raise CorpusError(f"{path}: empty file, expected a header line")
    return Corpus(header=header, records=records, _by_id=by_id)


def save_corpus(corpus: Corpus, path: str) -> None:
    encode = json.JSONEncoder(ensure_ascii=False).encode  # what json.dumps makes per call
    header = corpus.header
    lines = [encode({k: list(getattr(header, k)) for k in _INVENTORY_OF.values()})]
    for rec in corpus.records:
        lines.append(encode(dict(zip(RECORD_FIELDS, _fields_of(rec)))))
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass
class EmbeddingMatrix:
    """n x d float32 matrix with row ids aligned to row order."""

    data: np.ndarray
    ids: list[str]

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise CorpusError("embedding data must be 2-dimensional")
        if len(self.ids) != self.data.shape[0]:
            raise CorpusError(
                f"id count {len(self.ids)} does not match row count {self.data.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def save_embeddings(matrix: EmbeddingMatrix, path: str) -> None:
    w = ByteWriter()
    w.u64(matrix.n)
    w.u64(matrix.d)
    w.array(matrix.data, "float32")
    w.text_list(matrix.ids)
    write_envelope(path, EMBEDDING_MAGIC, EMBEDDING_VERSION, w.parts)


def load_embeddings(path: str) -> EmbeddingMatrix:
    """Load a matrix, rejecting truncated data and non-finite values."""
    r = ByteReader(read_envelope(path, EMBEDDING_MAGIC, EMBEDDING_VERSION))
    n = r.u64()
    d = r.u64()
    data = r.array("float32")
    if data.shape != (n, d):
        raise CorpusError(
            f"{path}: declared shape ({n}, {d}) does not match stored data {data.shape}"
        )
    ids = r.text_list()
    if len(ids) != n:
        raise CorpusError(f"{path}: id table has {len(ids)} entries for {n} rows")
    # a float64 sum of float32 entries cannot overflow, so it is finite
    # exactly where its row is, and it needs no (n, d) mask
    bad = np.flatnonzero(~np.isfinite(np.add.reduce(data, axis=1, dtype=np.float64)))
    if bad.size:
        raise CorpusError(f"{path}: non-finite value in row {int(bad[0])}")
    return EmbeddingMatrix(data=data, ids=ids)


# A sum of squares inside this range did not overflow, and entries whose
# squares fell below the normal range add less than d * 2**-1074 to it,
# far below one rounding unit.
_SQ_MIN = 2.0**-900
_SQ_MAX = float(np.finfo(np.float64).max)


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Scale every row of a 2-d array, read as C-contiguous float64, to unit
    L2 norm.

    Each row comes out bit-identical to ``row / ||row||`` wherever that
    neither overflows nor underflows, whatever the other rows hold.  A row
    outside that range is first scaled by the power of two nearest its
    largest magnitude, which is exact, so a row multiplied by 1e200 or
    1e-200 normalizes to the unscaled row up to the rounding of that
    multiplication; numpy still warns of the overflow it recovers from.
    Zero rows and non-finite entries are domain errors.
    """
    arr = np.asarray(rows, dtype=np.float64, order="C")
    sq = np.vecdot(arr, arr)  # one BLAS dot per row: the sum np.dot takes
    # A Python-level test costs a tenth of the numpy one on a batch of one.
    if not all(_SQ_MIN <= s <= _SQ_MAX for s in sq.tolist()):  # False for NaN
        inside = (sq >= _SQ_MIN) & (sq <= _SQ_MAX)
        peak = np.abs(arr).max(axis=1, initial=0.0)
        if not np.isfinite(peak).all():
            raise ValueError("cannot normalize a vector with non-finite entries")
        if (peak == 0.0).any():
            raise ValueError("cannot normalize a zero vector")
        arr = np.ldexp(arr, np.where(inside, 0, -np.frexp(peak)[1])[:, None])
        sq = np.vecdot(arr, arr)
    return arr / np.sqrt(sq, out=sq)[:, None]


def _rows_over_norms(rows: np.ndarray) -> np.ndarray:
    """Every row of a 2-d array scaled to unit L2 norm: ``row /
    np.linalg.norm(row)`` where its sum of squares lies in [_SQ_MIN,
    _SQ_MAX], :func:`normalize_rows` for the rows outside that range.

    Unit anchors and index rows are made this way because
    :func:`normalize_rows` rounds some in-range rows differently, and
    prefixes and graphs depend on those bits.  Raises ValueError where
    :func:`normalize_rows` does.
    """
    arr = np.asarray(rows, dtype=np.float64, order="C")
    # A sum of squares that overflows only sends its row to the rescaling
    # of normalize_rows, so the overflow is no news to the caller.
    with np.errstate(over="ignore"):
        sq = np.add.reduce(arr * arr, axis=1)  # the sum np.linalg.norm takes
        inside = (sq >= _SQ_MIN) & (sq <= _SQ_MAX)  # False for NaN
        if inside.all():
            return arr / np.sqrt(sq)[:, None]
        out = np.empty_like(arr)
        out[inside] = arr[inside] / np.sqrt(sq[inside])[:, None]
        out[~inside] = normalize_rows(arr[~inside])
    return out


def normalize(vec: np.ndarray) -> np.ndarray:
    """Scale ``vec`` to unit L2 norm, bit for bit as one row of
    :func:`normalize_rows` (both sum the squares of a contiguous row in one
    BLAS dot), without warning of an overflow or underflow it recovers from."""
    arr = np.asarray(vec, dtype=np.float64)
    flat = arr.ravel()
    # np.vdot sums as np.dot does but leaves the overflow flag unread, so
    # the common path pays for no np.errstate
    sq = float(np.vdot(flat, flat))
    if _SQ_MIN <= sq <= _SQ_MAX:
        return arr / math.sqrt(sq)
    with np.errstate(over="ignore", under="ignore"):
        return normalize_rows(arr.reshape(1, -1)).reshape(arr.shape)
