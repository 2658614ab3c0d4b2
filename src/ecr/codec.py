"""Control-token codec: cosine projection, quantization, prefix assembly.

Given an utterance embedding h and a frozen anchor set, the codec computes
the cosine affinity between normalized h and every normalized anchor,
discretizes each affinity into one of B equal-width bins over [-1, 1], and
renders the result as control tokens such as ``<L0:3>``.  Prepending those
tokens to the input ids realizes the conditioned sequence x' = [t, x].

Everything here is a pure read of the anchor set: no operation writes to
it, so anchor checksums are stable across any amount of encoding.  Token
ids live in a dedicated vocabulary block of size total_k * B appended
after a base vocabulary, with id = base + (flat anchor index) * B + bin.

Two emission modes exist: global (every anchor contributes a token) and
retrieval-guided (only the top-k strongest anchors contribute, either per
factor or over the whole set).  Selected tokens always render in canonical
order: factors T, L, E, I, P, then ascending anchor index.

Encoding is batched: one step projects, quantizes and selects a whole
matrix at once into an (n, P) matrix of token-table indices, which a
training step reads as ids.  :func:`encode_batch` renders its rows as
prefixes; :func:`encode` and the trainer's ``sample_prefix`` are batches
of one.  A batch of one normalizes and projects its row with one-row
kernels, ``corpus.normalize`` and one ``unit.dot``, which run the BLAS
dot and gemv that the batch kernels run per row: a row has the same bits
alone, in any batch and in any memory layout.  Everything a pass reads
besides its rows comes from one table per anchor set and bin count, kept
in the anchor set's cache and looked up once per call: the anchor
layout, the unit anchors, the bin thresholds, and every (anchor, bin)
token with its text (its ids are made once per base size).  A row
renders with one ``itemgetter`` per field.

Rounding can put a cosine an ulp or so past +-1.  Clipping to [-1, 1]
applies only where the values are read as values: :func:`project_batch`
returns them clipped, and retrieval mode ranks them clipped, so such an
anchor ties with any other at the edge.  Bins are taken from the
unclipped cosines by a search over the B-1 bin thresholds: one past -1
lies below the first and takes bin 0, one past 1 lies above the last and
takes bin B-1, as the clipped values do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .anchors import AnchorSet
from .corpus import normalize, normalize_rows


class CodecError(ValueError):
    """Raised on invalid codec inputs or malformed token text."""


@dataclass(frozen=True)
class ControlToken:
    """One quantized affinity: factor code, anchor index within factor, bin."""

    factor: str
    anchor: int
    bin: int

    def render(self) -> str:
        return f"<{self.factor}{self.anchor}:{self.bin}>"


_TOKEN_RE = re.compile(r"^<([TLEIP])(\d+):(\d+)>$")


def parse_token(text: str) -> ControlToken:
    m = _TOKEN_RE.match(text)
    if m is None:
        raise CodecError(f"malformed control token {text!r}")
    return ControlToken(factor=m.group(1), anchor=int(m.group(2)), bin=int(m.group(3)))


@dataclass(frozen=True)
class ControlPrefix:
    """Rendered prefix: token objects, their vocabulary ids, and text form."""

    tokens: tuple[ControlToken, ...]
    token_ids: tuple[int, ...]
    text: str

    def __len__(self) -> int:
        return len(self.tokens)


def _cosines(H: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Unclipped cosines of every row of H against every row of the unit
    anchors ``unit``, (n, total_k).

    One BLAS dot to normalize each row and one BLAS matrix-vector product
    to project it, so row i has the same bits whatever the batch it is in.
    A batch takes them in one ``np.vecdot`` and one ``np.matvec`` call; a
    single row, for a third of their call cost, in :func:`normalize` and
    one ``unit.dot``, which run the same BLAS dot and gemv on it.  H is
    read as C-contiguous float64, so the bits do not depend on its memory
    layout either.  Rounding can put an entry an ulp or so outside [-1, 1].
    """
    H = np.asarray(H, dtype=np.float64, order="C")
    if H.ndim != 2:
        raise CodecError(f"embeddings must form a 2-d matrix, got shape {H.shape}")
    if H.shape[1] != unit.shape[1]:
        raise CodecError(
            f"embedding dimension {H.shape[1]} does not match anchors d={unit.shape[1]}"
        )
    try:
        if len(H) == 1:
            return unit.dot(normalize(H[0]))[None]
        H = normalize_rows(H)
    except ValueError as exc:
        raise CodecError(str(exc)) from None
    return np.matvec(unit, H)


def _clip(values: np.ndarray) -> np.ndarray:
    """``values`` clipped to [-1, 1] in place."""
    # np.minimum/np.maximum: the same clip as np.clip at a fraction of its call cost
    return np.minimum(np.maximum(values, -1.0, out=values), 1.0, out=values)


def project_batch(H: np.ndarray, anchors: AnchorSet) -> np.ndarray:
    """Cosine affinities of every row of H against every anchor, (n, total_k).

    Both sides are unit-normalized, so each entry is a cosine in [-1, 1];
    values are clipped to that range to absorb rounding.  Row i has the
    same bits whatever the batch it is in.
    """
    return _clip(_cosines(H, anchors.stacked_unit()))


def quantize_value(c: float, n_bins: int) -> int:
    """Map one affinity in [-1, 1] to bin = clamp(floor((c+1)/2 * B), 0, B-1).

    Equal-width bins over [-1, 1]; the right edge c = 1.0 folds into the
    top bin, so the output covers exactly {0, ..., n_bins - 1}.
    """
    if n_bins < 2:
        raise CodecError(f"n_bins must be at least 2, got {n_bins}")
    if not -1.0 <= c <= 1.0:
        raise CodecError(f"affinity {c} outside [-1, 1]")
    b = int(np.floor((c + 1.0) / 2.0 * n_bins))
    return min(max(b, 0), n_bins - 1)


def _thresholds(n_bins: int) -> np.ndarray:
    """t[k-1], the least float64 c with int((c+1) * (B/2)) >= k, for k = 1..B-1.

    int((c+1) * (B/2)) is :func:`quantize_value`'s bin before its clamp:
    halving is exact, and the cast is the floor of a value that is not
    negative.  Each threshold is found exactly, all k at once, by bisection
    over int64 keys that order the floats of [-1, 1]: the bit pattern of
    |c|, negated where c < 0.
    """

    def value(key: np.ndarray) -> np.ndarray:
        c = np.abs(key).view(np.float64)
        return np.where(key < 0, -c, c)

    one = np.float64(1.0).view(np.int64)
    want = np.arange(1, n_bins)
    lo = np.full(n_bins - 1, -one)  # -1.0, whose bin is 0 < k
    hi = np.full(n_bins - 1, one)  # 1.0, whose bin is B >= k
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        above = ((value(mid) + 1.0) * (n_bins / 2)).astype(np.int64) >= want
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return value(hi)


def _bins(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """The bins :func:`quantize_value` gives every entry of a projection,
    clipped to [-1, 1], all at once, from the :func:`_thresholds` of B.

    An entry's bin is the count of thresholds at or below it.  Rounding,
    then truncation, keeps c -> int((c+1) * (B/2)) non-decreasing, so
    that count is the number of k in 1..B-1 whose bin it reaches, which is
    its bin clamped to B-1.  The entries need not be clipped: a cosine
    that rounding puts just below -1 lies below every threshold and takes
    bin 0, and one just above 1 lies above every threshold and takes bin
    B-1, as clipping first would.
    """
    return thresholds.searchsorted(values, side="right")


@dataclass(frozen=True)
class TokenVocabulary:
    """Bijection between control tokens and a contiguous id block.

    Ids start at ``base_size`` (the underlying text vocabulary size) and
    cover exactly total_k * n_bins entries.
    """

    base_size: int
    n_bins: int
    factors: tuple[str, ...]
    group_sizes: tuple[int, ...]

    @property
    def total_k(self) -> int:
        return sum(self.group_sizes)

    @property
    def size(self) -> int:
        return self.total_k * self.n_bins

    def _group_bounds(self, factor: str) -> tuple[int, int]:
        pos = 0
        for f, k in zip(self.factors, self.group_sizes):
            if f == factor:
                return pos, k
            pos += k
        raise CodecError(f"no factor {factor!r} in vocabulary")

    def token_id(self, token: ControlToken) -> int:
        offset, k = self._group_bounds(token.factor)
        if not 0 <= token.anchor < k:
            raise CodecError(
                f"anchor index {token.anchor} out of range for factor "
                f"{token.factor} with {k} anchors"
            )
        if not 0 <= token.bin < self.n_bins:
            raise CodecError(f"bin {token.bin} out of range for n_bins={self.n_bins}")
        return self.base_size + (offset + token.anchor) * self.n_bins + token.bin

    def token_of(self, token_id: int) -> ControlToken:
        offset = token_id - self.base_size
        if not 0 <= offset < self.size:
            raise CodecError(f"token id {token_id} outside control block")
        flat, bin_ = divmod(offset, self.n_bins)
        pos = 0
        for f, k in zip(self.factors, self.group_sizes):
            if flat < pos + k:
                return ControlToken(factor=f, anchor=flat - pos, bin=bin_)
            pos += k
        raise CodecError(f"token id {token_id} outside control block")


def token_vocabulary(anchors: AnchorSet, n_bins: int, base_size: int) -> TokenVocabulary:
    if n_bins < 2:
        raise CodecError(f"n_bins must be at least 2, got {n_bins}")
    if base_size < 0:
        raise CodecError(f"base_size must be non-negative, got {base_size}")
    return TokenVocabulary(
        base_size=base_size,
        n_bins=n_bins,
        factors=anchors.factors,
        group_sizes=anchors.group_sizes,
    )


@dataclass(frozen=True)
class _TokenTable:
    """Everything the codec reads of one anchor set and bin count.

    The anchor layout and unit anchors, the bin thresholds, and every
    control token and its text in id order: entry anchor * n_bins + bin
    holds that token, so a row of bins becomes table indices with one add
    to ``offsets``.
    """

    n_bins: int
    factors: tuple[str, ...]
    group_sizes: tuple[int, ...]
    unit: np.ndarray  # (total_k, d) the anchor set's unit anchors
    thresholds: np.ndarray  # (n_bins - 1,) from _thresholds
    tokens: tuple[ControlToken, ...]
    texts: tuple[str, ...]
    offsets: np.ndarray  # (total_k,) flat anchor index * n_bins
    _ids: dict[int, tuple[int, ...]] = field(default_factory=dict)  # base size -> ids

    def vocab_ids(self, vocab: TokenVocabulary) -> tuple[int, ...]:
        """Every entry's id in ``vocab``, made once per base size, after
        checking that ``vocab`` has this table's bin count and layout."""
        if vocab.n_bins != self.n_bins:
            raise CodecError(
                f"vocabulary n_bins={vocab.n_bins} does not match encode n_bins={self.n_bins}"
            )
        if vocab.factors != self.factors or vocab.group_sizes != self.group_sizes:
            raise CodecError("vocabulary factor layout does not match the anchor set")
        base = vocab.base_size
        ids = self._ids.get(base)
        if ids is None:
            ids = self._ids[base] = tuple(range(base, base + len(self.tokens)))
        return ids


def _token_table(anchors: AnchorSet, n_bins: int) -> _TokenTable:
    """The table for (anchors, n_bins), built once and kept in the anchor
    set's cache."""
    key = ("token_table", n_bins)
    table = anchors._cache.get(key)
    if table is None:
        if n_bins < 2:
            raise CodecError(f"n_bins must be at least 2, got {n_bins}")
        tokens = tuple(
            ControlToken(factor=factor, anchor=a, bin=b)
            for factor, k in zip(anchors.factors, anchors.group_sizes)
            for a in range(k)
            for b in range(n_bins)
        )
        table = _TokenTable(
            n_bins=n_bins,
            factors=anchors.factors,
            group_sizes=anchors.group_sizes,
            unit=anchors.stacked_unit(),
            thresholds=_thresholds(n_bins),
            tokens=tokens,
            texts=tuple(t.render() for t in tokens),
            offsets=np.arange(anchors.total_k) * n_bins,
        )
        anchors._cache[key] = table
    return table


def _render(table: _TokenTable, flat: list[int], ids: tuple[int, ...] | None) -> ControlPrefix:
    """The prefix of the table entries at ``flat``, with their entries of
    ``ids`` as vocabulary ids (none without ``ids``)."""
    # itemgetter of one index returns the bare item; a one-entry slice keeps a tuple
    get = itemgetter(*flat) if len(flat) > 1 else itemgetter(slice(flat[0], flat[0] + 1))
    # positional: a third cheaper than by keyword through the frozen __init__
    return ControlPrefix(
        get(table.tokens), () if ids is None else get(ids), "".join(get(table.texts))
    )


def rank_anchors(values: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k strongest anchors in each row of an
    (n, total_k) affinity matrix, descending.

    Ties break toward the lower flat index, so the ranking is
    deterministic.
    """
    total = values.shape[1]
    if not 1 <= k <= total:
        raise CodecError(f"k must be in [1, {total}], got {k}")
    return np.argsort(-values, axis=1, kind="stable")[:, :k]


def _selected(values: np.ndarray, group_sizes: tuple[int, ...], k: int, scope: str) -> np.ndarray:
    """Flat indices kept in retrieval mode, per row in canonical (ascending) order."""
    if scope == "all":
        return np.sort(rank_anchors(values, k), axis=1)
    if k < 1:
        raise CodecError(f"k must be at least 1, got {k}")
    blocks = []
    pos = 0
    for size in group_sizes:
        order = np.argsort(-values[:, pos : pos + size], axis=1, kind="stable")
        blocks.append(pos + order[:, : min(k, size)])
        pos += size
    return np.sort(np.concatenate(blocks, axis=1), axis=1)


def _table_indices(
    H: np.ndarray, anchors: AnchorSet, n_bins: int, mode: str, k: int, scope: str,
    vocab: TokenVocabulary | None,
) -> tuple[_TokenTable, tuple[int, ...] | None, np.ndarray]:
    """The token table, its ids in ``vocab`` (none without one) and the
    (n, P) int64 table indices of the tokens :func:`encode_batch` selects
    for each row, in canonical order; a token's vocabulary id is the base
    size plus its index.  Every row has the same P: total_k, the sum of
    min(k, size) over the factors, or k under scope "all".  Bins come from
    the unclipped cosines; retrieval mode ranks them clipped."""
    if mode not in ("global", "retrieval"):
        raise CodecError(f"unknown encode mode {mode!r}")
    if scope not in ("factor", "all"):
        raise CodecError(f"unknown top-k scope {scope!r}")
    table = _token_table(anchors, n_bins)
    ids = None if vocab is None else table.vocab_ids(vocab)
    values = _cosines(H, table.unit)
    flat = _bins(values, table.thresholds)
    flat += table.offsets
    if mode == "retrieval":
        chosen = _selected(_clip(values), table.group_sizes, k, scope)
        flat = np.take_along_axis(flat, chosen, axis=1)
    return table, ids, flat


def encode_batch(
    H: np.ndarray,
    anchors: AnchorSet,
    n_bins: int,
    mode: str = "global",
    k: int = 1,
    scope: str = "factor",
    vocab: TokenVocabulary | None = None,
) -> list[ControlPrefix]:
    """Full encode path for every row of H: project, quantize, select, render.

    Global mode emits one token per anchor.  Retrieval mode keeps only the
    top-k strongest anchors (k per factor; scope "all" ranks the whole set
    instead), emitted in canonical order regardless of affinity rank so
    equal selections always render identically.  Without a vocabulary the
    prefixes carry token objects and text but no ids.  Raises
    :class:`CodecError` on a row that is zero or has a NaN or infinite entry.
    """
    table, ids, flat = _table_indices(H, anchors, n_bins, mode, k, scope, vocab)
    return [_render(table, row, ids) for row in flat.tolist()]


def encode(
    h: np.ndarray,
    anchors: AnchorSet,
    n_bins: int,
    mode: str = "global",
    k: int = 1,
    scope: str = "factor",
    vocab: TokenVocabulary | None = None,
) -> ControlPrefix:
    """:func:`encode_batch` on a batch of one row."""
    return encode_batch(np.asarray(h).reshape(1, -1), anchors, n_bins, mode, k, scope, vocab)[0]

