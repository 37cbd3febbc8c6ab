"""Score matrices, file formats, softmax, sorting, and data splits.

A score matrix holds one row of classifier outputs per example (logits or
probabilities) plus the true label. All downstream set construction consumes
the sorted view produced by :func:`sort_scores`. Internal arithmetic is
64-bit; the binary file format stores scores as float32.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import seeds

KINDS = ("logits", "probabilities")

_MAGIC = b"CSET1"
# Binary header after the magic: kind flag (0 logits, 1 probabilities), n, K.
_HEAD = struct.Struct("<BQQ")
_HEAD_BYTES = len(_MAGIC) + _HEAD.size
_ROW_SUM_OK = 1e-6
_ROW_SUM_FIX = 1e-3
# Cells per row block of every block walk (see _row_blocks); bounds each
# block-sized temporary at this many cells (512 KB of float64).
_BLOCK_CELLS = 1 << 16


class DataError(ValueError):
    """Malformed or inconsistent input data (distinct from usage errors)."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise DataError(msg)


@dataclass(frozen=True)
class ScoreMatrix:
    """Validated (n, K) score matrix with integer labels in [0, K).

    Probability rows must sum to 1 within 1e-6; rows off by at most 1e-3
    are renormalized, anything worse is rejected. Arrays are read-only
    after construction.
    """

    scores: np.ndarray
    labels: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        _check(self.kind in KINDS, f"unknown kind {self.kind!r}")
        scores = np.asarray(self.scores)  # _valid_scores copies it to float64
        labels = np.array(self.labels)
        _check(scores.ndim == 2, "scores must be a 2-D array")
        n, k = scores.shape
        _check(n >= 1, "empty matrix: need at least one row")
        _check(k >= 2, f"need at least 2 classes, got {k}")
        _check(labels.shape == (n,), "labels must be one integer per row")
        labels = _check_labels(labels, k)
        _set_arrays(self, _valid_scores(scores, self.kind), labels)

    @classmethod
    def _trusted(cls, scores: np.ndarray, labels: np.ndarray, kind: str) -> "ScoreMatrix":
        """Wrap arrays that are already valid, without copying or checking them.

        Only for arrays that nothing else writes: fresh results (softmax,
        take, a checked file block) or slices of a valid matrix.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "kind", kind)
        _set_arrays(m, scores, labels)
        return m

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]

    def take(self, idx: np.ndarray | slice) -> "ScoreMatrix":
        """Row subset in the given order: a copy for an index array, a view for a slice."""
        return ScoreMatrix._trusted(self.scores[idx], self.labels[idx], self.kind)

    def blocks(self):
        """(first row, view) of each row block of :func:`_row_blocks`."""
        return ((rows.start, self.take(rows)) for rows in _row_blocks(self.n, self.n_classes))


def _row_blocks(n: int, k: int):
    """Consecutive row blocks covering rows [0, n) of K cells each, as slices:
    ``_BLOCK_CELLS // K`` rows a block (at least one), only the last one short."""
    rows = max(1, _BLOCK_CELLS // k)
    return (slice(lo, min(lo + rows, n)) for lo in range(0, n, rows))


def _set_arrays(m: ScoreMatrix, scores: np.ndarray, labels: np.ndarray) -> None:
    for arr in (scores, labels):
        arr.setflags(write=False)
    object.__setattr__(m, "scores", scores)
    object.__setattr__(m, "labels", labels)


def _check_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """The labels as int64; a DataError names the first row whose label is not
    in [0, K), else the first whose label is not a whole number."""
    out = (labels < 0) | (labels >= k)
    if out.any():
        row = int(np.argmax(out))
        raise DataError(f"label out of range in row {row}: {labels[row]} not in [0, {k})")
    if labels.dtype.kind == "f":
        part = labels != np.floor(labels)
        if part.any():
            row = int(np.argmax(part))
            raise DataError(f"label in row {row} is not a whole number: {labels[row]}")
    return labels.astype(np.int64, copy=False)


def _valid_scores(scores: np.ndarray, kind: str, first_row: int = 0) -> np.ndarray:
    """The scores as a float64 copy, checked: finite, and for probabilities
    nonnegative with rows that sum to 1 (renormalized within the band) and
    each -0.0 made 0.0, so equal values have equal bits. Errors name rows
    counted from first_row.
    """
    scores = np.array(scores, dtype=np.float64)  # the caller's array is never written
    bad = ~np.isfinite(scores)
    if bad.any():
        row = int(np.argwhere(bad)[0, 0])
        raise DataError(f"non-finite score in row {first_row + row}")
    if kind == "probabilities":
        signed = np.signbit(scores)  # the negative cells and each -0.0
        if (scores[signed] < 0).any():
            row = int(np.argwhere(scores < 0)[0, 0])
            raise DataError(f"negative probability in row {first_row + row}")
        scores[signed] = 0.0
        sums = scores.sum(axis=1)
        dev = np.abs(sums - 1.0)
        if (dev > _ROW_SUM_FIX).any():
            row = int(np.argmax(dev > _ROW_SUM_FIX))
            raise DataError(
                f"row {first_row + row} sums to {sums[row]:.6f}, outside the {_ROW_SUM_FIX} "
                "renormalization band"
            )
        fix = dev > _ROW_SUM_OK
        if fix.any():
            scores[fix] /= sums[fix, None]
    return scores


@dataclass(frozen=True)
class SortedScores:
    """Per-row descending sort of a probability matrix.

    ``sorted[i, j]`` is the (j+1)-th largest probability of row i,
    ``perm[i, j]`` the class index it came from, and ``cumsum`` the running
    row prefix sums. Equal probabilities are ordered by seeded random keys
    (see :func:`sort_scores`), so ``perm`` rows are always true
    permutations and a given seed always yields the same order. ``perm`` is
    built when first read, by a lexsort that draws keys for every row, so
    label ranks and listed sets read only the ``perm`` of their tied rows.
    ``sorted`` and ``cumsum`` may hold only the first columns of the sort;
    K is that of the probabilities, and ``perm`` always has K columns.
    """

    sorted: np.ndarray
    _perm: np.ndarray | None
    cumsum: np.ndarray
    # The probabilities sorted, the tie-key seed, and each row's key-stream row.
    _probs: np.ndarray = field(repr=False)
    _seed: int
    _rows: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for arr in (self.sorted, self._perm, self.cumsum, self._probs):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.sorted.shape[0]

    @property
    def n_classes(self) -> int:
        return self._probs.shape[1]

    @property
    def perm(self) -> np.ndarray:
        """Class index of each sorted cell: built on first read, then kept."""
        if self._perm is None:
            object.__setattr__(self, "_perm", _tie_ordered(self._probs, self._seed, self._rows))
        return self._perm

    def take(self, idx: np.ndarray) -> "SortedScores":
        """Row subset in the given order; copies each array once, builds no perm."""
        perm = None if self._perm is None else self._perm[idx]
        return SortedScores(self.sorted[idx], perm, self.cumsum[idx], self._probs[idx],
                            self._seed, self._rows[idx])

    def label_ranks(self, labels: np.ndarray) -> np.ndarray:
        """1-based rank of each row's label in that row's sorted order.

        The result is read-only. Each call ranks anew: a caller that reads
        the ranks of one split more than once keeps its :meth:`label_cells`
        as a _LabelCells. A rank counts the larger cells of the row, one row
        block at a time, so the extra memory is one block, not n x K; only a
        label that ties another cell is found in its row of ``perm``. A
        label outside [0, K), or not a whole number, is a DataError.
        """
        n, w = self.sorted.shape
        k = self.n_classes
        labels = np.asarray(labels)
        _check(labels.shape == (n,), "labels must be one integer per row")
        labels = _check_labels(labels, k)
        at = np.arange(n)
        p_y = self._probs[at, labels]
        ranks = np.empty(n, dtype=np.intp)
        for rows in _row_blocks(n, k):
            ranks[rows] = np.count_nonzero(self._probs[rows] > p_y[rows, None], axis=1)
        # The label's run of equal values starts at its count.
        tied = (ranks < k - 1) & (self.sorted[at, np.minimum(ranks + 1, w - 1)] == p_y)
        if w < k:  # a row whose next cell is not stored counts its cells equal to the label
            far = np.flatnonzero(ranks >= w - 1)
            tied[far] = np.count_nonzero(self._probs[far] == p_y[far, None], axis=1) > 1
        tied = np.flatnonzero(tied)
        if tied.size:
            ranks[tied] = np.argmax(self.take(tied).perm == labels[tied, None], axis=1)
        ranks += 1
        ranks.setflags(write=False)
        return ranks

    def label_cells(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rank, s, rho) of each row's label: its :meth:`label_ranks` rank,
        its probability, and the mass strictly above it (0.0 at rank 1),
        read from ``sorted`` and ``cumsum``; all a calibration reads of a row."""
        ranks = self.label_ranks(labels)
        idx = ranks - 1
        rows = np.arange(self.n)
        rho = np.where(idx > 0, self.cumsum[rows, np.maximum(idx - 1, 0)], 0.0)
        return ranks, self.sorted[rows, idx], rho

    def top_classes(self, sizes: np.ndarray) -> list[list[int]]:
        """``perm[i, :sizes[i]]`` of every row i, as lists. A row with no tie
        in those cells or at their edge lists its cells at or above the last
        one by descending probability, without ``perm``. The edge check reads
        column max(sizes), so fewer stored columns than that, below K, are a
        ValueError."""
        n, w = self.sorted.shape
        k = self.n_classes
        m = min(k, int(sizes.max(initial=0)) + 1)  # no set reaches past column m - 1
        if m > w:
            raise ValueError(f"sets of up to {m - 1} classes need {m} sorted columns, not {w}")
        tied = ((self.sorted[:, 1:m] == self.sorted[:, :m - 1])
                & (np.arange(m - 1) < sizes[:, None])).any(axis=1)
        edge = np.where((sizes > 0) & ~tied, self.sorted[np.arange(n), sizes - 1], np.inf)
        r, c = np.divmod(np.flatnonzero(self._probs >= edge[:, None]), k)
        out = np.empty(int(sizes.sum()), dtype=np.intp)
        from_perm = np.repeat(tied, sizes)
        out[~from_perm] = c[np.lexsort((-self._probs[r, c], r))]
        if tied.any():
            tied = np.flatnonzero(tied)
            out[from_perm] = self.take(tied).perm[np.arange(k) < sizes[tied, None]]
        flat, ends = out.tolist(), np.cumsum(sizes).tolist()
        return [flat[end - size:end] for size, end in zip(sizes.tolist(), ends)]


@dataclass(frozen=True, eq=False)
class _LabelCells:
    """The :meth:`SortedScores.label_cells` of some labels, ranked once and
    kept without the sorted rows. Every fit of a split reads them in place of
    its SortedScores: tuning.fit_model and what it calls, and the tuners."""

    labels: np.ndarray
    ranks: np.ndarray
    s: np.ndarray
    rho: np.ndarray
    n_classes: int

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def label_cells(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not np.array_equal(labels, self.labels):
            raise ValueError("these are the cells of other labels")
        return self.ranks, self.s, self.rho

    def label_ranks(self, labels: np.ndarray) -> np.ndarray:
        return self.label_cells(labels)[0]


def check_temperature(temperature: float) -> None:
    """Raise ValueError unless the temperature is positive and finite."""
    if not 0 < temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")


def softmax(m: ScoreMatrix, temperature: float = 1.0) -> ScoreMatrix:
    """Row-wise softmax of a logit matrix at the given temperature.

    Stabilized by subtracting the row max before exponentiation. Preserves
    the within-row ranking for any positive finite temperature. Works in
    place on one fresh n x K array, which the result holds without a
    further copy; the input matrix is not touched.
    """
    if m.kind != "logits":
        raise ValueError("softmax expects logits")
    check_temperature(temperature)
    e = m.scores - m.scores.max(axis=1, keepdims=True)
    e /= temperature
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return ScoreMatrix._trusted(e, m.labels, "probabilities")


def sort_scores(m: ScoreMatrix, seed: int = 0, first_row: int = 0, *,
                _width: int | None = None) -> SortedScores:
    """Descending per-row sort with seeded uniform tie-breaking.

    Equal entries of a row are ordered by an auxiliary uniform key. The key
    of cell (i, j) of ``m`` is draw ``(first_row + i) * K + j`` of the
    substream (seed, TIEBREAK), so the outcome does not depend on processing
    order, and the rows lo:hi of a matrix sorted with ``first_row=lo`` give
    exactly rows lo:hi of the whole matrix's sort. ``perm`` is therefore
    exactly ``np.lexsort((keys, -scores), axis=1)`` over the full n x K key
    matrix, so seeded results match earlier releases.

    Only the values are sorted, in the row blocks of :func:`_row_blocks`.
    Equal values have equal bits (a checked probability matrix holds no
    -0.0; see :func:`_valid_scores`), so ties show in neither ``sorted`` nor
    ``cumsum``. The result keeps the probabilities to build ``perm`` from,
    which lexsorts the rows asked for: the whole ``perm`` draws every key.
    ``_width`` (private; default K) keeps only the first columns of
    ``sorted`` and ``cumsum``: below K, np.partition finds each row's top
    ``_width`` values and only those are sorted, so both hold the full
    sort's bits in those columns.
    """
    if m.kind != "probabilities":
        raise ValueError("sort_scores expects probabilities; apply softmax first")
    if first_row < 0:
        raise ValueError(f"first_row must be nonnegative, got {first_row}")
    seeds.sequence(seed)  # refuse a negative seed here: ties read it only when ordered
    n, k = m.scores.shape
    w = k if _width is None else _width
    rows = np.arange(first_row, first_row + n)
    srt = np.empty((n, w))
    cumsum = np.empty((n, w))
    for block in _row_blocks(n, k):
        p = m.scores[block]
        if w < k:
            srt[block] = np.sort(np.partition(p, k - w, axis=1)[:, k - w:], axis=1)[:, ::-1]
        else:
            srt[block] = np.sort(p, axis=1)[:, ::-1]
        np.cumsum(srt[block], axis=1, out=cumsum[block])
    return SortedScores(srt, None, cumsum, m.scores, seed, rows)


def _tie_ordered(scores: np.ndarray, seed: int, rows: np.ndarray) -> np.ndarray:
    """perm of some probability rows: row i is ``np.lexsort((keys, -scores[i]))``
    with the keys of row ``rows[i]`` of the key stream (see :func:`sort_scores`).
    Every row given draws its keys and is lexsorted, tied or not."""
    n, k = scores.shape
    perm = np.empty((n, k), dtype=np.intp)
    for block in _row_blocks(n, k):
        perm[block] = np.lexsort((_tie_keys(seed, rows[block], k), -scores[block]), axis=1)
    perm.setflags(write=False)
    return perm


def _tie_keys(seed: int, rows: np.ndarray, k: int) -> np.ndarray:
    """The K tie keys of each row ``rows[i]`` of the matrix: draws
    ``rows[i] * K`` to ``rows[i] * K + K - 1`` of the substream (seed, TIEBREAK)."""
    rng = seeds.rng(seed, seeds.TIEBREAK)
    start = rng.bit_generator.state
    keys = np.empty((len(rows), k))
    for i, row in enumerate(rows.tolist()):
        # random() takes one 64-bit step per float64: skip the rows before.
        rng.bit_generator.state = start
        rng.bit_generator.advance(row * k)
        keys[i] = rng.random(k)
    return keys


@dataclass(frozen=True)
class SplitSpec:
    """Sizes of the (tuning, calibration, evaluation) splits.

    Each size is an absolute row count (int) or a fraction of n (float in
    [0, 1)). The three splits are disjoint; leftover rows are dropped.
    """

    seed: int
    sizes: tuple

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if len(self.sizes) != 3:
            raise ValueError("sizes must be (tuning, calibration, evaluation)")

    def resolve(self, n: int) -> tuple[int, int, int]:
        out = []
        for s in self.sizes:
            if isinstance(s, float):
                if not 0 <= s < 1:
                    raise ValueError(f"fractional size must be in [0, 1), got {s}")
                out.append(int(round(s * n)))
            else:
                if s < 0:
                    raise ValueError(f"split size must be nonnegative, got {s}")
                out.append(int(s))
        if sum(out) > n:
            raise DataError(f"split sizes {tuple(out)} exceed available rows ({n})")
        return tuple(out)


def split(m: ScoreMatrix, spec: SplitSpec) -> tuple[ScoreMatrix | None, ...]:
    """Disjoint (tuning, calibration, evaluation) split via a seeded shuffle.

    A size of zero yields None for that slot. Deterministic given the seed.
    """
    t, c, e = spec.resolve(m.n)
    perm = seeds.rng(spec.seed, seeds.SPLIT).permutation(m.n)
    parts = []
    at = 0
    for size in (t, c, e):
        parts.append(m.take(perm[at:at + size]) if size > 0 else None)
        at += size
    return tuple(parts)


# --- file formats ---------------------------------------------------------

def save_scores(m: ScoreMatrix, path: str, fmt: str = "binary") -> None:
    if fmt == "csv":
        _save_csv(m, path)
    elif fmt == "binary":
        _save_binary(m, path)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_scores(path: str, fmt: str = "auto") -> ScoreMatrix:
    """Load a score file. With fmt="auto" the binary magic decides."""
    if fmt == "auto":
        fmt = _sniff(path)
    if fmt == "csv":
        return _load_csv(path)
    if fmt != "binary":
        raise ValueError(f"unknown format {fmt!r}")
    head = _open_binary(path)
    with open(path, "rb") as fh:
        scores = _read_rows(fh, path, head.n_classes, 0, head.n)
    # ScoreMatrix converts the float32 scores to float64 in one copy.
    return ScoreMatrix(scores, head.labels, head.kind)


@dataclass(frozen=True, eq=False)
class ScoreBlocks:
    """A binary score file walked in the row blocks of :func:`_row_blocks`.

    :func:`open_scores` reads and checks the kind, the shape and the labels
    up front; ``blocks()`` yields ``(first_row, ScoreMatrix)`` for each row
    block, as :meth:`ScoreMatrix.blocks` does. The scores are read from disk
    one block at a time, so memory is bounded by the block, not by n, and a
    bad score is reported with its row in the file.
    """

    path: str
    kind: str
    n_classes: int
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def blocks(self):
        k = self.n_classes
        with open(self.path, "rb") as fh:
            for rows in _row_blocks(self.n, k):
                # Unnamed here, a block is freed as soon as its consumer drops it.
                yield rows.start, ScoreMatrix._trusted(
                    _valid_scores(_read_rows(fh, self.path, k, rows.start, rows.stop),
                                  self.kind, rows.start),
                    self.labels[rows], self.kind)


def open_scores(path: str) -> ScoreMatrix | ScoreBlocks:
    """Open a score file (binary or CSV, by its magic) for a walk in row
    blocks through its ``blocks()``.

    A CSV file is loaded whole, as the ScoreMatrix returned (its kind is
    inferred from every row). A binary file's size, kind flag and labels
    are checked here, before any score is read, and its ScoreBlocks reads
    one block at a time.
    """
    return _load_csv(path) if _sniff(path) == "csv" else _open_binary(path)


def _sniff(path: str) -> str:
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
    return "binary" if head == _MAGIC else "csv"


def _r(x) -> str:
    """One cell of any output file: floats by repr, bools as true/false."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(float(x))  # a numpy float's own repr is "np.float64(...)"
    return str(x)


def _kv(fields: dict) -> str:
    return "".join(f"{key} = {_r(val)}\n" for key, val in fields.items())


def _save_csv(m: ScoreMatrix, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"scores,K={m.n_classes}\n")
        for row, label in zip(m.scores, m.labels):
            fh.write(",".join(map(_r, row)))
            fh.write(f",{int(label)}\n")


def _load_csv(path: str) -> ScoreMatrix:
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("scores,K="):
                raise DataError(f"{path}: malformed header {header!r}")
            try:
                k = int(header[len("scores,K="):])
            except ValueError:
                raise DataError(f"{path}: malformed header {header!r}") from None
            rows, labels = [], []
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                i = len(rows)  # data rows, as ScoreMatrix counts them
                parts = line.split(",")
                if len(parts) != k + 1:
                    raise DataError(f"{path}: row {i} has {len(parts) - 1} scores, expected {k}")
                try:
                    rows.append(np.fromiter(map(float, parts[:k]), dtype=np.float64, count=k))
                    labels.append(int(parts[k]))
                except ValueError:
                    raise DataError(f"{path}: row {i} has a malformed value") from None
    except UnicodeDecodeError:
        raise DataError(
            f"{path}: not a text CSV and the binary magic is absent"
        ) from None
    _check(rows, f"{path}: empty matrix")
    scores = np.array(rows, dtype=np.float64)
    del rows  # free the row arrays before ScoreMatrix copies the matrix
    kind = _infer_kind(scores)
    return ScoreMatrix(scores, np.array(labels, dtype=np.int64), kind)


def _infer_kind(scores: np.ndarray) -> str:
    # CSV carries no kind flag; rows that look like distributions (entries in
    # [0, 1], sums within the renormalization band) are read as probabilities.
    if (scores >= 0).all() and (scores <= 1).all():
        if np.abs(scores.sum(axis=1) - 1.0).max() <= _ROW_SUM_FIX:
            return "probabilities"
    return "logits"


def _save_binary(m: ScoreMatrix, path: str) -> None:
    kind_flag = 0 if m.kind == "logits" else 1
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEAD.pack(kind_flag, m.n, m.n_classes))
        fh.write(m.scores.astype("<f4").tobytes(order="C"))
        fh.write(m.labels.astype("<u4").tobytes())


def _open_binary(path: str) -> ScoreBlocks:
    """A binary score file's kind, K and labels, read before any score: its
    size must match the header, and each label must lie in [0, K)."""
    with open(path, "rb") as fh:
        head = fh.read(_HEAD_BYTES)
        _check(len(head) == _HEAD_BYTES, f"{path}: truncated header")
        _check(head[: len(_MAGIC)] == _MAGIC, f"{path}: bad magic, not a score file")
        kind_flag, n, k = _HEAD.unpack_from(head, len(_MAGIC))
        _check(kind_flag in (0, 1), f"{path}: bad kind flag {kind_flag}")
        _check(n > 0, f"{path}: empty matrix")
        _check(k >= 2, f"{path}: need at least 2 classes, got {k}")
        need = _HEAD_BYTES + 4 * n * k + 4 * n
        size = os.fstat(fh.fileno()).st_size
        _check(size == need, f"{path}: truncated or padded, expected {need} bytes, found {size}")
        fh.seek(_HEAD_BYTES + 4 * n * k)
        labels = np.fromfile(fh, dtype="<u4", count=n).astype(np.int64)
    _check_labels(labels, k)
    labels.setflags(write=False)
    return ScoreBlocks(path, "logits" if kind_flag == 0 else "probabilities", k, labels)


def _read_rows(fh, path: str, k: int, lo: int, hi: int) -> np.ndarray:
    """Float32 scores of rows lo:hi of a binary score file."""
    fh.seek(_HEAD_BYTES + 4 * lo * k)
    scores = np.fromfile(fh, dtype="<f4", count=(hi - lo) * k)
    _check(scores.size == (hi - lo) * k, f"{path}: truncated at row {lo}")
    return scores.reshape(hi - lo, k)
