"""Votes CSV parsing/writing and seeded synthetic vote generators.

The on-disk format is a UTF-8 CSV whose header is ``voter_id`` followed by the
item names; each body row is a voter id plus one nonnegative utility cell per
item (0/1 for plain approval).  Parsing is strict: wrong-arity rows,
non-numeric cells, and voters who approve nothing are rejected with the line
(and column) named, because silently dropping ballots would change every
downstream quantity.  The body below the header takes the first of two paths
that accepts it.  The byte path reads a body with no ``"`` whose every line is
an id, then one comma and one ASCII digit per item, then ``\n`` or ``\r\n``
(what :func:`write_votes` writes for approval ballots): the digits are read
straight from the encoded bytes, and any other ``\r`` sends the file on.
Every other file, or one that fails the value checks, takes the csv path:
:mod:`csv` rows, one ``float()`` pass, whole-matrix checks.  Both give the
same matrix and item names, or the same error message, which names the first
faulty line.

Generators produce small named families used throughout the tests and docs:
majority/minority splits, shared-item variants, free-rider setups, and random
approval models.  All are deterministic per seed.
"""

from __future__ import annotations

import contextlib
import csv
import math
import numbers
import re
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .model import Instance, reject_bools

__all__ = ["BallotError", "parse_votes", "write_votes", "gen_synthetic", "PROFILES"]

# A line as io.StringIO(text, newline="") yields it: \n, \r\n or \r ends it.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


class BallotError(ValueError):
    """Malformed votes data; the message names the offending line/column."""


def _open_source(source, mode: str = "r"):
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8", newline="")
    return contextlib.nullcontext(source)  # a caller's stream stays open


def _valid(matrix: np.ndarray) -> bool:
    """All cells finite and nonnegative, and a positive cell in every row."""
    return bool(((matrix >= 0) & (matrix < np.inf)).all() and (matrix > 0).any(axis=1).all())


def _raise_first_fault(rows: list, item_names: list) -> None:
    """Check (line number, row) pairs in file order and raise for the first
    faulty row; runs only after the one-pass check of all rows has failed."""
    k = len(item_names)
    for lineno, row in rows:
        if len(row) != k + 1:
            raise BallotError(f"line {lineno}: row has {len(row) - 1} value cells, expected {k}")
        cells = np.empty(k)
        for j, cell in enumerate(row[1:]):
            try:
                cells[j] = float(cell)
            except ValueError:
                raise BallotError(
                    f"line {lineno}, column '{item_names[j]}': not a number: {cell.strip()!r}"
                ) from None
        if not np.all(np.isfinite(cells)) or np.any(cells < 0):
            raise BallotError(f"line {lineno}: utilities must be finite and nonnegative")
        if not np.any(cells > 0):
            raise BallotError(
                f"line {lineno}: voter {row[0].strip()!r} approves nothing (all-zero row)"
            )


def _read_digits(body: str, k: int) -> Optional[np.ndarray]:
    """The byte path: the matrix if every body line is an id, then k cells of
    one ASCII digit each after a comma, then ``\\n`` or ``\\r\\n``; None for
    any other layout, or values that fail :func:`_valid`."""
    raw = body.encode("utf-8", "surrogatepass")
    if not raw.endswith(b"\n"):
        raw += b"\n"
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    crlf = buf[ends - 1] == 13
    if np.count_nonzero(buf == 13) != np.count_nonzero(crlf):  # a \r not before \n
        return None
    commas = np.flatnonzero(buf == 44)
    if commas.size != ends.size * k:
        return None
    grid = commas.reshape(-1, k)
    eol = ends - crlf
    digits = buf[commas + 1] - np.uint8(48)  # bytes below '0' wrap past 9
    # Row i's k commas span the 2k - 1 bytes before line i's end, and each is
    # followed by a digit, not a comma: so they sit two bytes apart, on line i
    # after the id, and a digit ends the line.
    if not ((grid[:, 0] == eol - 2 * k).all() and (grid[:, -1] == eol - 2).all()
            and (digits <= 9).all()):
        return None
    del commas, grid  # 8 bytes a cell: free them before the matrix is built
    matrix = digits.reshape(-1, k).astype(float)
    return matrix if _valid(matrix) else None


def parse_votes(source) -> tuple[np.ndarray, list]:
    """Read a votes CSV; returns (matrix, item_names), a row per voter in file order.

    ``source`` may be a path or an open text stream; one leading byte-order
    mark is dropped.
    """
    with _open_source(source) as fh:
        text = fh.read().removeprefix("\ufeff")  # a spreadsheet export's byte-order mark
    reader = csv.reader(m.group() for m in _LINE.finditer(text))
    try:
        header = next(reader)
    except StopIteration:
        raise BallotError("empty votes file: missing header row") from None
    if not header or header[0].strip() != "voter_id":
        raise BallotError(
            "line 1: header must start with 'voter_id' followed by item names"
        )
    item_names = [c.strip() for c in header[1:]]
    if not item_names:
        raise BallotError("line 1: header lists no items")
    if any(not name for name in item_names):
        raise BallotError("line 1: empty item name in header")
    if len(set(item_names)) != len(item_names):
        raise BallotError("line 1: duplicate item names in header")

    body_at = 0  # the header is the reader's first line_num lines
    for _ in range(reader.line_num):
        body_at = _LINE.match(text, body_at).end()
    # A quoted id may hold commas and line ends the byte scan would misread.
    k, body = len(item_names), text[body_at:]
    if '"' not in body:
        matrix = _read_digits(body, k)
        if matrix is not None:
            return matrix, item_names
    rows = [  # (line number, row), blank lines dropped
        (lineno, row) for lineno, row in enumerate(reader, start=2)
        if row and not (len(row) == 1 and not row[0].strip())
    ]
    try:
        if any(len(row) != k + 1 for _, row in rows):
            raise ValueError
        cells = chain.from_iterable(row[1:] for _, row in rows)
        matrix = np.fromiter(map(float, cells), dtype=float, count=len(rows) * k).reshape(-1, k)
        valid = _valid(matrix)
    except ValueError:  # a wrong-arity row or a cell that is not a number
        valid = False
    if not valid:
        _raise_first_fault(rows, item_names)
    if not rows:
        raise BallotError("votes file has a header but no voter rows")
    return matrix, item_names


def write_votes(target, matrix: np.ndarray, item_names: Sequence) -> None:
    """Write a votes CSV in the format :func:`parse_votes` reads back, voters
    named ``v0``, ``v1``, ... in row order."""
    M = np.ascontiguousarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[1] != len(item_names):
        raise BallotError("matrix shape does not match item names")
    with _open_source(target, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["voter_id", *item_names])
        # Format each distinct value in a block of rows once; bits keep -0.0 apart from 0.0.
        for lo in range(0, len(M), 1024):
            bits, cell = np.unique(M[lo:lo + 1024].view(np.uint64), return_inverse=True)
            text = np.array([f"{v:.10g}" for v in bits.view(float).tolist()], dtype=object)
            rows = text[cell.reshape(-1, M.shape[1])].tolist()
            writer.writerows([f"v{i}", *row] for i, row in enumerate(rows, start=lo))


# ---------------------------------------------------------------------------
# Synthetic profiles
# ---------------------------------------------------------------------------


def _redraw_empty(votes: np.ndarray, rng: np.random.Generator, p) -> np.ndarray:
    empty = ~votes.any(axis=1)
    while empty.any():
        votes[empty] = rng.random((int(empty.sum()), votes.shape[1])) < p
        empty = ~votes.any(axis=1)
    return votes


def _disjoint_groups(n, k, rng, params):
    if k is None or k < 1:
        raise BallotError("disjoint-groups needs k >= 1")
    u = np.zeros((n, k))
    u[np.arange(n), np.arange(n) % k] = 1.0
    return u, None


def _independent_bernoulli(n, k, rng, params):
    if k is None or k < 1:
        raise BallotError("independent-bernoulli needs k >= 1")
    p = float(params.pop("p", 0.5))
    if not 0.0 < p <= 1.0:
        raise BallotError(f"approval probability must lie in (0, 1], got {p}")
    votes = rng.random((n, k)) < p
    return _redraw_empty(votes, rng, p).astype(float), None


def _block_correlated(n, k, rng, params):
    """Two latent voter coins, one per item block: perfect within-block
    correlation, exact cross-block independence.

    Item 0 is an anchor every voter approves.  Without it, voters whose coins
    both land tails would have empty ballots, and redrawing those rows makes
    the two coins anti-correlated -- a real, detectable dependence that
    defeats the point of the profile.  The anchor keeps every ballot nonempty
    while leaving the coins untouched; independence tests should treat its
    constant column as degenerate.
    """
    if k is None or k < 3:
        raise BallotError("block-correlated needs k >= 3 (anchor + two blocks)")
    p = float(params.pop("p", 0.5))
    if not 0.0 < p < 1.0:
        raise BallotError(f"block coin probability must lie in (0, 1), got {p}")
    half = 1 + (k - 1) // 2
    coins = rng.random((n, 2)) < p
    u = np.zeros((n, k))
    u[:, 0] = 1.0
    u[:, 1:half] = coins[:, [0]]
    u[:, half:] = coins[:, [1]]
    return u, None


def _k_approval(n, k, rng, params):
    """Each voter approves a uniform random subset of fixed size; item sizes
    are drawn once per instance as a fraction of the budget."""
    if k is None or k < 1:
        raise BallotError("k-approval needs k >= 1")
    approvals = params.pop("approvals", 4)
    if not (isinstance(approvals, numbers.Integral) and 1 <= approvals <= k):
        raise BallotError(f"approvals must lie in [1, k], got {approvals}")
    picks = np.empty((n, approvals), dtype=np.intp)
    for i in range(n):
        picks[i] = rng.choice(k, size=approvals, replace=False)
    u = np.zeros((n, k))
    np.put_along_axis(u, picks, 1.0, axis=1)
    sizes = rng.uniform(0.08, 0.25, size=k)
    return u, sizes


def _fixed_k(k, expected) -> None:
    if k is not None and k != expected:
        raise BallotError(f"profile fixes k = {expected}, got {k}")


def _figure1a(n, k, rng, params):
    _fixed_k(k, 2)
    if n < 3:
        raise BallotError("majority/minority split needs n >= 3")
    m = math.ceil(n / 2) + 1
    u = np.tile([0.0, 1.0], (n, 1))
    u[:m] = [1.0, 0.0]
    return u, None


def _figure1b(n, k, rng, params):
    _fixed_k(k, 3)
    if n < 2:
        raise BallotError("shared-item split needs n >= 2")
    m = math.ceil(n / 2)
    u = np.tile([0.0, 0.6, 0.4], (n, 1))
    u[:m] = [0.6, 0.0, 0.4]
    return u, None


def _figure1c(n, k, rng, params):
    _fixed_k(k, 2)
    if n < 2:
        raise BallotError("n-1 vs 1 split needs n >= 2")
    u = np.tile([1.0, 0.0], (n, 1))
    u[-1] = [0.0, 1.0]
    return u, None


def _figure2a(n, k, rng, params):
    _fixed_k(k, 2)
    if n < 2:
        raise BallotError("free-rider setup needs n >= 2")
    u = np.tile([1.0, 0.0], (n, 1))
    u[0] = [1.0 / 3.0, 2.0 / 3.0]
    return u, None


def _figure2b(n, k, rng, params):
    _fixed_k(k, 2)
    if n < 3:
        raise BallotError("two-manipulator setup needs n >= 3")
    u = np.tile([0.5, 0.5], (n, 1))
    u[0] = [1.0 / 3.0, 2.0 / 3.0]
    u[1] = [2.0 / 3.0, 1.0 / 3.0]
    return u, None


PROFILES = {
    "disjoint-groups": _disjoint_groups,
    "independent-bernoulli": _independent_bernoulli,
    "block-correlated": _block_correlated,
    "k-approval": _k_approval,
    "figure1a": _figure1a,
    "figure1b": _figure1b,
    "figure1c": _figure1c,
    "figure2a": _figure2a,
    "figure2b": _figure2b,
}


def gen_synthetic(
    profile: str,
    n: int,
    k: Optional[int] = None,
    seed: int = 0,
    budget: float = 1.0,
    **params,
) -> Instance:
    """Build a named synthetic instance; deterministic per seed.

    Profiles with a fixed item count (the figure families) reject a
    contradicting ``k``.  ``k-approval`` also draws item sizes (as fractions
    of the budget), making it directly usable with saturating solvers.
    """
    if profile not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise BallotError(f"unknown profile {profile!r}; known profiles: {known}")
    if n < 1:
        raise BallotError("n must be at least 1")
    reject_bools(BallotError, **params)  # float(True) would read as 1
    rng = np.random.default_rng(seed)
    params = dict(params)
    u, size_fracs = PROFILES[profile](n, k, rng, params)
    if params:
        raise BallotError(
            f"unused parameters for profile {profile!r}: {sorted(params)}"
        )
    sizes = None if size_fracs is None else size_fracs * budget
    return Instance(utilities=u, budget=budget, sizes=sizes)
