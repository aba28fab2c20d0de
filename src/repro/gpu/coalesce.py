"""Memory-access coalescing model.

A warp's 32 lane addresses collapse into 32-byte *sectors* — the unit
the L1TEX cache and the rest of the hierarchy move.  Fully-coalesced
32-bit accesses need 4 sectors per warp; a strided pattern can need up
to 32.  GPUscout's whole §4.1 story (vectorized loads improve bandwidth
utilization per instruction) rests on this granularity.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coalesce_sectors",
    "shared_transactions",
    "coalesce_sector_counts",
    "shared_transaction_counts",
]


def coalesce_sectors(
    addresses: np.ndarray,
    access_bytes: int,
    mask: np.ndarray,
    sector_bytes: int = 32,
) -> np.ndarray:
    """Unique sector base addresses touched by one warp access.

    ``addresses`` are per-lane byte addresses; lanes where ``mask`` is
    False do not participate.  An access of ``access_bytes`` spanning a
    sector boundary touches both sectors (handled by covering the whole
    [addr, addr+bytes) range).

    Returns a sorted ``np.ndarray`` of sector base addresses (may be
    empty when no lane is active).
    """
    if not mask.any():
        return np.empty(0, dtype=np.int64)
    addrs = addresses[mask].astype(np.int64)
    first = addrs // sector_bytes
    last = (addrs + access_bytes - 1) // sector_bytes
    if (first == last).all():
        sectors = np.unique(first)
    else:
        pieces = [
            np.arange(f, l + 1) for f, l in zip(first.tolist(), last.tolist())
        ]
        sectors = np.unique(np.concatenate(pieces))
    return sectors * sector_bytes


def shared_transactions(
    addresses: np.ndarray,
    access_bytes: int,
    mask: np.ndarray,
    banks: int = 32,
    bank_bytes: int = 4,
) -> int:
    """Number of serialized shared-memory transactions for one access.

    Shared memory has ``banks`` banks of ``bank_bytes`` words.  Lanes
    hitting *different words in the same bank* serialize; lanes reading
    the same word broadcast.  The transaction count is the maximum,
    over banks, of the number of distinct words addressed in that bank
    (1 = conflict-free, 32 = fully serialized 32-way conflict).

    Wide accesses (8/16 bytes per lane) are split into ``bank_bytes``
    words first, matching hardware behaviour of issuing one wavefront
    per 128-byte chunk.
    """
    if not mask.any():
        return 0
    addrs = addresses[mask].astype(np.int64)
    words_per_lane = max(1, access_bytes // bank_bytes)
    transactions = 0
    for k in range(words_per_lane):
        words = (addrs + k * bank_bytes) // bank_bytes
        uniq = np.unique(words)
        bank_ids = uniq % banks
        _, counts = np.unique(bank_ids, return_counts=True)
        transactions += int(counts.max())
    return transactions


# -- batched counts: one row per warp access --------------------------------
#
# The static predictor counts sectors / transactions for every (block,
# warp) of a launch at once.  Both functions take ``(rows, 32)`` int64
# addresses and a same-shape bool mask and return what the scalar model
# above gives row by row (``len(coalesce_sectors(...))`` and
# ``shared_transactions(...)``); tests/gpu/test_coalesce.py pins that.

#: sorts after every real sector / word index
_MASKED = np.iinfo(np.int64).max


def _sorted_first_seen(values: np.ndarray,
                       valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise sort of ``values`` with the invalid entries pushed to
    the end, and the flags of each row's first occurrence of a valid
    value (their row sums are the distinct counts)."""
    ordered = np.sort(np.where(valid, values, _MASKED), axis=1)
    first = np.empty(ordered.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    first &= ordered != _MASKED
    return ordered, first


def coalesce_sector_counts(
    addresses: np.ndarray,
    access_bytes: int,
    mask: np.ndarray,
    sector_bytes: int = 32,
) -> np.ndarray:
    """Distinct sectors touched by each row's warp access."""
    first = addresses // sector_bytes
    last = (addresses + (access_bytes - 1)) // sector_bytes
    # an access straddling a boundary covers first..last; lay the
    # candidates out as extra columns and keep those within the range
    span = int((last - first).max(initial=0, where=mask)) + 1
    sectors = first[:, :, None] + np.arange(span)
    valid = (sectors <= last[:, :, None]) & mask[:, :, None]
    rows = len(addresses)
    return _sorted_first_seen(
        sectors.reshape(rows, -1), valid.reshape(rows, -1))[1].sum(axis=1)


def shared_transaction_counts(
    addresses: np.ndarray,
    access_bytes: int,
    mask: np.ndarray,
    banks: int = 32,
    bank_bytes: int = 4,
) -> np.ndarray:
    """Serialized shared-memory transactions of each row's access."""
    rows = len(addresses)
    row_base = (np.arange(rows) * banks)[:, None]
    transactions = np.zeros(rows, dtype=np.int64)
    for k in range(max(1, access_bytes // bank_bytes)):
        words, first = _sorted_first_seen(
            (addresses + k * bank_bytes) // bank_bytes, mask)
        # per-row histogram of distinct words over the banks
        per_bank = np.bincount(
            (row_base + words % banks)[first], minlength=rows * banks
        ).reshape(rows, banks)
        transactions += per_bank.max(axis=1)
    return transactions
