"""Pure-Python Z/2 column reduction kernel.

Columns are big-integer bitsets; the XOR loop is the hot path of every
persistence computation.
"""

from __future__ import annotations


# The benchmark's environment record reads this name.
def active_backend() -> str:
    """Name of the reduction kernel; there is only the pure-Python one."""
    return "python"


def reduce_columns(columns, order, clearing=True, track_v=False):
    """Left-to-right reduction of a Z/2 matrix given as sorted row-index lists.

    `order` is the sequence of column indices to process. With `clearing`,
    a column already recorded as a birth is skipped (valid when the caller
    processes columns in descending dimension). With `track_v`, the returned
    dict maps each death column to the sorted list of columns that were
    accumulated into it (the combination witness).

    Returns (pairs, essentials, v): pairs is a list of (low, column) = (birth,
    death) index pairs in processing order; essentials is the sorted list of
    columns that reduced to zero and never became a birth.
    """
    reduced = {}
    vmask = {} if track_v else None
    owner = {}
    births = set()
    pairs = []
    zeros = []
    for j in order:
        if clearing and j in births:
            continue
        col = 0
        for r in columns[j]:
            col |= 1 << r
        v = 1 << j
        while col:
            low = col.bit_length() - 1
            k = owner.get(low)
            if k is None:
                break
            col ^= reduced[k]
            if track_v:
                v ^= vmask[k]
        if col:
            low = col.bit_length() - 1
            owner[low] = j
            reduced[j] = col
            births.add(low)
            pairs.append((low, j))
            if track_v:
                vmask[j] = v
        else:
            zeros.append(j)
    essentials = sorted(set(zeros) - births)
    v_out = None
    if track_v:
        v_out = {j: _bits(vmask[j]) for _, j in pairs}
    return pairs, essentials, v_out


def _bits(mask: int) -> list:
    out = []
    i = 0
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
