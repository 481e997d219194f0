"""Pure-Python Z/2 column reduction kernel.

Columns are big-integer bitsets; the XOR loop is the hot path of the
cochain reductions behind `persistence.pairs` and `cohomology_reduce`.
"""

from __future__ import annotations


# The benchmark's environment record reads this name.
def active_backend() -> str:
    """Name of the reduction kernel; there is only the pure-Python one."""
    return "python"


def reduce_columns(columns, track_v=False):
    """Left-to-right reduction of a Z/2 matrix given as a list of columns,
    each a list of row indices, in list order.

    Returns (pairs, v). `pairs` lists (low, j) for each column j that does
    not reduce to zero, in column order: low is the pivot row of the reduced
    column. With `track_v`, v maps each such j to the bitmask of the input
    columns summed into it (bit j set); otherwise v is None.
    """
    reduced, vmask, pairs = {}, {}, []  # reduced column and V mask by low
    for j, rows in enumerate(columns):
        col = 0
        for r in rows:
            col |= 1 << r
        v = 1 << j if track_v else 0
        while col:
            low = col.bit_length() - 1
            pivot = reduced.get(low)
            if pivot is None:
                reduced[low] = col
                if track_v:
                    vmask[low] = v
                pairs.append((low, j))
                break
            col ^= pivot
            if track_v:
                v ^= vmask[low]
    return pairs, ({j: vmask[low] for low, j in pairs} if track_v else None)
