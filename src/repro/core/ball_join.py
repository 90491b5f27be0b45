"""Segmented ball-pair joins shared by the tree-phase and SPAI scorers.

Both criticality formulas end in the same restricted quadratic form:
for a candidate edge ``(p, q)``, sum ``w_e (x_i - x_j)^2`` over the edges
of ``G`` that join the beta-ball around ``p`` to the one around ``q``
(Eq. 15 with tree potentials, Eq. 20 with SPAI inner products).  The
scorers evaluate it for a whole block of candidates at once, as flat
arrays of *(candidate, node)* entries grouped by candidate:

* :func:`ball_pair_edges` joins every candidate's p-ball incidences in
  ``G`` against its q-ball through dense per-candidate lookup tables
  (:class:`LookupTable`), then drops the second orientation of edges
  that qualify both ways, leaving each candidate's edges in ascending
  edge-id order;
* :func:`score_in_blocks` sizes the candidate blocks by the number of
  entries they materialize, so temporaries stay at a few MB whether
  balls hold fifteen nodes (meshes) or the whole graph (power-law
  graphs).

Every reduction a candidate takes part in reads only that candidate's
entries, in an order fixed by the candidate alone, so scores do not
depend on how candidates are blocked or chunked.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import concat_ranges, unique_slots

__all__ = ["ball_pair_edges", "score_in_blocks"]

#: Target number of entries (ball members, incidences, SPAI gathers) one
#: scoring block materializes.
BLOCK_ENTRIES = 1 << 18

#: Rows (candidates) one :class:`LookupTable` fills at a time: enough to
#: amortize the per-fill numpy calls, and no more, so small graphs keep
#: small tables.
TABLE_ROWS = 64

#: Upper bound on the size of one :class:`LookupTable`.
TABLE_BYTES = 1 << 22


class LookupTable:
    """Dense ``span x n`` scratch table for ``(row, col) -> value`` lookups.

    :meth:`lookup` fills the table for ``span`` rows at a time, reads it,
    and clears it again, so a lookup costs one gather instead of a
    search and the table is reusable across calls.  Rows are candidate
    indices and columns node ids below *n*.

    Parameters
    ----------
    n : int
        Column count (node count of the graph).
    rows : int
        Largest number of rows any lookup will use.  The table holds at
        most :data:`TABLE_ROWS` of them and :data:`TABLE_BYTES` in all,
        but never fewer than one row: a row of more than
        :data:`TABLE_BYTES` (``n`` above ``2**19`` for ``float64``)
        makes a one-row table, filled once per candidate.
    dtype : numpy.dtype
        Value type.
    fill : scalar
        Value read where no entry matches.
    """

    def __init__(self, n: int, rows: int, dtype, fill) -> None:
        self.n = int(n)
        self.fill = fill
        itemsize = np.dtype(dtype).itemsize
        self.span = max(1, min(int(rows), TABLE_ROWS,
                               TABLE_BYTES // (self.n * itemsize)))
        self._table = np.full(self.span * self.n, fill, dtype=dtype)

    def lookup(self, rows, cols, values, queries):
        """Read *values* at every query pair.

        Parameters
        ----------
        rows, cols : numpy.ndarray
            Distinct entry coordinates; *rows* ascending.
        values : numpy.ndarray
            One value per entry.
        queries : list of (numpy.ndarray, numpy.ndarray)
            ``(query_rows, query_cols)`` pairs, *query_rows* ascending.

        Returns
        -------
        list of numpy.ndarray
            One result array per query pair (``fill`` where no entry
            matches).
        """
        n, span, table = self.n, self.span, self._table
        outs = [np.empty(len(q_rows), dtype=table.dtype)
                for q_rows, _ in queries]
        last = max([int(rows[-1]) if len(rows) else 0]
                   + [int(q_rows[-1]) for q_rows, _ in queries if len(q_rows)])
        starts = np.arange(0, last + span + 1, span)
        entry_bounds = np.searchsorted(rows, starts)
        query_bounds = [np.searchsorted(q_rows, starts) for q_rows, _ in queries]
        for block, base in enumerate(starts[:-1]):
            lo, hi = entry_bounds[block], entry_bounds[block + 1]
            cells = (rows[lo:hi] - base) * n + cols[lo:hi]
            table[cells] = values[lo:hi]
            for out, (q_rows, q_cols), bounds in zip(outs, queries,
                                                     query_bounds):
                q_lo, q_hi = bounds[block], bounds[block + 1]
                out[q_lo:q_hi] = table[(q_rows[q_lo:q_hi] - base) * n
                                       + q_cols[q_lo:q_hi]]
            table[cells] = self.fill
        return outs


def ball_pair_edges(adjacency, positions, p_owner, p_nodes, q_owner,
                    q_nodes):
    """Edges of ``G`` joining each candidate's p-ball to its q-ball.

    Parameters
    ----------
    adjacency : tuple of numpy.ndarray
        ``(indptr, neighbors, edge_ids)`` CSR adjacency of ``G``.
    positions : LookupTable
        ``int32`` table with fill ``-1`` over ``G``'s nodes.
    p_owner, p_nodes : numpy.ndarray
        The p-ball entries: candidate index and member node, grouped by
        ascending candidate, each candidate's members distinct.
    q_owner, q_nodes : numpy.ndarray
        The q-ball entries, likewise.

    Returns
    -------
    src_entry : numpy.ndarray
        Index into the p entries of each joined edge's p-side endpoint.
    nbr_entry : numpy.ndarray
        Index into the q entries of its other endpoint.
    src_in_q : numpy.ndarray
        Index into the q entries of the p-side endpoint, ``-1`` when it
        lies outside the q-ball.
    eids : numpy.ndarray
        The joined edges' ids, ascending per candidate.  An edge whose
        two orientations both qualify appears once, oriented as it
        first appears in the p entries.
    """
    indptr, neighbors, edge_ids = adjacency
    starts = indptr[p_nodes]
    lengths = indptr[p_nodes + 1] - starts
    flat = concat_ranges(starts, lengths)
    src_entry = np.repeat(np.arange(len(p_nodes)), lengths)
    owner = p_owner[src_entry]
    nbr_entry, src_in_q = positions.lookup(
        q_owner, q_nodes, np.arange(len(q_nodes), dtype=np.int32),
        [(owner, neighbors[flat]), (owner, p_nodes[src_entry])],
    )
    hit = np.flatnonzero(nbr_entry >= 0)
    eids = edge_ids[flat[hit]]
    # One key per (candidate, edge): the first occurrence wins and the
    # survivors come out in ascending edge order within a candidate.
    _, _, first = unique_slots(owner[hit] * np.int64(len(edge_ids)) + eids)
    hit = hit[first]
    return (src_entry[hit], nbr_entry[hit].astype(np.int64),
            src_in_q[hit].astype(np.int64), eids[first])


def score_in_blocks(count: int, score_block, graph) -> np.ndarray:
    """Score ``count`` candidates in blocks sized by their entry counts.

    The first block assumes the worst case, balls covering all of
    *graph*; each later block holds about :data:`BLOCK_ENTRIES` entries
    at the previous block's entries-per-candidate rate, growing at most
    eightfold per block.

    Parameters
    ----------
    count : int
        Number of candidates.
    score_block : callable
        ``score_block(start, stop) -> (scores, entries)``: scores for
        candidates ``start..stop-1`` and the number of entries the block
        materialized.
    graph : Graph
        The graph ``G`` the balls live in.

    Returns
    -------
    numpy.ndarray
        The concatenated scores.
    """
    out = np.empty(count)
    start = 0
    size = max(1, BLOCK_ENTRIES // (graph.n + 2 * graph.edge_count))
    while start < count:
        stop = min(count, start + size)
        out[start:stop], entries = score_block(start, stop)
        rate = max(entries / (stop - start), 1.0)
        size = int(min(max(1.0, BLOCK_ENTRIES / rate), 8 * (stop - start)))
        start = stop
    return out
