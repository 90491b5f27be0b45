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
* :func:`ball_joins` joins candidates span by span from a table of
  grown balls; :func:`grown_joins` grows a block of candidates' balls
  in ``S`` at any radius for it: at ``beta`` for the Eq. 20 scorer, at
  ``gamma`` for similarity marking (:mod:`repro.core.similarity`);
* :func:`ball_tables` cuts candidates into chunks whose distinct
  endpoints' balls, each grown once, fit one table of at most
  :data:`BALL_TABLE_ENTRIES` entries: the tree balls of round 1 and the
  S-balls a general round regrows;
* :class:`JoinStore` keeps those joins from one densification round to
  the next as ``int32`` edge ids, at most :data:`JOIN_IDS_PER_EDGE` per
  edge of ``G``, and drops only the joins whose balls may have grown;
* :func:`block_spans` cuts candidates into spans of about
  :data:`BLOCK_ENTRIES` materialized entries from per-candidate costs,
  such as the lengths of stored joins;
* :func:`run_in_blocks` sizes blocks whose costs are unknown from the
  previous block's rate; a block that grows balls then joins them in
  spans that fit (:func:`block_spans`), once the balls show how large
  each join will be.

Every reduction a candidate takes part in reads only that candidate's
entries, in an order fixed by the candidate alone, so scores depend
neither on how candidates are blocked or chunked nor on whether a join
came from the store.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bfs import ball_sets, ball_union
from repro.utils.arrays import gather_ranges, segment_dots, unique_slots

__all__ = ["ball_pair_edges", "ball_tables"]

#: Target number of entries (ball members, incidences, SPAI gathers) one
#: scoring block materializes.
BLOCK_ENTRIES = 1 << 17

#: Most entries one ball table (:func:`ball_tables`) holds (about 24 MB
#: of tree-ball entries): the tree balls of all 15,794 round-1 endpoints
#: of full ``NLR`` take 237,658 entries, and of its 63,160 endpoints at
#: scale 4 952,352, so each is one table; at 2**19, scale 4 took four
#: tables that grew 117,494 balls.
BALL_TABLE_ENTRIES = 1 << 20

#: Most edge ids a :class:`JoinStore` holds per edge of ``G`` (6.1 MB of
#: ``int32`` on full ``NLR``, whose joins take 0.7-0.9 M ids a round).
#: On power-law graphs balls cover most of ``G``; the candidates past
#: the cap keep having their joins grown inline.
JOIN_IDS_PER_EDGE = 32

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
    search and the table is reusable across calls; :meth:`dots` reads
    it as dot products, one compiled pass per fill.  Rows are candidate
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
        n, table = self.n, self._table
        outs = [np.empty(len(q_rows), dtype=table.dtype)
                for q_rows, _ in queries]
        for base, bounds in self._filled(rows, cols, values,
                                         [q_rows for q_rows, _ in queries]):
            for out, (q_rows, q_cols), (lo, hi) in zip(outs, queries, bounds):
                out[lo:hi] = table[(q_rows[lo:hi] - base) * n + q_cols[lo:hi]]
        return outs

    def dots(self, rows, cols, values, q_rows, lengths, q_cols, q_values):
        """Dot products of query vectors with rows of the table.

        Query ``k`` holds ``lengths[k]`` consecutive products: its result
        is ``sum(q_values[j] * T[q_rows[k], q_cols[j]])`` over them,
        added in order from ``0.0``, where ``T`` is the table filled with
        *values* at ``(rows, cols)`` and ``fill`` elsewhere.  Each block
        of filled rows takes one compiled pass
        (:func:`~repro.utils.arrays.segment_dots`).

        Parameters
        ----------
        rows, cols, values : numpy.ndarray
            The entries, as for :meth:`lookup`; ``float64`` table.
        q_rows : numpy.ndarray
            Table row of each query, ascending.
        lengths : numpy.ndarray
            Products per query.
        q_cols, q_values : numpy.ndarray
            Column and coefficient of every product, query by query.

        Returns
        -------
        numpy.ndarray
            One ``float64`` result per query.

        Raises
        ------
        IndexError
            When a product's column lies outside ``[0, n)``: it would
            read another row's cell.
        """
        n, span = self.n, self.span
        if len(q_cols) and (q_cols.min() < 0 or q_cols.max() >= n):
            raise IndexError(f"query columns must lie in [0, {n})")
        ptr = np.zeros(len(q_rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=ptr[1:])
        # Blocks start at multiples of span, so a row's place in its
        # block is its remainder.
        cells = q_cols + np.repeat((q_rows % span) * n, lengths)
        out = np.empty(len(q_rows))
        for _, ((lo, hi),) in self._filled(rows, cols, values, [q_rows]):
            out[lo:hi] = segment_dots(ptr[lo:hi + 1], cells, q_values,
                                      self._table)
        return out

    def _filled(self, rows, cols, values, query_rows):
        """Fill the table ``span`` rows at a time and clear it after.

        Yields ``(base, bounds)`` per block of rows ``base .. base +
        span - 1`` while the table holds those rows' entries, row
        ``base + i`` at table row ``i``; ``bounds`` gives, for each
        array of *query_rows* (ascending), the ``(lo, hi)`` slice of the
        queries in the block.
        """
        n, span, table = self.n, self.span, self._table
        last = max([int(rows[-1]) if len(rows) else 0]
                   + [int(q[-1]) for q in query_rows if len(q)])
        starts = np.arange(0, last + span + 1, span)
        entry_bounds = np.searchsorted(rows, starts)
        query_bounds = [np.searchsorted(q, starts) for q in query_rows]
        for block, base in enumerate(starts[:-1]):
            lo, hi = entry_bounds[block], entry_bounds[block + 1]
            cells = (rows[lo:hi] - base) * n + cols[lo:hi]
            table[cells] = values[lo:hi]
            try:
                yield base, [(b[block], b[block + 1]) for b in query_bounds]
            finally:
                table[cells] = self.fill


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
    lengths, reached, incident = gather_ranges(indptr, p_nodes, neighbors,
                                               edge_ids)
    src_entry = np.repeat(np.arange(len(p_nodes)), lengths)
    owner = p_owner[src_entry]
    nbr_entry, p_in_q = positions.lookup(
        q_owner, q_nodes, np.arange(len(q_nodes), dtype=np.int32),
        [(owner, reached), (p_owner, p_nodes)],
    )
    hit = np.flatnonzero(nbr_entry >= 0)
    eids = incident[hit]
    # One key per (candidate, edge): the first occurrence wins and the
    # survivors come out in ascending edge order within a candidate.
    _, _, first = unique_slots(owner[hit] * np.int64(len(edge_ids)) + eids)
    hit = hit[first]
    src = src_entry[hit]
    return (src, nbr_entry[hit].astype(np.int64),
            p_in_q[src].astype(np.int64), eids[first])


def grown_joins(graph, adjacency, p, q, radius: int):
    """Grow the balls of a block's endpoints in ``S``, to join later.

    Grows the *radius*-balls around every distinct endpoint of the
    candidates ``(p[k], q[k])`` at once (:func:`~repro.graph.bfs.ball_sets`)
    and hands them to :func:`ball_joins`.

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.
    adjacency : tuple of numpy.ndarray
        ``(indptr, neighbors)`` of the subgraph ``S`` the balls grow in.
    p, q : numpy.ndarray
        The candidates' endpoints.
    radius : int
        Ball radius in hops: ``beta`` for Eq. 20, ``gamma`` for
        similarity marking.

    Returns
    -------
    work, join
        As :func:`ball_joins` returns them.
    """
    count = len(p)
    ends, which, _ = unique_slots(np.concatenate([p, q]))
    ptr, members = ball_sets(*adjacency, ends, radius)
    return ball_joins(graph, ptr, members, which[:count], which[count:])


def ball_joins(graph, ptr, members, p_ball, q_ball):
    """Join candidates' balls, given as a table of grown balls.

    Counts the entries each candidate's join materializes (its ball
    members and its p-ball's incidences in ``G``), so the joins can be
    made in spans that each fit :data:`BLOCK_ENTRIES`
    (:func:`block_spans`) however many candidates there are.

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.
    ptr, members : numpy.ndarray
        The balls, as offsets and members of one index dtype: ball ``b``
        is ``members[ptr[b]:ptr[b + 1]]``, sorted.
    p_ball, q_ball : numpy.ndarray
        The ball of each candidate's two endpoints.

    Returns
    -------
    work : numpy.ndarray
        Entries per candidate.
    join : callable
        ``join(lo, hi, positions)``: the joins of candidates
        ``lo..hi-1`` as :func:`ball_pair_edges` entries ``(owner,
        eids)``, *owner* counted from ``lo``, given an ``int32``
        :class:`LookupTable` with fill ``-1`` as *positions*.
    """
    g_adjacency = graph.adjacency()
    degree = np.diff(g_adjacency[0])
    members = members.astype(ptr.dtype, copy=False)
    sizes = np.diff(ptr)
    incidences = np.add.reduceat(degree[members], ptr[:-1])
    work = sizes[p_ball] + sizes[q_ball] + incidences[p_ball]

    def join(lo, hi, positions):
        p_owner, p_nodes = _ball_entries(ptr, members, p_ball[lo:hi])
        q_owner, q_nodes = _ball_entries(ptr, members, q_ball[lo:hi])
        src, _, _, eids = ball_pair_edges(
            g_adjacency, positions, p_owner, p_nodes, q_owner, q_nodes
        )
        return p_owner[src], eids

    return work, join


def ball_tables(p, q, n: int, grow):
    """Chunks of candidates, with the ball of each distinct endpoint.

    Walks the candidates ``(p[k], q[k])`` in order and grows the balls
    of the endpoints not yet in the chunk's table, in batches of about
    :data:`BLOCK_ENTRIES` of growth work (sized from the previous
    batch's work per ball, growing at most eightfold per batch).  A
    chunk closes once its table holds :data:`BALL_TABLE_ENTRIES`
    entries, so each distinct endpoint's ball is grown once per chunk,
    and once in all when one table holds them.

    Parameters
    ----------
    p, q : numpy.ndarray
        The candidates' endpoints.
    n : int
        Node count.
    grow : callable
        ``grow(nodes) -> (ptr, columns, work)``: the balls of the
        distinct *nodes* as ``int64`` offsets ``ptr`` into per-entry
        arrays ``columns`` (a tuple), and the entries their growth
        materialized.

    Yields
    ------
    start, stop : int
        The chunk's candidates.
    p_ball, q_ball : numpy.ndarray
        Their endpoints' balls in the table.
    ptr : numpy.ndarray
        The table's offsets, ``int32`` while they fit.
    columns : tuple of numpy.ndarray
        The table's per-entry arrays.
    """
    count = len(p)
    slot = np.full(n, -1, dtype=np.int64)
    start, size, rate = 0, 1, float(n)
    while start < count:
        parts, grown, entries, stop = [], [], 0, start
        while stop < count and entries < BALL_TABLE_ENTRIES:
            # A candidate brings at most two new balls.
            size = int(min(max(1.0, BLOCK_ENTRIES / (2.0 * rate)), 8 * size))
            end = min(count, stop + size)
            ends = np.concatenate([p[stop:end], q[stop:end]])
            fresh = np.unique(ends[slot[ends] < 0])
            if len(fresh):
                ptr, columns, work = grow(fresh)
                slot[fresh] = sum(map(len, grown)) + np.arange(len(fresh))
                parts.append([ptr, *columns])
                grown.append(fresh)
                entries += int(ptr[-1])
                rate = max(work / len(fresh), 1.0)
            stop = end
        offsets = np.cumsum([0] + [int(part[0][-1]) for part in parts])
        index = np.int32 if offsets[-1] <= np.iinfo(np.int32).max \
            else np.int64
        ptr = np.concatenate([[0]] + [part[0][1:] + base for part, base
                                      in zip(parts, offsets)]).astype(index)
        # Merged column by column, each part's copy released as it goes,
        # so the table is never held twice.
        columns = []
        for k in range(1, len(parts[0])):
            columns.append(np.concatenate([part[k] for part in parts]))
            for part in parts:
                part[k] = None
        del parts
        yield start, stop, slot[p[start:stop]], slot[q[start:stop]], ptr, \
            tuple(columns)
        slot[np.concatenate(grown)] = -1
        start = stop


def _ball_entries(ptr, members, which):
    """Entries ``(owner, node)`` of ball ``which[k]`` for every owner ``k``."""
    lengths, nodes = gather_ranges(ptr, which, members)
    return np.repeat(np.arange(len(which)), lengths), nodes


class JoinStore:
    """Each candidate's ball-pair join, kept from one round to the next.

    A join is the ascending ids of the edges of ``G`` between the
    beta-balls of a candidate's two endpoints in a subgraph ``S``
    (:func:`ball_pair_edges`).  It depends only on those two node sets,
    and the rounds of Algorithm 2 only insert edges into ``S``, so most
    joins outlive a round: :meth:`retain` moves the store to the next
    ``S`` and drops every join whose balls may have grown.  Joins carry
    no orientation: the Eq. 20 reduction reads ``(s_i - s_j)^2``, which
    has the same bits either way round.

    Joins are appended block by block (:meth:`append`) and become
    readable at :meth:`commit`.  The store never holds more than
    ``JOIN_IDS_PER_EDGE * graph.edge_count`` ids (nor more than its
    ``int32`` offsets reach); a join that does not fit is left out and
    sets :attr:`full`.

    Parameters
    ----------
    graph : Graph
        The original graph ``G``.

    Attributes
    ----------
    adjacency : tuple of numpy.ndarray or None
        ``(indptr, neighbors)`` of the subgraph the joins were grown in.
    edge_ids : numpy.ndarray
        The stored candidates, distinct, in store order.
    ptr : numpy.ndarray
        ``int32`` offsets: the join of ``edge_ids[k]`` is
        ``ids[ptr[k]:ptr[k + 1]]``.
    ids : numpy.ndarray
        The joins' ``int32`` edge ids.
    size : int
        Ids held, appended ones included.
    full : bool
        True once a join was left out for want of room.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        # int32 offsets, like the ids: gather_ranges wants one index dtype.
        self.capacity = min(JOIN_IDS_PER_EDGE * graph.edge_count,
                            np.iinfo(np.int32).max)
        self.reset(None)

    def reset(self, adjacency) -> None:
        """Empty the store and point it at the subgraph *adjacency*."""
        self.adjacency = adjacency
        self._set(np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int32),
                  np.empty(0, dtype=np.int32))

    def _set(self, edge_ids, ptr, ids) -> None:
        self.edge_ids, self.ptr, self.ids = edge_ids, ptr, ids
        self.size = len(ids)
        self.full = False
        self._where = None
        self._pending = []

    def retain(self, adjacency, edge_ids, beta: int) -> np.ndarray:
        """Move the store to the subgraph *adjacency*; keep the exact joins.

        *adjacency* must contain the subgraph the joins were grown in.
        Balls only grow then, and the ball ``B(p, beta)`` can gain a node
        only if ``p`` lies within ``beta - 1`` hops, in the previous
        subgraph, of a node whose degree changed (``docs/architecture.md``,
        "Join reuse across rounds").  One union BFS from those nodes finds
        every such ``p``; a join survives when its candidate is among
        *edge_ids* and neither endpoint was reached.

        Parameters
        ----------
        adjacency : tuple of numpy.ndarray
            ``(indptr, neighbors)`` of the new subgraph.
        edge_ids : array_like of int
            This round's candidates.
        beta : int
            Ball radius of the joins.

        Returns
        -------
        numpy.ndarray
            The candidates of *edge_ids* with no join in the store.
        """
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        self.commit()
        members = np.zeros(self.graph.edge_count, dtype=bool)
        members[edge_ids] = True
        keep = members[self.edge_ids]
        if self.adjacency is not None and keep.any():
            indptr, neighbors = self.adjacency
            touched = np.flatnonzero(np.diff(adjacency[0]) != np.diff(indptr))
            stale = ball_union(indptr, neighbors, touched, beta - 1)
            keep &= ~(stale[self.graph.u[self.edge_ids]]
                      | stale[self.graph.v[self.edge_ids]])
        # Compact before anything else is grown, so the dropped joins are
        # released first.
        lengths = np.diff(self.ptr)
        ids = self.ids[np.repeat(keep, lengths)]
        lengths = lengths[keep]
        ptr = np.zeros(len(lengths) + 1, dtype=np.int32)
        np.cumsum(lengths, out=ptr[1:])
        self.adjacency = adjacency
        self._set(self.edge_ids[keep], ptr, ids)
        members[edge_ids] = False
        members[self.edge_ids] = True
        return edge_ids[~members[edge_ids]]

    def append(self, edge_ids, owner, eids) -> int:
        """Add the joins of a block of candidates, as many as fit.

        Parameters
        ----------
        edge_ids : numpy.ndarray
            The block's candidates, none of them stored yet.
        owner, eids : numpy.ndarray
            Their joins as :func:`ball_pair_edges` returns them: the
            index into *edge_ids* of each joined edge, ascending, and its
            id, ascending per candidate.

        Returns
        -------
        int
            How many leading candidates of the block were stored.
        """
        lengths = np.bincount(owner, minlength=len(edge_ids))
        ends = np.cumsum(lengths)
        take = int(np.searchsorted(ends, self.capacity - self.size,
                                   side="right"))
        if take < len(edge_ids):
            self.full = True
        if take:
            total = int(ends[take - 1])
            self._pending.append((edge_ids[:take], lengths[:take],
                                  eids[:total].astype(np.int32)))
            self.size += total
        return take

    def commit(self) -> None:
        """Make the appended joins readable."""
        if not self._pending:
            return
        edge_ids, lengths, ids = zip(*self._pending)
        self._pending = []
        ptr = np.concatenate([self.ptr, self.ptr[-1] + np.cumsum(
            np.concatenate(lengths), dtype=np.int32)])
        full = self.full
        self._set(np.concatenate((self.edge_ids,) + edge_ids), ptr,
                  np.concatenate((self.ids,) + ids))
        self.full = full

    def slots(self, edge_ids) -> np.ndarray:
        """Store position of each of *edge_ids*, ``-1`` where none is held."""
        if self._where is None:
            self._where = np.full(self.graph.edge_count, -1, dtype=np.int64)
            self._where[self.edge_ids] = np.arange(len(self.edge_ids))
        return self._where[np.asarray(edge_ids, dtype=np.int64)]

    def entries(self, slots):
        """Entries ``(owner, eids)`` of the joins at store positions *slots*.

        ``owner`` indexes *slots*, ascending; ``eids`` are ``int64``,
        ascending per owner.
        """
        lengths, ids = gather_ranges(self.ptr, slots, self.ids)
        return np.repeat(np.arange(len(slots)), lengths), ids.astype(np.int64)


def block_spans(costs) -> list:
    """Cut candidates into spans of about :data:`BLOCK_ENTRIES` entries.

    Parameters
    ----------
    costs : numpy.ndarray
        Entries each candidate materializes.

    Returns
    -------
    list of tuple
        Consecutive ``(start, stop)`` spans covering all candidates, each
        at least one candidate long.
    """
    bounds = np.cumsum(costs)
    if len(bounds) and bounds[-1] <= BLOCK_ENTRIES:
        return [(0, len(bounds))]
    spans, start = [], 0
    while start < len(bounds):
        base = bounds[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(
            bounds, base + BLOCK_ENTRIES, side="right")))
        spans.append((start, stop))
        start = stop
    return spans


def run_in_blocks(count: int, run_block, graph) -> None:
    """Run *run_block* over ``count`` candidates in entry-sized blocks.

    The first block assumes the worst case, balls covering all of
    *graph*; each later block holds about :data:`BLOCK_ENTRIES` entries
    at the previous block's entries-per-candidate rate, growing at most
    eightfold per block.  A block that grows balls can then cut its
    joins into spans (:func:`block_spans`) before materializing them.

    Parameters
    ----------
    count : int
        Number of candidates.
    run_block : callable
        ``run_block(start, stop) -> entries``: handles candidates
        ``start..stop-1`` and returns how many entries it materialized,
        or ``None`` to end the run early.
    graph : Graph
        The graph ``G`` the balls live in.
    """
    start = 0
    size = max(1, BLOCK_ENTRIES // (graph.n + 2 * graph.edge_count))
    while start < count:
        stop = min(count, start + size)
        entries = run_block(start, stop)
        if entries is None:
            return
        rate = max(entries / (stop - start), 1.0)
        size = int(min(max(1.0, BLOCK_ENTRIES / rate), 8 * (stop - start)))
        start = stop
