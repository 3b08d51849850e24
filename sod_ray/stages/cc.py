"""Distributed connected components over duplicate-pair edges —
contraction levels + a bounded driver finish, built on EXPLICIT
hash-bucket exchanges with raw Ray tasks.

This is the documented Dataset-API escape hatch (guide rule: drop to
raw tasks only where the Dataset API can't do the job): the inner
loop is nothing but repeated (key:int64 → label:int64) lookups, and
the generic ``Dataset.join`` pays sort/aggregator machinery per round
that dominates wall time by orders of magnitude at 10M+ edges, while
a bucketed numpy ``searchsorted`` join runs at memcpy speed.

Algorithm (same semantics as the union-find oracle):

- level k: labels(v) = min(v, min neighbor)  — one bucketed group-min;
  contract every edge (a,b) → (label(a), label(b)), drop loops,
  dedupe per bucket. Stars/clumps vanish in one level, chains halve,
  so edge counts collapse geometrically.
- when the remnant fits ``driver_finish_edges``, a union-find over
  JUST that contracted skeleton finishes it on the driver (bounded —
  never the corpus-sized pair list).
- labels compose back down through the levels, one bucketed lookup
  per level. The component min survives as a node at every level
  (label(min) == min), so the final label is the component's min id.

Partitioning assumption: bucket p owns every key ≡ p (mod P); label
mappings stay bucketed by node for the whole run — one partitioning
key, reused by every exchange (no re-shuffle of the mapping side).
All shuffled payloads are pairs of int64 numpy arrays (16 B/row).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from .blocks import arrow_block_refs, dataset_from_refs
from .exchange import sorted_lookup

_EMPTY_LABELS = pa.table(
    {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
)


def _np_i64(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def _split_by_mod(k: np.ndarray, v: np.ndarray, P: int):
    """(k, v) rows → tuple of P (k, v) pieces, piece p = rows with
    k % P == p. Per-bucket boolean masks, not an argsort: O(nP) simple
    compares beat the O(n log n) int64 sort ~2.5x at P=32, and boolean
    take preserves order exactly like the stable sort did."""
    b = k % P
    pieces = []
    for p in range(P):
        m = b == p
        pieces.append((k[m], v[m]))
    return tuple(pieces)


def _norm_edges(a: np.ndarray, b: np.ndarray):
    """Canonical edge set: loops dropped, a<b, deduped. Lexsort + run
    dedupe, NOT ``np.unique(..., axis=0)`` — the axis-0 path sorts
    void-typed row views and measures ~6x slower on edge blocks."""
    keep = a != b
    a, b = a[keep], b[keep]
    if a.shape[0] == 0:
        return a, b
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    uniq = np.concatenate(
        ([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]))
    )
    return lo[uniq], hi[uniq]


@ray.remote
def _block_to_edges(t: pa.Table, id_a: str, id_b: str):
    # a zero-row COLUMN-LESS block can reach here (Ray Data emits one
    # when an upstream operator produces an empty bundle after a
    # schema-bearing one) — treat it as zero edges
    if id_a not in t.column_names or id_b not in t.column_names:
        return _norm_edges(
            np.empty(0, np.int64), np.empty(0, np.int64)
        )
    return _norm_edges(_np_i64(t[id_a]), _np_i64(t[id_b]))


@ray.remote
def _split_sym(edges, P: int):
    """Edge block → P pieces of symmetrized (key, neighbor) rows."""
    a, b = edges
    return _split_by_mod(
        np.concatenate([a, b]), np.concatenate([b, a]), P
    )


@ray.remote
def _init_reduce(*pieces):
    """Bucket group-min: labels(v) = min(v, min neighbor) for every
    key v in this bucket."""
    if not pieces:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    k = np.concatenate([p[0] for p in pieces])
    v = np.concatenate([p[1] for p in pieces])
    if k.shape[0] == 0:
        return k, v
    order = np.argsort(k, kind="stable")
    k, v = k[order], v[order]
    # k is sorted — derive group starts from run boundaries instead of
    # paying np.unique's second sort
    flags = np.concatenate(([True], k[1:] != k[:-1]))
    nodes = k[flags]
    starts = np.flatnonzero(flags)
    min_nb = np.minimum.reduceat(v, starts)
    return nodes, np.minimum(nodes, min_nb)


@ray.remote
def _split_probes(edges, P: int, swap: bool):
    """Edge block → P probe pieces (key=a, other=b), or swapped."""
    a, b = edges
    return _split_by_mod(b, a, P) if swap else _split_by_mod(a, b, P)


def _bucket_lookup(labels_p, pk: np.ndarray):
    """label[pk] with fallback pk (absent keys are already-final).
    REQUIRES the label piece sorted by key (every producer emits
    sorted pieces: the reducers sort then dedupe by run boundaries,
    and the mod-split preserves order)."""
    lk, lv = labels_p
    if lk.shape[0] == 0 or pk.shape[0] == 0:
        return pk.copy()
    found, pos = sorted_lookup(lk, pk)
    return np.where(found, lv[pos], pk)


@ray.remote
def _join_resplit(labels_p, P: int, *probe_pieces):
    """Resolve this bucket's probes against its label piece, then
    re-bucket the output by the OTHER endpoint (ready for the second
    contraction hop): emits P pieces of (key=other, resolved_label)."""
    if not probe_pieces:
        empty = np.empty(0, np.int64)
        return tuple((empty, empty) for _ in range(P))
    pk = np.concatenate([p[0] for p in probe_pieces])
    pv = np.concatenate([p[1] for p in probe_pieces])
    lab = _bucket_lookup(labels_p, pk)
    return _split_by_mod(pv, lab, P)


@ray.remote
def _join_edges(labels_p, *pieces):
    """Second contraction hop for one bucket: pieces are (key=b,
    label_of_a); resolve label(b) and emit the contracted, deduped
    edge block (label_a, label_b)."""
    if not pieces:
        e = np.empty(0, np.int64)
        return e, e
    pk = np.concatenate([p[0] for p in pieces])
    la = np.concatenate([p[1] for p in pieces])
    lb = _bucket_lookup(labels_p, pk)
    return _norm_edges(la, lb)


@ray.remote
def _split_mapping_probes(labels_p, P: int):
    """Label piece (node, label) → P probe pieces keyed by LABEL
    (key=label, other=node) — the compose-step exchange."""
    nodes, labels = labels_p
    return _split_by_mod(labels, nodes, P)


@ray.remote
def _compose_reduce(upper_p, P: int, *probe_pieces):
    """Resolve label(k) → final(label(k)) for this bucket's probes and
    re-bucket the composed mapping by node (ready for the next level
    down)."""
    if not probe_pieces:
        empty = np.empty(0, np.int64)
        return tuple((empty, empty) for _ in range(P))
    pk = np.concatenate([p[0] for p in probe_pieces])
    nodes = np.concatenate([p[1] for p in probe_pieces])
    lab = _bucket_lookup(upper_p, pk)  # fallback = key (already final)
    return _split_by_mod(nodes, lab, P)


@ray.remote
def _edge_count(edges) -> int:
    return int(edges[0].shape[0])


@ray.remote
def _piece_equal(p1, p2) -> bool:
    return np.array_equal(p1[0], p2[0]) and np.array_equal(p1[1], p2[1])


@ray.remote
def _mapping_to_table(labels_p) -> pa.Table:
    nodes, labels = labels_p
    return pa.table({"node": pa.array(nodes), "label": pa.array(labels)})


def _uf_min_roots(a: np.ndarray, b: np.ndarray):
    """Component-min labels for the driver-finish remnant, fully
    vectorized: per round, edge relax (``np.minimum.at`` both ways)
    then three pointer-jump passes (``parent = parent[parent]``);
    fixpoint when a round changes nothing. At the fixpoint every edge
    joins equal labels and jumping is idempotent, so each component
    carries one constant label — a member index that can only be the
    component minimum (values only ever copy member indices downward).
    Converges in O(log diameter) rounds; each round is O(E+V) numpy —
    ~7× faster than a Python union-find loop on the chain-like
    remnants contraction leaves behind. Returns (nodes,
    root_per_node) with root = MIN node id of the component."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[: a.shape[0]], inv[a.shape[0] :]
    parent = np.arange(nodes.shape[0], dtype=np.int64)
    while True:
        before = parent
        m = np.minimum(parent[ia], parent[ib])
        parent = parent.copy()
        np.minimum.at(parent, ia, m)
        np.minimum.at(parent, ib, m)
        for _ in range(3):
            parent = parent[parent]
        if np.array_equal(parent, before):
            break
    return nodes, nodes[parent]


def connected_components_bucketed(
    pairs_ds,
    id_a: str = "id_a",
    id_b: str = "id_b",
    max_levels: int = 30,
    driver_finish_edges: int = 5_000_000,
    num_partitions: int | None = None,
):
    """See module docstring. Returns a Dataset of (node, label)."""
    if num_partitions is None:
        cpus = int(ray.cluster_resources().get("CPU", 8))
        num_partitions = max(8, min(64, cpus))
    # num_returns=1 changes the remote-call return shape; P >= 2 keeps
    # every exchange uniform
    P = max(2, num_partitions)

    edge_refs = [
        _block_to_edges.remote(r, id_a, id_b)
        for r in arrow_block_refs(pairs_ds)
    ]
    if not edge_refs:
        return dataset_from_refs([ray.put(_EMPTY_LABELS)])

    levels = []  # each: list of P label-piece refs, bucketed by node % P
    top = None  # final mapping of the highest level, bucketed by node % P
    jump = False  # stall-triggered (see below)
    prev_edges = None
    for level in range(max_levels):
        n_edges = sum(ray.get([_edge_count.remote(r) for r in edge_refs]))
        if n_edges == 0:
            break
        # single-hop contraction stalling (< 2x shrink) means the id
        # layout is adversarial for min-neighbor labels (e.g. an
        # ascending chain shifts by one edge per level) — switch to
        # pointer-jumped levels from here on. Graphs that contract
        # geometrically (stars, clumps, random layouts) never pay the
        # jump exchanges.
        if prev_edges is not None and n_edges > prev_edges // 2:
            jump = True
        prev_edges = n_edges
        if n_edges <= driver_finish_edges or level == max_levels - 1:
            got = ray.get(edge_refs)
            a = np.concatenate([g[0] for g in got])
            b = np.concatenate([g[1] for g in got])
            nodes, roots = _uf_min_roots(a, b)
            top = [
                ray.put(piece) for piece in _split_by_mod(nodes, roots, P)
            ]
            break
        # ---- init labels for this level (bucketed group-min) ----
        sym_split = [
            _split_sym.options(num_returns=P).remote(r, P) for r in edge_refs
        ]
        labels_k = [
            _init_reduce.remote(*[s[p] for s in sym_split]) for p in range(P)
        ]
        # ---- pointer-jump the mapping to idempotence BEFORE
        # contracting (only once a stall was detected, see above).
        # min-neighbor labels form a pseudo-forest (parent(v) =
        # min(v, min neighbor)); composing the mapping with itself
        # doubles the pointer shift per jump, so each tree collapses
        # to its root in O(log diameter) cheap node-count exchanges.
        # Without this, an ascending-id chain contracts by ONE edge
        # per level (label(v)=v-1 just shifts the chain) and a
        # 1024-long chain needs 1023 levels — measured as the 100M-
        # edge bench stalling at ~33M edges until the forced driver
        # finish ate 300+ s. With it, every tree contracts fully each
        # level and edge counts collapse geometrically on any id
        # layout. Jump = the same compose exchange used on the way
        # down (mapping stays bucketed by node throughout).
        for _ in range(64 if jump else 0):
            jp = [
                _split_mapping_probes.options(num_returns=P).remote(lp, P)
                for lp in labels_k
            ]
            jc = [
                _compose_reduce.options(num_returns=P).remote(
                    labels_k[p], P, *[s[p] for s in jp]
                )
                for p in range(P)
            ]
            jumped = [
                _init_reduce.remote(*[tp[q] for tp in jc]) for q in range(P)
            ]
            same = ray.get(
                [_piece_equal.remote(labels_k[q], jumped[q]) for q in range(P)]
            )
            labels_k = jumped
            if all(same):
                break
        levels.append(labels_k)
        # ---- contract: (a,b) -> (L(a), b) -> (L(a), L(b)) ----
        probe_split = [
            _split_probes.options(num_returns=P).remote(r, P, False)
            for r in edge_refs
        ]
        hop1 = [
            _join_resplit.options(num_returns=P).remote(
                labels_k[p], P, *[s[p] for s in probe_split]
            )
            for p in range(P)
        ]
        edge_refs = [
            _join_edges.remote(labels_k[q], *[h[q] for h in hop1])
            for q in range(P)
        ]

    # ---- compose back down ----
    final = top
    for labels_k in reversed(levels):
        if final is None:
            final = labels_k
            continue
        probes = [
            _split_mapping_probes.options(num_returns=P).remote(lp, P)
            for lp in labels_k
        ]
        composed = [
            _compose_reduce.options(num_returns=P).remote(
                final[p], P, *[s[p] for s in probes]
            )
            for p in range(P)
        ]
        # _compose_reduce re-bucketed its output by node: piece q of
        # task p belongs to bucket q — regroup (each node appears
        # exactly once across all pieces; _init_reduce's group-min is
        # an identity here and re-sorts by node, which the next
        # level's searchsorted lookup requires)
        final = [
            _init_reduce.remote(*[task_pieces[q] for task_pieces in composed])
            for q in range(P)
        ]

    if final is None:
        return dataset_from_refs([ray.put(_EMPTY_LABELS)])
    tables = [_mapping_to_table.remote(fp) for fp in final]
    return dataset_from_refs(tables)
