"""Graph combinatorics shared by forests, trees and the triangle dual graph.

Edges are (key, a, b) triples: a key naming the edge (a surface edge id) and
its two endpoints (vertex ids, or triangle ids for the dual graph).
"""

from __future__ import annotations

from collections import deque


def vertex_edges(surface, edges):
    """(edge, origin, head) triples of surface edges on the vertex graph."""
    return [(e, surface.origin(e), surface.origin(surface.twin(e))) for e in edges]


def edge_vertices(surface, edges):
    """Vertices touched by the given surface edges."""
    return {v for _, a, b in vertex_edges(surface, edges) for v in (a, b)}


def kruskal(nodes, edges):
    """Split edges, taken in the given order, into the keys of those that join
    two components and of those that close a cycle (union-find)."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joining, closing = [], []
    for key, a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            closing.append(key)
        else:
            parent[ra] = rb
            joining.append(key)
    return joining, closing


def adjacency(nodes, edges):
    """Node -> sorted [(key, neighbour)] for an undirected graph."""
    adj = {v: [] for v in nodes}
    for key, a, b in edges:
        adj[a].append((key, b))
        adj[b].append((key, a))
    for v in adj:
        adj[v].sort()
    return adj


def bfs(adj, root, allowed=None):
    """Breadth-first search from root, entering only nodes in ``allowed``
    (all when None).  Returns {node: (key, parent)} in visiting order, with
    the root mapped to None."""
    prev = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for key, w in adj[v]:
            if w not in prev and (allowed is None or w in allowed):
                prev[w] = (key, v)
                queue.append(w)
    return prev


def tree_keys(prev, nodes):
    """Keys of the BFS-tree edges through which the given nodes were reached."""
    return {prev[v][0] for v in nodes if prev.get(v)}


def path_keys(prev, goal):
    """Keys of the BFS-tree edges on the path from ``goal`` to the root."""
    path = []
    while prev[goal] is not None:
        key, goal = prev[goal]
        path.append(key)
    return path


def subtree_sums(adj, weight):
    """Root each tree of a forest at its smallest node.  Returns, per edge
    key, the total weight on the side of the edge away from the root,
    accumulated bottom-up in one traversal per tree, and per node its
    (key, parent) link toward the root, None at a root."""
    sums = {}
    links = {}
    for root in sorted(adj):
        if root in links:
            continue
        prev = bfs(adj, root)
        links.update(prev)
        below = {v: weight[v] for v in prev}
        for v in reversed(list(prev)):
            if prev[v] is not None:
                key, parent = prev[v]
                below[parent] += below[v]
                sums[key] = below[v]
    return sums, links


def dual_bfs(surface, blocked):
    """Breadth-first traversal of the triangles, crossing only edges outside
    ``blocked``, from each unreached triangle t0 in id order.

    Yields (None, None, t0, True) for each start triangle, then (t, h, t2,
    first) for every crossing of half-edge h from t into t2, ``first`` when
    t2 had not been reached before."""
    reached = set()
    for t0 in sorted(surface.triangles):
        if t0 in reached:
            continue
        reached.add(t0)
        yield None, None, t0, True
        queue = deque([t0])
        while queue:
            t = queue.popleft()
            for h in surface.triangle(t):
                if surface.edge_of(h) in blocked:
                    continue
                t2 = surface.triangle_of(surface.twin(h))
                first = t2 not in reached
                if first:
                    reached.add(t2)
                    queue.append(t2)
                yield t, h, t2, first
