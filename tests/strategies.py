"""Shared hypothesis strategies and randomised builders for the test suite.

Random double complexes are built as direct sums of elementary pieces
(singletons, horizontal/vertical identity edges, all-identity squares)
followed by a random block-diagonal basis change.  The pieces have known
total cohomology, so the randomised complexes come with an oracle:
each singleton at (p, q) contributes exactly one dimension to H^{p+q},
edges and squares contribute nothing.
"""

import json
from collections import defaultdict
from functools import reduce
from operator import getitem
from pathlib import Path

from hypothesis import strategies as st

from stackcoh.exactalg import GF, QQ, Mat
from stackcoh.homalg import DoubleComplex

fields = st.sampled_from([QQ, GF(2), GF(3), GF(5)])


def random_invertible(n, field, rng):
    """Invertible matrix and its inverse, via random elementary row ops."""
    s = {(i, i): 1 for i in range(n)}
    ops = []
    for _ in range(2 * n):
        kind = rng.randrange(3)
        i = rng.randrange(n) if n else 0
        j = rng.randrange(n) if n else 0
        if n < 2:
            break
        if kind == 0 and i != j:
            lam = rng.randrange(1, 3)
            ops.append(("add", i, j, lam))
        elif kind == 1 and i != j:
            ops.append(("swap", i, j))
    mat = Mat(n, n, s, field)
    inv = Mat(n, n, dict(s), field)
    for op in ops:
        if op[0] == "add":
            _, i, j, lam = op
            e = Mat(n, n, {(k, k): 1 for k in range(n)} |
                    {(j, i): lam}, field)
            e_inv = Mat(n, n, {(k, k): 1 for k in range(n)} |
                        {(j, i): -lam}, field)
        else:
            _, i, j = op
            perm = {(k, k): 1 for k in range(n) if k not in (i, j)}
            perm[(i, j)] = 1
            perm[(j, i)] = 1
            e = Mat(n, n, perm, field)
            e_inv = Mat(n, n, dict(perm), field)
        mat = e * mat
        inv = inv * e_inv
    return mat, inv


PIECES = ("dot", "h", "v", "sq")


def build_double_complex(pieces, field, rng, conjugate=True):
    """Direct sum of elementary pieces on a small rectangle, then a random
    block-diagonal basis change.  Returns (DoubleComplex, expected_total_h)
    where expected_total_h maps total degree -> dimension.
    """
    slots = defaultdict(list)   # (p, q) -> list of piece tags
    expected = defaultdict(int)
    pmax = qmax = 0
    for kind, p, q in pieces:
        if kind == "dot":
            slots[(p, q)].append(("dot", None))
            expected[p + q] += 1
        elif kind == "h":
            tag = object()
            slots[(p, q)].append(("h0", tag))
            slots[(p + 1, q)].append(("h1", tag))
            pmax = max(pmax, p + 1)
        elif kind == "v":
            tag = object()
            slots[(p, q)].append(("v0", tag))
            slots[(p, q + 1)].append(("v1", tag))
            qmax = max(qmax, q + 1)
        else:
            tag = object()
            slots[(p, q)].append(("s00", tag))
            slots[(p + 1, q)].append(("s10", tag))
            slots[(p, q + 1)].append(("s01", tag))
            slots[(p + 1, q + 1)].append(("s11", tag))
            pmax = max(pmax, p + 1)
            qmax = max(qmax, q + 1)
        pmax = max(pmax, p)
        qmax = max(qmax, q)

    index = {}
    dims = {}
    for key, items in slots.items():
        for pos, item in enumerate(items):
            index[(key, item[1], item[0])] = pos
        dims[key] = len(items)

    def find(key, role, tag):
        return index[(key, tag, role)]

    d_h = defaultdict(dict)
    d_v = defaultdict(dict)
    for (p, q), items in slots.items():
        for role, tag in items:
            col = find((p, q), role, tag)
            if role == "h0":
                row = find((p + 1, q), "h1", tag)
                d_h[(p, q)][(row, col)] = 1
            elif role == "v0":
                row = find((p, q + 1), "v1", tag)
                d_v[(p, q)][(row, col)] = 1
            elif role == "s00":
                row = find((p + 1, q), "s10", tag)
                d_h[(p, q)][(row, col)] = 1
                row = find((p, q + 1), "s01", tag)
                d_v[(p, q)][(row, col)] = 1
            elif role == "s10":
                row = find((p, q + 1), "s11", tag)
                d_v[(p, q)][(row, col)] = 1
            elif role == "s01":
                row = find((p + 1, q), "s11", tag)
                d_h[(p, q)][(row, col)] = 1

    dmats_h = {}
    dmats_v = {}
    for p in range(0, pmax + 1):
        for q in range(0, qmax + 1):
            if p < pmax:
                dmats_h[(p, q)] = Mat(dims.get((p + 1, q), 0),
                                      dims.get((p, q), 0),
                                      dict(d_h.get((p, q), {})), field)
            if q < qmax:
                dmats_v[(p, q)] = Mat(dims.get((p, q + 1), 0),
                                      dims.get((p, q), 0),
                                      dict(d_v.get((p, q), {})), field)

    if conjugate:
        basis = {}
        for p in range(0, pmax + 1):
            for q in range(0, qmax + 1):
                basis[(p, q)] = random_invertible(dims.get((p, q), 0), field, rng)
        dmats_h = {(p, q): basis[(p + 1, q)][0] * m * basis[(p, q)][1]
                   for (p, q), m in dmats_h.items()}
        dmats_v = {(p, q): basis[(p, q + 1)][0] * m * basis[(p, q)][1]
                   for (p, q), m in dmats_v.items()}

    dc = DoubleComplex(field, (0, pmax), (0, qmax),
                       {k: dims.get(k, 0) for k in
                        [(p, q) for p in range(pmax + 1) for q in range(qmax + 1)]},
                       dmats_h, dmats_v)
    return dc, dict(expected)


piece_strategy = st.tuples(st.sampled_from(PIECES),
                           st.integers(min_value=0, max_value=2),
                           st.integers(min_value=0, max_value=2))

piece_lists = st.lists(piece_strategy, min_size=1, max_size=6)


# Single-node mutations of the CLI fixtures, for the schema fuzzer.  A draw
# picks one node below the root of a fixture and drops it from its parent
# object, swaps its type, sets it to a negative, out-of-range or huge
# integer or to an exponent or malformed fraction string, or makes a list
# one entry shorter or longer.
FIXTURES = Path(__file__).with_name("fixtures")
FUZZED_FIXTURES = ("cartan_point.json", "circle_action.json",
                   "hyper_z2_point.json", "point.json", "s0_swap.json",
                   "z2_point.json")
BAD_VALUES = (None, True, 1.5, "x", [], {}, [0], {"x": 0},
              -1, 2, 99, 10 ** 8, 10 ** 30, "1e10000000", "1/0", "0x10")


def node_paths(doc, path=()):
    """The key path of every node below the root of a JSON document."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


@st.composite
def fixture_mutations(draw):
    """(fixture name, mutated document, description of the mutation)."""
    name = draw(st.sampled_from(FUZZED_FIXTURES))
    doc = json.loads((FIXTURES / name).read_text())
    path = draw(st.sampled_from(list(node_paths(doc))))
    parent, key = reduce(getitem, path[:-1], doc), path[-1]
    node = parent[key]
    edits = [("set", value) for value in BAD_VALUES]
    if isinstance(parent, dict):
        edits.append(("drop", None))
    if isinstance(node, list):
        edits += [("set", node[:-1]), ("set", node + (node[-1:] or [0]))]
    if type(node) is int:
        edits += [("set", node + 1), ("set", -node - 1)]
    op, value = draw(st.sampled_from(edits))
    if op == "drop":
        del parent[key]
    else:
        parent[key] = value
    return name, doc, f"{op} {name}:/{'/'.join(map(str, path))} {value!r}"
