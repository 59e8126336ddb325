"""Named model actions and the desk-scale test corpus.

Each corpus instance fixes a group action, a coefficient field, a degree
budget, and (where a closed form is known) the expected equivariant
Betti numbers.  Expected values marked "quotient" follow from free-action
collapse (the homotopy quotient is the honest quotient); "tower" values
come from the bar-resolution oracle over the one-point atlas.  The full
spectral runs may take a smaller degree budget (ss_deg_max).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import Field, GF, QQ, Mat
from .cartan import GDGA, LieAlgebraData, abelian_lie
from .simplicial import cycle_space, pair_groupoid, trivial_groupoid
from .stackact import (
    GroupoidAction, SimplicialGAction, cyclic_group,
    set_action_on_trivial_groupoid, symmetric_group, trivial_action,
)

F2 = GF(2)
F3 = GF(3)


def s3_natural_perms() -> list:
    group = symmetric_group(3)
    return [tuple(int(group.elements[gi][x]) for x in range(3))
            for gi in range(group.order)]


def cycle_rotation_action(k: int, step: int, order: int,
                          n_top: int) -> SimplicialGAction:
    """Z/order acting on the k-gon circle model by rotation multiples."""
    space = cycle_space(k, n_top)
    group = cyclic_group(order)
    maps = []
    for power in range(order):
        shift = (step * power) % k
        per_level = []
        for n in range(n_top + 1):
            index = {c: i for i, c in enumerate(space.cells[n])}
            level = []
            for cell in space.cells[n]:
                if cell[0] == "v":
                    image = ("v", (cell[1] + shift) % k)
                else:
                    image = ("e", (cell[1] + shift) % k, cell[2])
                level.append(index[image])
            per_level.append(tuple(level))
        maps.append(tuple(per_level))
    return SimplicialGAction(group, space, maps)


def pair_swap_action() -> GroupoidAction:
    """Z/2 exchanging the two objects of the pair groupoid (a model of
    the universal free involution; quotient is the one-object Z/2)."""
    atlas = pair_groupoid(2)
    swap_obj = (1, 0)
    mor = [(i, j) for i in range(2) for j in range(2)]
    index = {m: i for i, m in enumerate(mor)}
    swap_mor = tuple(index[(1 - t, 1 - s)] for (t, s) in mor)
    group = cyclic_group(2)
    ident_obj = (0, 1)
    ident_mor = tuple(range(4))
    return GroupoidAction(group, atlas, (ident_obj, swap_obj),
                          (ident_mor, swap_mor))


@dataclass
class CorpusInstance:
    """One equivariant computation with its certified budget."""

    name: str
    action: object         # n_top -> GroupoidAction | SimplicialGAction
    field: Field
    deg_max: int           # certified degrees 0..deg_max for Betti tables
    expected: list | None  # frozen equivariant dims, or None
    ss_deg_max: int | None = None   # degree budget for spectral runs

    @property
    def ss_budget(self) -> int:
        return self.ss_deg_max if self.ss_deg_max is not None else self.deg_max


def _const(action):
    return lambda n_top: action


CORPUS = [
    CorpusInstance(
        "z2_point_f2",
        _const(trivial_action(cyclic_group(2), trivial_groupoid(1))),
        F2, 6, [1, 1, 1, 1, 1, 1, 1]),
    CorpusInstance(
        "z2_point_q",
        _const(trivial_action(cyclic_group(2), trivial_groupoid(1))),
        QQ, 6, [1, 0, 0, 0, 0, 0, 0]),
    CorpusInstance(
        "z3_point_q",
        _const(trivial_action(cyclic_group(3), trivial_groupoid(1))),
        QQ, 5, [1, 0, 0, 0, 0, 0], ss_deg_max=4),
    CorpusInstance(
        "z3_point_f3",
        _const(trivial_action(cyclic_group(3), trivial_groupoid(1))),
        F3, 5, [1, 1, 1, 1, 1, 1], ss_deg_max=4),
    CorpusInstance(
        "s3_point_q",
        _const(trivial_action(symmetric_group(3), trivial_groupoid(1))),
        QQ, 2, [1, 0, 0]),
    CorpusInstance(
        "s3_point_f2",
        _const(trivial_action(symmetric_group(3), trivial_groupoid(1))),
        F2, 2, [1, 1, 1]),
    CorpusInstance(
        "z2_s0_swap_q",
        _const(set_action_on_trivial_groupoid(cyclic_group(2),
                                              [(0, 1), (1, 0)])),
        QQ, 6, [1, 0, 0, 0, 0, 0, 0]),
    CorpusInstance(
        "z2_s0_swap_f2",
        _const(set_action_on_trivial_groupoid(cyclic_group(2),
                                              [(0, 1), (1, 0)])),
        F2, 6, [1, 0, 0, 0, 0, 0, 0]),
    CorpusInstance(
        "z2_s0_trivial_f2",
        _const(trivial_action(cyclic_group(2), trivial_groupoid(2))),
        F2, 5, [2, 2, 2, 2, 2, 2], ss_deg_max=4),
    CorpusInstance(
        "z2_cycle4_q",
        lambda n_top: cycle_rotation_action(4, 2, 2, n_top),
        QQ, 6, [1, 1, 0, 0, 0, 0, 0], ss_deg_max=4),
    CorpusInstance(
        "z2_cycle4_f2",
        lambda n_top: cycle_rotation_action(4, 2, 2, n_top),
        F2, 6, [1, 1, 0, 0, 0, 0, 0], ss_deg_max=4),
    CorpusInstance(
        "z3_cycle3_q",
        lambda n_top: cycle_rotation_action(3, 1, 3, n_top),
        QQ, 3, [1, 1, 0, 0]),
    CorpusInstance(
        "z2_pair2_swap_q",
        _const(pair_swap_action()),
        QQ, 4, [1, 0, 0, 0, 0], ss_deg_max=3),
    CorpusInstance(
        "z2_pair2_swap_f2",
        _const(pair_swap_action()),
        F2, 4, [1, 1, 1, 1, 1], ss_deg_max=3),
    CorpusInstance(
        "s3_3pts_q",
        _const(set_action_on_trivial_groupoid(symmetric_group(3),
                                              s3_natural_perms())),
        QQ, 2, [1, 0, 0]),
]


def corpus_by_name(name: str) -> CorpusInstance:
    for inst in CORPUS:
        if inst.name == name:
            return inst
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Cartan corpus: (name, lie, algebra builder, poly truncation, expected)


def point_algebra() -> GDGA:
    return GDGA(QQ, (1,), (), ((),), ((Mat.zero(1, 1, QQ),),),
                mul={(0, 0): [[{0: 1}]]})


def free_circle_algebra() -> GDGA:
    d = (Mat.zero(1, 1, QQ),)
    iota = ((Mat.from_rows([[1]], QQ),),)
    lie_der = ((Mat.zero(1, 1, QQ), Mat.zero(1, 1, QQ)),)
    mul = {(0, 0): [[{0: 1}]], (0, 1): [[{0: 1}]],
           (1, 0): [[{0: 1}]], (1, 1): [[{}]]}
    return GDGA(QQ, (1, 1), d, iota, lie_der, mul=mul)


def trivial_circle_algebra() -> GDGA:
    d = (Mat.zero(1, 1, QQ),)
    iota = ((Mat.zero(1, 1, QQ),),)
    lie_der = ((Mat.zero(1, 1, QQ), Mat.zero(1, 1, QQ)),)
    return GDGA(QQ, (1, 1), d, iota, lie_der)


def torus_two_data():
    lie2 = abelian_lie(2)
    dims = (1, 2, 1)
    d = (Mat.zero(2, 1, QQ), Mat.zero(1, 2, QQ))
    iota1 = (Mat.from_rows([[1, 0]], QQ), Mat.from_rows([[0], [1]], QQ))
    iota2 = (Mat.from_rows([[0, 1]], QQ), Mat.from_rows([[-1], [0]], QQ))
    lie_der = tuple(
        tuple(Mat.zero(dims[m], dims[m], QQ) for m in range(3))
        for _ in range(2))
    return lie2, GDGA(QQ, dims, d, (iota1, iota2), lie_der)


@dataclass
class CartanInstance:
    name: str
    lie: LieAlgebraData
    algebra: GDGA
    poly_trunc: int
    expected: list   # dims on the truncation-safe range


CARTAN_CORPUS = [
    CartanInstance("point_u1", abelian_lie(1), point_algebra(), 6,
                   [1, 0] * 6 + [1]),
    CartanInstance("free_circle", abelian_lie(1), free_circle_algebra(), 6,
                   [1] + [0] * 11),
    CartanInstance("trivial_circle", abelian_lie(1),
                   trivial_circle_algebra(), 6, [1] * 12),
    CartanInstance("torus_two", *torus_two_data(), 5,
                   [1] + [0] * 8),
]
