"""Acceptance gate: every criterion at its stated tolerance (exact).

Each test prints one PASS line on success; run with -s (or -v) to see
them.  Expected values are frozen from independent oracles: bar
resolutions for classifying towers, quotient cell structures for free
actions, stabiliser decompositions for level quotients, and hand
eliminations for the Cartan models.
"""

from stackcoh.cartan import (
    abelian_lie, cartan_E1, cartan_cohomology, cartan_double_complex,
    invariants_subalgebra, invariant_polynomials, torus_weyl_check,
    weyl_action,
)
from stackcoh.exactalg import GF, QQ, Mat, kernel_basis, rank
from stackcoh.getzler import dbar_matrix, GetzlerContext, getzler_total_cohomology
from stackcoh.groupcoh import bar_complex, trivial_module
from stackcoh.homalg import (
    CoefficientComplex, cohomology, total_complex,
)
from stackcoh.models import (
    CARTAN_CORPUS, CORPUS, corpus_by_name, cycle_rotation_action,
    point_algebra, free_circle_algebra,
)
from stackcoh.simplicial import (
    cochains, nerve, pair_groupoid, total_cochains, trivial_groupoid,
)
from stackcoh.spectra import atlas_ss, discrete_borel_ss, hyper_ss
from stackcoh.stackact import (
    as_simplicial_action, borel_bisimplicial, borel_object, cyclic_group,
    equivariant_cohomology, is_free, orbit_space, symmetric_group,
    set_action_on_trivial_groupoid, trivial_action,
)

F2 = GF(2)


def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_classifying_space_tower():
    action = trivial_action(cyclic_group(2), trivial_groupoid(1))
    got_f2 = equivariant_cohomology(action, F2, range(9), n_top=10)
    oracle = bar_complex(trivial_module(cyclic_group(2), F2), 10)
    expected_f2 = [cohomology(oracle, n) for n in range(9)]
    assert got_f2 == expected_f2 == [1] * 9
    got_q = equivariant_cohomology(action, QQ, range(9), n_top=10)
    oracle_q = bar_complex(trivial_module(cyclic_group(2), QQ), 10)
    expected_q = [cohomology(oracle_q, n) for n in range(9)]
    assert got_q == expected_q == [1] + [0] * 8
    report(1, "classifying-space tower")


def test_criterion_2_free_action_collapse():
    cases = [
        ("s0", lambda n_top: as_simplicial_action(
            set_action_on_trivial_groupoid(cyclic_group(2),
                                           [(0, 1), (1, 0)]), n_top)),
        ("circle", lambda n_top: cycle_rotation_action(4, 2, 2, n_top)),
    ]
    for name, build in cases:
        sa = build(8)
        assert is_free(sa)
        quotient = orbit_space(sa)
        for field in (QQ, F2):
            got = equivariant_cohomology(sa, field, range(7), n_top=8)
            quotient_complex = cochains(quotient, field)
            expected = [cohomology(quotient_complex, n) for n in range(7)]
            assert got == expected, (name, field, got, expected)
    report(2, "free-action collapse")


def test_criterion_3_diagonal_equals_totalization():
    for inst in CORPUS:
        n_top = inst.deg_max + 2
        sa = as_simplicial_action(inst.action(n_top), n_top)
        bo = borel_object(sa, n_top)
        diag_complex = cochains(bo, inst.field)
        bis = borel_bisimplicial(sa, n_top, max_total=n_top + 1)
        diag_again = diagonal_dims_match(bis, bo, n_top)
        assert diag_again
        tot = total_complex(total_cochains(bis, inst.field))
        for n in range(n_top):
            lhs = cohomology(diag_complex, n)
            rhs = cohomology(tot, n, override=True)
            assert lhs == rhs, (inst.name, n, lhs, rhs)
    report(3, "diagonal cochains = bisimplicial totalization")


def diagonal_dims_match(bis, bo, n_top):
    # structural spot check: the diagonal blocks carry the same cells
    for n in range(n_top + 1):
        if bis.size(n, n) and bis.cells[(n, n)] != bo.cells[n]:
            return False
    return True


# the instances once run dims-only: their rank-table pages stay checked
# against the full ones here
RANK_TABLE_CROSS_CHECKED = ("s3_point_q", "z3_cycle3_q", "s3_3pts_q")


def full_corpus_runs(runner):
    """Run runner in full on every corpus instance at its acceptance
    budget; each run's identification must be non-empty and ok, and its
    convergence ok."""
    checked = 0
    for inst in CORPUS:
        n_top = inst.ss_budget + 2
        action = inst.action(n_top)
        run = runner(action, inst.field, n_top)
        assert run.identification, inst.name
        assert all(row["ok"] for row in run.identification), inst.name
        assert run.convergence["ok"], inst.name
        if inst.name in RANK_TABLE_CROSS_CHECKED:
            ranks = runner(action, inst.field, n_top, dims_only=True)
            assert [p.entries for p in ranks.pages] == \
                [p.entries for p in run.pages], inst.name
        checked += 1
    return checked


def test_criterion_4_discrete_group_e2_identification():
    checked = full_corpus_runs(discrete_borel_ss)
    assert checked >= 10
    report(4, f"discrete-group E2 identification on {checked} instances")


def test_criterion_5_level_quotient_e1_identification():
    checked = full_corpus_runs(atlas_ss)
    assert checked >= 10
    report(5, f"level-quotient E1 identification on {checked} instances")


def test_criterion_6_hyper_degeneration():
    group = cyclic_group(2)
    single = CoefficientComplex((trivial_module(group, F2),), ())
    point = trivial_action(group, trivial_groupoid(1))
    for mode, direct in (("discrete-borel", discrete_borel_ss),
                         ("atlas", atlas_ss)):
        h = hyper_ss(point, single, mode, 4)
        d = direct(point, F2, 4)
        assert len(h.pages) == len(d.pages)
        for hp, dp in zip(h.pages, d.pages):
            assert hp.entries == dp.entries
            assert hp.differentials == dp.differentials
    swap = set_action_on_trivial_groupoid(group, [(0, 1), (1, 0)])
    acyclic = CoefficientComplex(
        (trivial_module(group, QQ), trivial_module(group, QQ)),
        (Mat.identity(1, QQ),))
    for mode in ("atlas", "discrete-borel"):
        run = hyper_ss(swap, acyclic, mode, 4)
        for page in run.pages:
            if page.r >= 1:
                assert all(v == 0 for k, v in page.entries.items()
                           if k not in page.flags), (mode, page.r)
    report(6, "hypercoefficient degeneration")


def test_criterion_7_cartan_model():
    lie = abelian_lie(1)
    dims = cartan_cohomology(lie, point_algebra(), 6, range(12))
    assert dims == [1, 0] * 6
    dims = cartan_cohomology(lie, free_circle_algebra(), 6, range(11))
    assert dims == [1] + [0] * 10
    for inst in CARTAN_CORPUS:
        safe = 2 * inst.poly_trunc - inst.algebra.top
        small = cartan_cohomology(inst.lie, inst.algebra, inst.poly_trunc,
                                  range(safe + 1))
        bigger = cartan_cohomology(inst.lie, inst.algebra,
                                   inst.poly_trunc + 1, range(safe + 1))
        assert small == bigger == inst.expected, inst.name
    report(7, "Cartan model values and truncation stability")


def test_criterion_8_cartan_e1_and_convergence():
    from stackcoh.spectra import convergence_check, pages
    for inst in CARTAN_CORPUS:
        inv = invariants_subalgebra(inst.lie, inst.algebra)
        dc = cartan_double_complex(inst.lie, inv, inst.poly_trunc)
        table = cartan_E1(inst.lie, inst.algebra, inst.poly_trunc)
        page_list = pages(dc, "columns", dims_only=True).pages
        e1 = next(p for p in page_list if p.r == 1)
        for key, val in table.items():
            assert e1.entries.get(key, 0) == val, (inst.name, key)
        tot = total_complex(dc)
        conv = convergence_check(page_list, tot)
        assert conv["ok"], inst.name
        safe = 2 * inst.poly_trunc - inst.algebra.top
        sums = {}
        for (p, q), v in page_list[-1].entries.items():
            sums[p + q] = sums.get(p + q, 0) + v
        dims = cartan_cohomology(inst.lie, inst.algebra, inst.poly_trunc,
                                 range(safe + 1))
        assert dims == [sums.get(s, 0) for s in range(safe + 1)], inst.name
    report(8, "Cartan E1 identification and E-infinity sums")


def test_criterion_9_borel_isomorphism_series():
    lie = abelian_lie(1)
    check = torus_weyl_check(
        lie, weyl_action(lie, point_algebra(), [Mat.from_rows([[-1]], QQ)],
                         [(Mat.identity(1, QQ),)]), 6,
        degrees=range(9))
    assert check.ok
    expected = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert check.series == expected
    poly = invariant_polynomials(lie, [Mat.from_rows([[-1]], QQ)], 4)
    spread = [0] * 9
    for p, d in enumerate(poly):
        if 2 * p <= 8:
            spread[2 * p] = d
    assert spread == expected
    report(9, "SU(2) torus-Weyl series recovers the Borel pattern")


def test_criterion_10_group_cochain_model_agreement():
    for inst in CORPUS:
        deg_max = min(6, inst.deg_max)
        n_top = deg_max + 2
        action = inst.action(n_top)
        got = getzler_total_cohomology(action, inst.field,
                                       range(deg_max + 1), n_top=n_top)
        want = equivariant_cohomology(action, inst.field,
                                      range(deg_max + 1), n_top=n_top)
        assert got == want, inst.name
    # exhaustive square-zero for |G| <= 6, group degree <= 3
    small_groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
                    cyclic_group(5), cyclic_group(6), symmetric_group(3)]
    for group in small_groups:
        action = trivial_action(group, trivial_groupoid(1))
        sa = as_simplicial_action(action, 2)
        ctx = GetzlerContext(sa, trivial_module(group, QQ), 2)
        mats = [dbar_matrix(ctx, p) for p in range(5)]
        for p in range(4):
            assert (mats[p + 1] * mats[p]).is_zero(), group.elements
    report(10, "group-cochain model matches the homotopy quotient")


def test_criterion_11_structural_suite():
    # simplicial identities on every constructed corpus object
    for inst in CORPUS:
        n_top = min(inst.deg_max, 3) + 2
        sa = as_simplicial_action(inst.action(n_top), n_top)
        sa.space.validate()
        borel_object(sa, n_top).validate()
        borel_bisimplicial(sa, n_top, max_total=n_top + 1).validate()
    # Morita invariance: pair groupoids on k <= 4 points against the point
    point_complex = cochains(nerve(trivial_groupoid(1), 5), QQ)
    expected = [cohomology(point_complex, n) for n in range(4)]
    for k in (2, 3, 4):
        pair_complex = cochains(nerve(pair_groupoid(k), 5), QQ)
        got = [cohomology(pair_complex, n) for n in range(4)]
        assert got == expected == [1, 0, 0, 0], k
    # rank-nullity on pseudo-random sparse matrices over both field types
    import random
    rng = random.Random(20260809)
    for field in (QQ, GF(5)):
        for _ in range(25):
            rows = rng.randrange(0, 6)
            cols = rng.randrange(0, 6)
            entries = {}
            for i in range(rows):
                for j in range(cols):
                    if rng.random() < 0.4:
                        entries[(i, j)] = rng.randrange(-3, 4)
            m = Mat(rows, cols, entries, field)
            assert rank(m) + len(kernel_basis(m)) == cols
    # Maschke degeneration: Z/3 over Q collapses to the p = 0 column at E_2
    run = discrete_borel_ss(corpus_by_name("z3_point_q").action(6), QQ, 6)
    e2 = next(p for p in run.pages if p.r == 2)
    e_inf = run.pages[-1]
    for (p, q), v in e2.entries.items():
        if (p, q) in e2.flags:
            continue
        if p > 0:
            assert v == 0
        assert e_inf.entries[(p, q)] == v
    report(11, "structural invariant suite")
