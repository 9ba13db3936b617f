import random

import pytest

import treesat.forge as forge
from treesat.forge import (
    Closing,
    Closure,
    NamedLit,
    RedundancySpec,
    TreeSpec,
    build_binary_tree,
    build_binomial_tree,
    build_multi_branching,
    build_pair_chain,
    build_unit_chain,
    compose_two_trees,
    parse_closure,
    parse_redundancy,
)
from treesat.formula import ROOT, Clause, make_clause, parse_var_name, slot_name, write_dimacs
from treesat.oracle import dpll_sat, entails, is_dominant


def clause_strings(formula):
    return [str(c) for c in formula.clauses]


def test_unit_chain_golden():
    f = build_unit_chain(3)
    assert clause_strings(f) == ["1 2", "-2 3", "1 -3"]
    assert f.num_vars == 3
    assert [str(n) for _, n in f.atlas.items()] == ["x1.1", "x2.1", "x3.1"]
    assert f.metadata == {"family": "unit-chain", "k": "3"}
    with pytest.raises(ValueError):
        build_unit_chain(1)


def test_pair_chain_golden():
    f = build_pair_chain(3)
    assert clause_strings(f) == [
        "1 2 3", "1 2 -3", "1 -2 3",
        "-2 4 5", "-2 4 -5", "-2 -4 5",
        "1 -4 6", "-1 -4 6", "1 -4 -6",
    ]
    assert f.num_vars == 6
    assert [str(n) for _, n in f.atlas.items()] == [
        "x1.1", "x2.1", "x2.2", "x3.1", "x3.2", "x4.1",
    ]
    with pytest.raises(ValueError):
        build_pair_chain(1)


def test_chain_families_force_the_root():
    for k in (2, 3, 5):
        assert is_dominant(build_unit_chain(k), 1)
        assert is_dominant(build_pair_chain(k), 1)


def test_binomial_tree_golden():
    f = build_binomial_tree(TreeSpec(k=2))
    assert clause_strings(f) == [
        "1 2 3", "1 2 -3", "1 -2 3",
        "1 -2 4", "1 -2 -4", "-1 -2 4",
        "-3 4 5", "-3 4 -5", "-3 -4 5",
    ]
    assert f.num_vars == 5
    assert f.metadata == {
        "family": "binomial",
        "k": "2",
        "closure": "alias:1",
    }


def test_binomial_tree_sizes_and_dominance():
    for k in range(2, 6):
        f = build_binomial_tree(TreeSpec(k=k))
        assert f.num_clauses == 3 * k * (k + 1) // 2
        assert f.num_vars == (k + 1) * (k + 2) // 2 - 1
        assert is_dominant(f, 1)


def test_closure_clause_variant():
    f = build_binomial_tree(TreeSpec(k=2, closure=Closure("clause", 1)))
    assert clause_strings(f)[-1] == "1 -4"
    assert f.num_vars == 6
    assert f.metadata["closure"] == "clause:1"
    assert is_dominant(f, 1)


def test_open_tree_leaves_root_free():
    f = build_binomial_tree(TreeSpec(k=3, closure=None))
    assert f.metadata["closure"] == "none"
    assert dpll_sat(f).is_sat
    assert not is_dominant(f, 1)


def test_negated_root_flips_the_forced_literal():
    f = build_binomial_tree(TreeSpec(k=2, root_negated=True))
    assert clause_strings(f)[0] == "-1 2 3"
    assert f.metadata["root"] == "neg"
    assert is_dominant(f, -1)


def test_closure_row_choice_and_bounds():
    for row in range(1, 4):
        f = build_binomial_tree(TreeSpec(k=2, closure=Closure("alias", row)))
        assert is_dominant(f, 1)
    with pytest.raises(ValueError):
        build_binomial_tree(TreeSpec(k=2, closure=Closure("alias", 4)))
    with pytest.raises(ValueError):
        build_binomial_tree(TreeSpec(k=2, closure=Closure("clause", 0)))


def test_depth_one_alias_degenerates_to_tautology():
    for closure in (Closure("alias", 1), Closure("alias", 2)):
        for negated in (False, True):
            with pytest.raises(ValueError, match="alias closure needs depth at least 2"):
                build_binomial_tree(TreeSpec(k=1, closure=closure, root_negated=negated))
    assert build_binomial_tree(TreeSpec(k=1, closure=None)).num_clauses == 3
    assert build_binomial_tree(TreeSpec(k=1, closure=Closure("clause", 1))).num_clauses == 4


def test_spec_variant_guard():
    with pytest.raises(ValueError):
        build_binomial_tree(TreeSpec(k=0))


def test_generation_is_deterministic():
    spec = TreeSpec(k=4, redundancy=(RedundancySpec((2, 1), 6, seed=9),))
    assert write_dimacs(build_binomial_tree(spec)) == write_dimacs(
        build_binomial_tree(spec)
    )


def test_binary_tree_shape():
    f = build_binary_tree(2)
    assert f.num_vars == 7
    assert f.num_clauses == 9
    assert [str(n) for _, n in f.atlas.items()][:3] == ["x1.1", "b1.1", "b1.2"]
    assert dpll_sat(f).is_sat
    with pytest.raises(ValueError):
        build_binary_tree(0)


def test_substitution_with_fresh_variable_pair():
    spec = TreeSpec(
        k=3,
        substitutions=(
            ("s4.2", NamedLit("z0")),
            ("s4.4", NamedLit("z0", negated=True)),
        ),
    )
    f = build_binomial_tree(spec)
    assert "z0" in f.atlas
    assert "s4.2" not in f.atlas and "s4.4" not in f.atlas
    assert f.metadata["substitutions"] == "s4.2=z0;s4.4=~z0"
    assert is_dominant(f, 1)


def test_substitution_validation():
    for slot in ("s9.1", "t1.s3.2"):
        with pytest.raises(ValueError, match="nonexistent"):
            build_binomial_tree(
                TreeSpec(k=2, substitutions=((slot, NamedLit("z0")),))
            )
    with pytest.raises(ValueError, match="twice"):
        build_binomial_tree(
            TreeSpec(
                k=3,
                substitutions=(
                    ("s4.2", NamedLit("z0")),
                    ("s4.2", NamedLit("z1")),
                ),
            )
        )
    with pytest.raises(ValueError, match="aliased away"):
        build_binomial_tree(
            TreeSpec(k=2, substitutions=(("s3.1", NamedLit("z0")),))
        )
    with pytest.raises(ValueError, match="root or a fresh"):
        build_binomial_tree(
            TreeSpec(k=2, substitutions=(("s3.2", NamedLit("x2.1")),))
        )


def test_adjacent_slot_substitution_is_rejected():
    # Slots (4,2) and (4,3) are the two pair members of node (3,2); giving
    # them complementary literals would make that node clause tautologous.
    spec = TreeSpec(
        k=3,
        substitutions=(
            ("s4.2", NamedLit("z0")),
            ("s4.3", NamedLit("z0", negated=True)),
        ),
    )
    with pytest.raises(ValueError, match="tautologous"):
        build_binomial_tree(spec)


def test_compose_two_trees_verdicts_and_shape():
    matched = compose_two_trees(2, Closing.MATCHED)
    crossed = compose_two_trees(2, Closing.CROSSED)
    for f in (matched, crossed):
        assert f.num_vars == 9
        assert f.num_clauses == 18
        assert f.atlas.id_of(ROOT) == 1
        assert "s2.1" in f.atlas
        assert "t1.s2.1" in f.atlas
    assert not dpll_sat(matched).is_sat
    assert dpll_sat(crossed).is_sat
    assert matched.metadata == {"family": "compose-matched", "k": "2"}
    assert crossed.metadata == {"family": "compose-crossed", "k": "2"}
    for closing in Closing:
        with pytest.raises(ValueError, match="at least 2, got 1"):
            compose_two_trees(1, closing)


def test_multi_branching_shape():
    f = build_multi_branching(2, 1)
    assert f.num_clauses == 21
    assert f.num_vars == 15
    assert f.metadata == {"family": "multi-branching", "k": "2", "k_sub": "1"}
    assert dpll_sat(f).is_sat
    assert not is_dominant(f, 1)
    with pytest.raises(ValueError):
        build_multi_branching(1, 1)
    with pytest.raises(ValueError):
        build_multi_branching(2, 0)


def implicit_tree(k, node, via):
    return build_binomial_tree(TreeSpec(k=k, implicit_nodes=((node, via),)))


def redundancy_clauses(k, node, count, seed):
    """The seeded redundancy clauses a depth-k tree gains for one node."""
    f = build_binomial_tree(TreeSpec(k=k, redundancy=(RedundancySpec(node, count, seed),)))
    return f.clauses[build_binomial_tree(TreeSpec(k=k)).num_clauses :]


def test_implicit_node_drops_switching_and_keeps_meaning():
    base = build_binomial_tree(TreeSpec(k=4))
    entry = base.atlas.id_of("s2.1")
    left = base.atlas.id_of("s3.1")
    right = base.atlas.id_of("s3.2")
    implicit = implicit_tree(4, (2, 1), "s5.2")
    assert implicit.num_clauses == base.num_clauses - 2
    assert implicit.metadata["implicit"] == "2.1=s5.2"
    dropped = {Clause(tuple(sorted((-entry, left, -right), key=abs))),
               Clause(tuple(sorted((-entry, -left, right), key=abs)))}
    assert dropped & set(base.clauses) == dropped
    assert not dropped & set(implicit.clauses)
    # The dropped pair resolvent is still a consequence, and the alias
    # leaves the via variable out of the formula.
    assert entails(implicit, Clause(tuple(sorted((-entry, left), key=abs))))
    assert "s5.2" not in implicit.atlas
    assert implicit.num_vars == base.num_vars - 1
    assert is_dominant(implicit, 1)


def test_implicit_node_narrows_its_clause_to_width_two():
    # Node (1, 1) keeps only (1 2 3); aliasing s2.2 to s2.1 narrows it to (1 2).
    spec = TreeSpec(k=3, implicit_nodes=(((1, 1), "s2.2"),))
    narrow = [str(c) for c in build_binomial_tree(spec).clauses if c.width == 2]
    assert narrow == ["1 2"]
    closed = spec._replace(closure=Closure("clause", 1))
    narrow = [str(c) for c in build_binomial_tree(closed).clauses if c.width == 2]
    assert narrow == ["1 2", "1 -6"]


def test_implicit_node_validation():
    with pytest.raises(ValueError, match="no node"):
        implicit_tree(4, (5, 1), "s5.2")
    with pytest.raises(ValueError, match="not a descendant"):
        implicit_tree(4, (2, 2), "s3.1")
    with pytest.raises(ValueError, match="left slot"):
        implicit_tree(4, (2, 1), "s3.1")
    with pytest.raises(ValueError, match="aliased away"):
        implicit_tree(4, (2, 1), "s5.1")
    # In the depth-3 tree the clause of node (3,1) holds both s3.1 and
    # s4.2, so aliasing one to the other is caught as a tautology.
    with pytest.raises(ValueError, match="tautologous"):
        implicit_tree(3, (2, 1), "s4.2")
    spec = TreeSpec(k=2, implicit_nodes=(((1, 1), "s2.2"), ((1, 1), "s3.3")))
    with pytest.raises(ValueError, match="node \\(1, 1\\) made implicit twice"):
        build_binomial_tree(spec)


def test_redundancy_clauses_are_entailed_novelties():
    f = build_binomial_tree(TreeSpec(k=3))
    extra = redundancy_clauses(3, (1, 1), 8, seed=7)
    assert len(extra) == len(set(extra)) == 8
    existing = set(f.clauses)
    for clause in extra:
        assert clause.width == 3
        assert clause not in existing
        assert entails(f, clause)
    assert redundancy_clauses(3, (1, 1), 8, seed=7) == extra
    assert redundancy_clauses(3, (1, 1), 8, seed=8) != extra


def test_redundancy_slots_into_the_recipe():
    spec = TreeSpec(k=3, redundancy=(RedundancySpec((2, 1), 4, seed=3),))
    f = build_binomial_tree(spec)
    bare = build_binomial_tree(TreeSpec(k=3))
    assert f.num_clauses == bare.num_clauses + 4
    assert f.metadata["redundancy"] == "2.1:4:3"
    assert is_dominant(f, 1)


def test_redundancy_validation():
    with pytest.raises(ValueError, match="at least 1"):
        redundancy_clauses(3, (1, 1), 0, seed=1)
    with pytest.raises(ValueError, match="leaf level"):
        redundancy_clauses(3, (3, 1), 2, seed=1)
    with pytest.raises(ValueError, match="no node"):
        redundancy_clauses(3, (4, 1), 2, seed=1)
    with pytest.raises(ValueError, match="only .* distinct"):
        redundancy_clauses(2, (1, 1), 100, seed=1)
    # Redundancy is drawn from the cone as the implicit node aliases it,
    # so the two transforms combine.
    both = build_binomial_tree(TreeSpec(
        k=4,
        implicit_nodes=(((2, 1), "s5.2"),),
        redundancy=(RedundancySpec((1, 1), 2, seed=1),),
    ))
    assert both.metadata["redundancy"] == "1.1:2:1"
    assert both.metadata["implicit"] == "2.1=s5.2"
    assert is_dominant(both, 1)


def test_redundancy_refuses_a_negative_seed():
    # random.Random seeds with abs(seed), so -5 would draw the clauses of 5.
    message = "^redundancy seed must be non-negative, got -5$"
    with pytest.raises(ValueError, match=message):
        parse_redundancy("1.1:3:-5")
    with pytest.raises(ValueError, match=message):
        redundancy_clauses(4, (1, 1), 3, seed=-5)
    # The spec checks its count and seed once, where it is built.
    with pytest.raises(ValueError, match=message):
        RedundancySpec((1, 1), 3, -5)
    with pytest.raises(ValueError, match="^count must be at least 1$"):
        RedundancySpec((1, 1), 0, 5)
    assert parse_redundancy("1.1:3:5") == RedundancySpec((1, 1), 3, 5)
    assert parse_redundancy("1.1:3:0") == parse_redundancy("1.1:3")


def reference_add_redundancy(em, k, root_lit, red):
    """The redundancy draw written out in full: build every candidate
    pair, shuffle the list with `random.Random(seed)`, take the first
    `count` new width-3 clauses."""
    level, row = red.node
    cone = [em.lit(s) for s in forge._cone_slots(red.node, k)]
    if level == k:
        raise ValueError(f"node {red.node} has no descendant nodes (leaf level)")
    entry = root_lit if level == 1 else em.lit(slot_name(level, row), negated=True)
    candidates = [(u, v) for i, u in enumerate(cone) for v in cone[i + 1 :]]
    candidates += [(-u, v) for u in cone for v in cone if u != v]
    random.Random(red.seed).shuffle(candidates)
    taken = {c.lits for c in em.clauses}
    fresh = []
    for u, v in candidates:
        clause = make_clause([entry, u, v])
        if clause is not None and clause.width == 3 and clause.lits not in taken:
            taken.add(clause.lits)
            fresh.append(clause)
            if len(fresh) == red.count:
                em.clauses += fresh
                return
    raise ValueError(
        f"only {len(fresh)} distinct redundancy clauses exist for node {red.node}, "
        f"requested {red.count}"
    )


def clauses_or_error(spec):
    try:
        return build_binomial_tree(spec).clauses
    except ValueError as exc:
        return str(exc)


def with_redundancy(spec, nodes, seeds=range(6), counts=(1, 3, 10, 10**6)):
    return [
        spec._replace(redundancy=(RedundancySpec(node, count, seed),))
        for node in nodes
        for seed in seeds
        for count in counts
    ]


def inner_nodes(k):
    return [(level, row) for level in range(1, k) for row in range(1, level + 1)]


GRID_SPECS = [s for k in range(2, 8) for s in with_redundancy(TreeSpec(k=k), inner_nodes(k))]

# Substitutions and implicit nodes that put one literal into a cone twice
# (z2 at s3.1 and s4.3; s3.1 read through s5.2; the root and its negation).
REPEATED_LITERAL_SPECS = [
    s
    for base in (
        TreeSpec(k=3, substitutions=(("s3.1", NamedLit("z2")), ("s4.3", NamedLit("z2")))),
        TreeSpec(k=4, substitutions=(("s3.2", NamedLit(ROOT)), ("s5.3", NamedLit(ROOT, True)))),
        TreeSpec(k=5, implicit_nodes=(((2, 1), "s5.2"), ((1, 1), "s4.4"))),
        TreeSpec(
            k=6,
            closure=Closure("clause", 2),
            substitutions=(("s4.3", NamedLit("z1")), ("s6.1", NamedLit(ROOT, True))),
            implicit_nodes=(((3, 2), "s6.4"),),
            root_negated=True,
        ),
    )
    for s in with_redundancy(base, inner_nodes(base.k))
]

# The closed trees of the perfbench `dominance` workload, with seeds drawn
# as it draws them.
_rng = random.Random(20261019)
DOMINANCE_SPECS = [
    s
    for k in range(4, 13)
    for s in with_redundancy(
        TreeSpec(k=k), [(1, 1)], seeds=[_rng.randrange(2**32) for _ in range(4)], counts=(4,)
    )
]


@pytest.mark.parametrize("specs", [GRID_SPECS, REPEATED_LITERAL_SPECS, DOMINANCE_SPECS],
                         ids=["grid", "repeated-literals", "dominance"])
def test_redundancy_draw_matches_a_shuffle_of_every_candidate(monkeypatch, specs):
    drawn = [clauses_or_error(spec) for spec in specs]
    monkeypatch.setattr(forge, "_add_redundancy", reference_add_redundancy)
    assert [clauses_or_error(spec) for spec in specs] == drawn


def test_parse_closure_round_trip():
    assert parse_closure("alias:2") == Closure("alias", 2)
    assert parse_closure("clause:1") == Closure("clause", 1)
    assert parse_closure("none") is None
    for bad in ("alias", "alias:x", "clause:", "pivot:1", "alias:\u0663", "alias:\u00b2", "alias:+1"):
        with pytest.raises(ValueError):
            parse_closure(bad)


def test_closures_of_two_kinds_differ():
    alias, clause = Closure("alias", 1), Closure("clause", 1)
    assert alias != clause
    by_alias, by_clause = TreeSpec(closure=alias), TreeSpec(closure=clause)
    assert by_alias != by_clause and hash(by_alias) != hash(by_clause)
    assert write_dimacs(build_binomial_tree(by_alias)) != write_dimacs(build_binomial_tree(by_clause))


def test_binomial_tree_refuses_an_unknown_closure_kind():
    for kind in ("pivot", "none", "Alias"):
        with pytest.raises(ValueError, match=f"bad closure kind '{kind}'"):
            build_binomial_tree(TreeSpec(k=3, closure=Closure(kind, 1)))


def test_named_lit_parse():
    assert NamedLit.parse("~t1.s2.1") == NamedLit("t1.s2.1", negated=True)
    assert NamedLit.parse("z3") == NamedLit("z3")
    assert str(NamedLit.parse("~x1.1")) == "~x1.1"
    assert parse_var_name("b2.3") is not None
    with pytest.raises(ValueError, match="unrecognized variable name 'zebra'"):
        NamedLit("zebra")
