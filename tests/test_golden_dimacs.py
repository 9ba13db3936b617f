"""Byte-for-byte pins of generated DIMACS.

Each case is a generated formula and the SHA-256 of its `write_dimacs`
text.  The digests were taken from the generators before their emission
loops were rewritten for speed, and then with the `c meta` lines of
derived counts removed from that text, so any change to clause order,
literal order, atlas, metadata or formatting fails here.
"""

import hashlib

import pytest

from treesat.counts import count_paths
from treesat.forge import (
    FAMILIES,
    Alias,
    ClosureClause,
    NamedLit,
    RedundancySpec,
    TreeSpec,
    build_binomial_tree,
    build_multi_branching,
)
from treesat.formula import FreshVar, RootVar, SlotVar, parse_dimacs, write_dimacs


def fresh(tag, negated=False):
    return NamedLit(FreshVar(tag), negated)


SPECS = {
    "substitutions": TreeSpec(k=4, substitutions=(
        (SlotVar(4, 2), fresh(0)), (SlotVar(5, 4), fresh(0, negated=True)),
    )),
    "substitution-by-root": TreeSpec(k=4, substitutions=(
        (SlotVar(3, 2), NamedLit(RootVar())), (SlotVar(5, 3), NamedLit(RootVar(), negated=True)),
    )),
    "substitution-same-literal": TreeSpec(k=3, substitutions=(
        (SlotVar(3, 1), fresh(2)), (SlotVar(4, 3), fresh(2)),
    )),
    "implicit": TreeSpec(k=5, implicit_nodes=(((2, 1), SlotVar(5, 2)), ((1, 1), SlotVar(4, 4)))),
    "implicit-narrowed": TreeSpec(k=3, implicit_nodes=(((1, 1), SlotVar(2, 2)),)),
    "redundancy": TreeSpec(k=5, redundancy=(
        RedundancySpec((1, 1), 7, seed=3), RedundancySpec((3, 2), 2, seed=11),
    )),
    "closure-clause": TreeSpec(k=6, closure=ClosureClause(4)),
    "open": TreeSpec(k=6, closure=None),
    "root-negated": TreeSpec(k=6, closure=Alias(3), root_negated=True),
    "everything": TreeSpec(
        k=6,
        closure=ClosureClause(2),
        substitutions=((SlotVar(4, 3), fresh(1)), (SlotVar(6, 1), NamedLit(RootVar(), negated=True))),
        implicit_nodes=(((3, 2), SlotVar(6, 4)),),
        redundancy=(RedundancySpec((2, 2), 5, seed=8),),
        root_negated=True,
    ),
}


def golden_cases():
    for name, build in FAMILIES.items():
        for k in (3, 9):
            yield f"{name}-{k}", lambda build=build, k=k: build(k)
    yield "multi-branching-3-sub-4", lambda: build_multi_branching(3, 4)
    for name, spec in SPECS.items():
        yield f"spec-{name}", lambda spec=spec: build_binomial_tree(spec)


CASES = dict(golden_cases())


DIGESTS = {
    "unit-chain-3": "6c0e61a7eb3bf72663dfb6f7681c6027413dfc7d3f0d9bbc79a013601d001851",
    "unit-chain-9": "a75e80e947ce8d52e26545d4305f748f53bf99024411940da8e8f22f21f9df84",
    "pair-chain-3": "f3037d4dc7bf54245c161f56baabf5551b698c9b00281776d7ce2d5163da5ae9",
    "pair-chain-9": "dc87dc7e69e35a7c0f37a08ef214c16d78b13a8ae491162110bbabae1aba49cc",
    "binary-3": "aeade82f26d4795ce2a7485b41c794362bd434385237730bc35f2003c4f5023c",
    "binary-9": "18a49da6377d7a6db7352e02e9cb011802ddc6f8ac29099e54e3b16cad4d9b7a",
    "binomial-3": "7b4d0eb2f397dc37dc340a5ace00808c47728190c328c37c89f63a4c4cf768b8",
    "binomial-9": "c283b0724889e1ae43707bb9c9b5d365690fd2c7a265eb866049b54d1de65ce2",
    "compose-matched-3": "ddba93da09e5b3b6b9d0c5716d5ad6091f3749beab10ab7e3e67af708a2a48bb",
    "compose-matched-9": "e34930d8fb989bd7d3871ecdd6cabd600fb69fda4189776f43f7cc3db914bce0",
    "compose-crossed-3": "6f280c86e3443952fad73f0d5132c64de73f254da1cad63ad3439ca208d20721",
    "compose-crossed-9": "5400e3bb974a01137326755e6d8d43172ed0d9486f06e6bb38503b58fbb418bc",
    "multi-branching-3": "c5e7d3bd2167d6ef8798aeee8b45a12d3ebde89640106865a4e364c2e69db9b0",
    "multi-branching-9": "e71da3fc16aef3e335f421e7a2b4e40500115ba1ba898de4e9c5465d3b7ee20f",
    "multi-branching-3-sub-4": "e9a0c4f133aea776b5f500f1f11a41be85a084297673224bb231349b3e415597",
    "spec-substitutions": "559c43ad1196785f14b2b57eab9cafc47985adc1b15b429a4f9a0eaa98d313c8",
    "spec-substitution-by-root": "17ec3312e834409a574c346d238a60ec84fd435aac8cbfe376588ad81a722ca0",
    "spec-substitution-same-literal": "375663cb143bd8d669797390b963bb908bbf6bfe6e8591f2e354f198357a83a3",
    "spec-implicit": "7d5e8e153a2f5ededde5c3692a7f20ca9cfd6bb04907dad8ef0993d5d9569f5f",
    "spec-implicit-narrowed": "8ba9d816c74c5617939c3198ea2f4ae316671aad4a4c053384f9d480519ddfa4",
    "spec-redundancy": "1c85b9c9baae2d66c4a804f9838c96b19ff8443e85ead3ae3e9fe02d3f4b3689",
    "spec-closure-clause": "ad1ba3875a92767f79a19018cf07a808f77098b3d7d2ead1d90c4d164db9dfc7",
    "spec-open": "69e8b8d289b7a56e2c2f9078591787f96e9f3f134815984b8c55bcbc99f17bec",
    "spec-root-negated": "46cccca2200915aae40ed482f463f5ad80e7915dab1f9d2270e708fc609d7cdd",
    "spec-everything": "a695aab49080b5f6324d3473df5d78a54188962a5e78009a99ee19e93beb642a",
}


@pytest.mark.parametrize("name", CASES)
def test_write_dimacs_matches_the_pinned_digest(name):
    text = write_dimacs(CASES[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
    assert write_dimacs(parse_dimacs(text)) == text


RECIPE_KEYS = {
    "family", "k", "closure", "root", "substitutions", "implicit", "redundancy",
    "closing", "k_top", "k_sub",
}


@pytest.mark.parametrize("name", CASES)
def test_metadata_records_only_the_recipe(name):
    assert set(CASES[name]().metadata) <= RECIPE_KEYS


@pytest.mark.parametrize("name", CASES)
def test_count_paths_ends_on_every_case(name):
    formula = CASES[name]()
    root = formula.atlas.id_of(RootVar())
    for entry in (root, -root):
        assert all(paths > 0 for paths in count_paths(formula, entry).values())
