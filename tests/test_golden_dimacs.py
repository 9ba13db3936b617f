"""Byte-for-byte pins of generated DIMACS.

Each case is a generated formula and the SHA-256 of its `write_dimacs`
text.  The digests were taken from the generators before their emission
loops were rewritten for speed, so any change to clause order, literal
order, atlas, metadata or formatting fails here.
"""

import hashlib

import pytest

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
    "unit-chain-3": "9bbfd159613d1cb7c5b274ef152e298bd92907724b7d9ae35299369317c61d7b",
    "unit-chain-9": "904a5d22dcc7a8ccfd9a4371c3b6917b7518716b5910fdf5c37dab5b2c1dee88",
    "pair-chain-3": "f3037d4dc7bf54245c161f56baabf5551b698c9b00281776d7ce2d5163da5ae9",
    "pair-chain-9": "dc87dc7e69e35a7c0f37a08ef214c16d78b13a8ae491162110bbabae1aba49cc",
    "binary-3": "aeade82f26d4795ce2a7485b41c794362bd434385237730bc35f2003c4f5023c",
    "binary-9": "18a49da6377d7a6db7352e02e9cb011802ddc6f8ac29099e54e3b16cad4d9b7a",
    "binomial-3": "55cedf57bb136871cc1d49e2b3d1185359f0779dbb7ac5e75e07b659f459c7da",
    "binomial-9": "31dff59b01bb6e38b5296055344bbba9fafcfc1eff585614f2d7d71710980147",
    "compose-matched-3": "70b99c371e5e688344ffdc74a47c83e32d94a2f58f1a41ed2c50bf5892409f2b",
    "compose-matched-9": "d4c66bdfbf30c2a7b4518fd9daf28f0e2e50b3132e69971c0c5ca9b87507a505",
    "compose-crossed-3": "113801137eb02b53c38b56f7df528b20f6130759140d6ece24cb9e8a8b2b3324",
    "compose-crossed-9": "23a2c4237530a9e2949df5ac62f1565d63b787f5b7889d03e0aff3592ad4a500",
    "multi-branching-3": "93fe270f891258d6985293bc9dcd6a02bd7037aa48fec5f2275f53bbc9a3d055",
    "multi-branching-9": "f609b39aa05d75709e7b62c9cdf771988729041707d966fe945cb569fe25d531",
    "multi-branching-3-sub-4": "513f113544ec1d9ec30af020eadf0c12d1d483e25ab60030bcfb124b9a11ea8e",
    "spec-substitutions": "7fca4543b3a713daaacb1fac48cd3f71f5ef23d8a2096208e246039208133dd1",
    "spec-substitution-by-root": "a6671f00dbaf5c552020563697a231cec1732dfe54ac0e8fd3ddbcaa1ac6805c",
    "spec-substitution-same-literal": "4c39f44f9cfb843187467327cee927c12b51e735b8ba73ec0c951aa8a2fd227b",
    "spec-implicit": "843fbe207760da84668ea0683dfc3a6ed36a93741aa155095378c6013c01021b",
    "spec-implicit-narrowed": "99463bafd0479efea4fc73e23849f7ace6256e581e68e871e016acb9216ecbd1",
    "spec-redundancy": "f43f1ce7a895db4aed8796f38a95c52cddcd2296f948c6873009ced0b7d2ea3b",
    "spec-closure-clause": "e5c5907b134f218ffcc160d43824f700fdf916e2f5f711b4635ccba73a7afc9c",
    "spec-open": "c943bc060e96ee11afc2f43f66c4269df211b13eadce1a0dbab5c885b85e1a8f",
    "spec-root-negated": "e66cd4567a4abe93db1e62f3229ba5cef94a76e452419652605ae9dc06929f2b",
    "spec-everything": "740224916dc2a9e7f6e269ae390788b67070129579fec20b6c675df637a4eca1",
}


@pytest.mark.parametrize("name", CASES)
def test_write_dimacs_matches_the_pinned_digest(name):
    text = write_dimacs(CASES[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
    assert write_dimacs(parse_dimacs(text)) == text
