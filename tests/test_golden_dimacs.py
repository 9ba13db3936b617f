"""Byte-for-byte pins of generated DIMACS.

Each case is a generated formula and the SHA-256 of its `write_dimacs`
text.  The digests were taken from the generators before their emission
loops were rewritten for speed, then with the `c meta` lines of derived
counts removed from that text, and then with each `c meta` value
rewritten into the form its `generate` flag reads.  So any change to
clause order, literal order, atlas, metadata or formatting fails here.
"""

import hashlib

import pytest

from treesat.cli import main
from treesat.counts import count_paths
from treesat.forge import (
    FAMILIES,
    Closure,
    NamedLit,
    RedundancySpec,
    TreeSpec,
    build_binomial_tree,
    build_multi_branching,
    parse_closure,
    parse_implicit,
    parse_redundancy,
    parse_substitution,
)
from treesat.formula import ROOT, parse_dimacs, write_dimacs


def fresh(tag, negated=False):
    return NamedLit(f"z{tag}", negated)


SPECS = {
    "substitutions": TreeSpec(k=4, substitutions=(
        ("s4.2", fresh(0)), ("s5.4", fresh(0, negated=True)),
    )),
    "substitution-by-root": TreeSpec(k=4, substitutions=(
        ("s3.2", NamedLit(ROOT)), ("s5.3", NamedLit(ROOT, negated=True)),
    )),
    "substitution-same-literal": TreeSpec(k=3, substitutions=(
        ("s3.1", fresh(2)), ("s4.3", fresh(2)),
    )),
    "implicit": TreeSpec(k=5, implicit_nodes=(((2, 1), "s5.2"), ((1, 1), "s4.4"))),
    "implicit-narrowed": TreeSpec(k=3, implicit_nodes=(((1, 1), "s2.2"),)),
    "redundancy": TreeSpec(k=5, redundancy=(
        RedundancySpec((1, 1), 7, seed=3), RedundancySpec((3, 2), 2, seed=11),
    )),
    "closure-clause": TreeSpec(k=6, closure=Closure("clause", 4)),
    "open": TreeSpec(k=6, closure=None),
    "root-negated": TreeSpec(k=6, closure=Closure("alias", 3), root_negated=True),
    "everything": TreeSpec(
        k=6,
        closure=Closure("clause", 2),
        substitutions=(("s4.3", fresh(1)), ("s6.1", NamedLit(ROOT, negated=True))),
        implicit_nodes=(((3, 2), "s6.4"),),
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
    "compose-matched-3": "1f6b282bfe9fae5005e3df6c28819936ac51f0d898f8d0313a9bbeeec6ac50ca",
    "compose-matched-9": "46b05d02403121fde02abdd4683aa21dcb41c91f3288fa5ee66277154a3dce99",
    "compose-crossed-3": "d6d062bb02c913cff57e8685956dc7fd6ef34fb42a41d837ddb2b9c82cbc3057",
    "compose-crossed-9": "23bef8e9091754ff3c6afe824977f10bf7cef66455b60d53f4d7a478673b3029",
    "multi-branching-3": "5fa924cfc07a2a6984bed82bd73d1a63a0e5a0627e8a10fd1eeaf0af12f92e37",
    "multi-branching-9": "b399e70dffe7ca5ef4b5ddbca0bb29f24ce22bd1f08f127e369958a198bdd721",
    "multi-branching-3-sub-4": "2e0c0760d49e4c895d40cd49274e2ccc9dafbf894ca84e478b2f5dd3805c1f77",
    "spec-substitutions": "559c43ad1196785f14b2b57eab9cafc47985adc1b15b429a4f9a0eaa98d313c8",
    "spec-substitution-by-root": "17ec3312e834409a574c346d238a60ec84fd435aac8cbfe376588ad81a722ca0",
    "spec-substitution-same-literal": "375663cb143bd8d669797390b963bb908bbf6bfe6e8591f2e354f198357a83a3",
    "spec-implicit": "9a4a27b97277f7ba8fbd2e5c0c43929a874aa73f4ab214e82decfda305ab34db",
    "spec-implicit-narrowed": "3b2c3dc3f0ccdcf7e123dec96b737dbd6bda7a1584388f5547bd5bee076942f4",
    "spec-redundancy": "1c85b9c9baae2d66c4a804f9838c96b19ff8443e85ead3ae3e9fe02d3f4b3689",
    "spec-closure-clause": "ad1ba3875a92767f79a19018cf07a808f77098b3d7d2ead1d90c4d164db9dfc7",
    "spec-open": "69e8b8d289b7a56e2c2f9078591787f96e9f3f134815984b8c55bcbc99f17bec",
    "spec-root-negated": "46cccca2200915aae40ed482f463f5ad80e7915dab1f9d2270e708fc609d7cdd",
    "spec-everything": "68f8b607b896d5c125c8561a32d2b1493450632e4b1c8d4c501eddf3e9f6e969",
}


@pytest.mark.parametrize("name", CASES)
def test_write_dimacs_matches_the_pinned_digest(name):
    text = write_dimacs(CASES[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
    assert write_dimacs(parse_dimacs(text)) == text


def test_generated_text_is_read_without_the_line_walk(monkeypatch):
    # parse_dimacs reads a file in write_dimacs's shape in bulk; the line
    # walk is only its error path.
    def no_walk(text):
        raise AssertionError("generated text went to the line walk")

    monkeypatch.setattr("treesat.formula._walk_lines", no_walk)
    formulas = [build() for build in CASES.values()]
    formulas += [build(k) for build in FAMILIES.values() for k in range(2, 9)]
    for formula in formulas:
        assert parse_dimacs(write_dimacs(formula)) == formula


# The `generate` flag that reads each `c meta` key's value; the value of
# a repeatable flag is its items joined by `;`, and `root neg` is
# `--negate-root`.
FLAGS = {
    "family": "--family", "k": "--k", "closure": "--closure", "k_sub": "--k-sub",
    "substitutions": "--sub", "implicit": "--implicit", "redundancy": "--redundancy",
}
REPEATABLE = {"substitutions", "implicit", "redundancy"}
RECIPE_KEYS = {*FLAGS, "root"}


@pytest.mark.parametrize("name", CASES)
def test_metadata_records_only_the_recipe(name):
    assert set(CASES[name]().metadata) <= RECIPE_KEYS


@pytest.mark.parametrize("name", SPECS)
def test_each_recipe_field_reads_back_as_written(name):
    spec = SPECS[name]
    metadata = build_binomial_tree(spec).metadata

    def items(key):
        return metadata[key].split(";") if key in metadata else []

    assert parse_closure(metadata["closure"]) == spec.closure
    assert tuple(map(parse_substitution, items("substitutions"))) == spec.substitutions
    assert tuple(map(parse_implicit, items("implicit"))) == spec.implicit_nodes
    assert tuple(map(parse_redundancy, items("redundancy"))) == spec.redundancy
    assert items("root") == (["neg"] if spec.root_negated else [])


@pytest.mark.parametrize("name", CASES)
def test_count_paths_ends_on_every_case(name):
    formula = CASES[name]()
    root = formula.atlas.id_of(ROOT)
    for entry in (root, -root):
        assert all(paths > 0 for paths in count_paths(formula, entry).values())


def generate_argv(metadata):
    argv = ["generate"]
    for key, value in metadata.items():
        if key == "root":
            assert value == "neg"
            argv.append("--negate-root")
            continue
        for item in value.split(";") if key in REPEATABLE else [value]:
            argv += [FLAGS[key], item]
    return argv


@pytest.mark.parametrize("name", CASES)
def test_generate_rebuilds_each_case_from_its_metadata(capsys, name):
    text = write_dimacs(CASES[name]())
    assert main(generate_argv(parse_dimacs(text).metadata)) == 0
    assert capsys.readouterr().out == text
