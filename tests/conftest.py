import sys
from collections import Counter

import pytest

from sweedler import structures
from sweedler.fields import GF, QQ
from sweedler.linalg import _SignedSwap
from sweedler.structures import matrix_algebra, trivial_algebra
from sweedler.zoo import (
    corpus_algebras,
    corpus_bialgebras,
    corpus_hopf_algebras,
    cyclic_group_hopf,
    idempotent_monoid_bialgebra,
    involution_algebra,
    sweedler_hopf,
)


@pytest.fixture(scope="session")
def f2():
    return GF(2)


@pytest.fixture(scope="session")
def f3():
    return GF(3)


@pytest.fixture(scope="session")
def inv_f2(f2):
    """F_2[g]/(g^2 + 1) = F_2[C_2]."""
    return involution_algebra(f2)


@pytest.fixture(scope="session")
def m2_f2(f2):
    return matrix_algebra(trivial_algebra(f2), 2)


@pytest.fixture(scope="session")
def k_f2(f2):
    return trivial_algebra(f2)


@pytest.fixture(scope="session")
def q_c2():
    return cyclic_group_hopf(QQ, 2)


@pytest.fixture(scope="session")
def sweedler4(f3):
    return sweedler_hopf(f3)


@pytest.fixture(scope="session")
def idempotent(f2):
    return idempotent_monoid_bialgebra(f2)


@pytest.fixture(scope="session")
def bialgebra_corpus():
    return corpus_bialgebras()


@pytest.fixture(scope="session")
def hopf_corpus():
    return corpus_hopf_algebras()


@pytest.fixture(scope="session")
def algebra_corpus():
    return corpus_algebras()


@pytest.fixture
def evaluated_axioms(monkeypatch):
    """How often each axiom is evaluated while the test runs, counted by
    wrapping ``structures._failures`` wherever the library holds it.

    The key is (axiom name, lhs factors, rhs factors), each factor a map by
    identity (the value it belongs to) or a braiding by value (every check
    makes its own); the axioms are kept, so no identity is reused."""
    counts = Counter()
    kept = []
    original = structures._failures

    def key(chain):
        return tuple(t if isinstance(t, _SignedSwap) else id(t) for t, _, _ in chain)

    def counted(axioms):
        kept.append(axioms)
        for axiom in axioms:
            counts[axiom.name, key(axiom.lhs), key(axiom.rhs)] += 1
        return original(axioms)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sweedler" and getattr(module, "_failures", None) is original:
            monkeypatch.setattr(module, "_failures", counted)
    return counts


@pytest.fixture
def search_visits(monkeypatch):
    """The free coordinates of each assignment that a quadratic search finds
    while the test runs, in the order it finds them."""
    visits = []
    original = structures._QuadraticSearch.run

    def run(self, leaf):
        def record(values):
            visits.append(tuple(values[1:self.free + 1]))
            leaf(values)
        original(self, record)

    monkeypatch.setattr(structures._QuadraticSearch, "run", run)
    return visits
