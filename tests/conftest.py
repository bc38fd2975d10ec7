from pathlib import Path

import pytest

from maghom import parse_graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name):
    return parse_graph((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def g1():
    return load_fixture("G1")


@pytest.fixture(scope="session")
def g2():
    return load_fixture("G2")


@pytest.fixture(scope="session")
def g3():
    return load_fixture("G3")


@pytest.fixture(scope="session")
def c4():
    return load_fixture("C4")


@pytest.fixture(scope="session")
def g1_cert_text():
    return (FIXTURES / "G1.sstruct").read_text()


def encode_graph6(n, edges):
    """Independent graph6 encoder used as a round-trip oracle in tests."""
    es = {(min(u, v) - 1, max(u, v) - 1) for u, v in edges}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in es else 0)
    while len(bits) % 6:
        bits.append(0)
    out = chr(63 + n)
    for t in range(0, len(bits), 6):
        word = 0
        for bit in bits[t : t + 6]:
            word = word * 2 + bit
        out += chr(63 + word)
    return out


def full_boundary(g, k, length):
    """The degree-k boundary matrix of the whole length-l complex."""
    from maghom import boundary_matrix, enumerate_sequences

    return boundary_matrix(
        g, enumerate_sequences(g, k, length), enumerate_sequences(g, k - 1, length)
    )
