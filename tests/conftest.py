import pytest

from moorekit import corpus


@pytest.fixture(scope="session")
def built():
    """The k=4 simplicial corpus, built once per prime: built(name, p)."""
    cache = {}

    def get(name, p=2):
        if p not in cache:
            cache[p] = corpus.simplicial_corpus(p)
        return cache[p][name]

    return get
