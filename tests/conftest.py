from __future__ import annotations

import pytest

from graphinverse.corpus import CORPUS
from reference import ACYCLIC_CORPUS


@pytest.fixture
def loop():
    return CORPUS["loop"]


@pytest.fixture
def edge():
    return CORPUS["edge"]


@pytest.fixture
def two_cycle():
    return CORPUS["two_cycle"]


@pytest.fixture
def pendant():
    return CORPUS["pendant_cycle"]


@pytest.fixture
def double_loop():
    return CORPUS["double_loop"]


@pytest.fixture(params=sorted(CORPUS))
def corpus_graph(request):
    return CORPUS[request.param]


@pytest.fixture(params=sorted(ACYCLIC_CORPUS))
def acyclic_graph(request):
    return ACYCLIC_CORPUS[request.param]
