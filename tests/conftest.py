import os
import runpy

import hypothesis
import pytest

from cosum.data import load_reviews
from cosum.lm import train_model

from goldens import SAMPLE_REVIEWS, TESTS

hypothesis.settings.register_profile("ci", deadline=None)
hypothesis.settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def demo():
    """scripts/run_demo.py's globals: SAMPLE_PAIRS, run and cosum."""
    return runpy.run_path(os.path.join(TESTS, "..", "scripts", "run_demo.py"))


@pytest.fixture(scope="session")
def corpus_path():
    return SAMPLE_REVIEWS


@pytest.fixture(scope="session")
def sample_corpus():
    return load_reviews(SAMPLE_REVIEWS)


@pytest.fixture(scope="session")
def corpus_by_entity(sample_corpus):
    return {es.entity_id: es for es in sample_corpus}


@pytest.fixture(scope="session")
def trained_lm(sample_corpus):
    texts = [r.text for es in sample_corpus for r in es.reviews]
    return train_model(texts, order=3, lam=0.7, eps=1e-4)
