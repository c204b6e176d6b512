import os

import hypothesis
import pytest

from cosum.lm import train_model
from cosum.sample_corpus import build_sample_corpus

hypothesis.settings.register_profile("ci", deadline=None)
hypothesis.settings.load_profile(os.getenv("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def sample_corpus():
    return build_sample_corpus()


@pytest.fixture(scope="session")
def corpus_by_entity(sample_corpus):
    return {es.entity_id: es for es in sample_corpus}


@pytest.fixture(scope="session")
def trained_lm(sample_corpus):
    texts = [r.text for es in sample_corpus for r in es.reviews]
    return train_model(texts, order=3, lam=0.7, eps=1e-4)
