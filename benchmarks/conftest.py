"""Shared fixtures for the benchmark harness.

Every bench draws from one full-scale synthetic corpus (the calibrated
default :class:`~repro.social.generators.CorpusConfig`) and, where it needs
the full Section VI sweep, one shared 100-run case-study result — computed
once per benchmark session, exactly as the paper ran it.
"""

from __future__ import annotations

import pytest

from repro.casestudy import CaseStudyConfig, run_case_study
from repro.social import generate_corpus
from repro.social.ego import ego_corpus

CORPUS_SEED = 42
STUDY_SEED = 7
#: seed-grid root of the campaign serial-vs-parallel bench
CAMPAIGN_ROOT_SEED = 11


@pytest.fixture(scope="session")
def corpus_and_seed():
    """The full-scale calibrated corpus used by every bench."""
    return generate_corpus(seed=CORPUS_SEED)


@pytest.fixture(scope="session")
def ego(corpus_and_seed):
    """The 3-hop ego corpus (the paper's extraction)."""
    corpus, seed_author = corpus_and_seed
    return ego_corpus(corpus, seed_author, hops=3)


@pytest.fixture(scope="session")
def study_result(corpus_and_seed):
    """The full Section VI sweep at the paper's 100 runs."""
    corpus, seed_author = corpus_and_seed
    return run_case_study(
        corpus,
        seed_author,
        config=CaseStudyConfig(n_runs=100),
        seed=STUDY_SEED,
    )
