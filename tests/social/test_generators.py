"""Unit tests for repro.social.generators."""

from __future__ import annotations

import itertools
from typing import Sequence, Set

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.ids import AuthorId
from repro.rng import choice_without_replacement
from repro.social.generators import (
    CorpusConfig,
    DBLPStyleCorpusGenerator,
    generate_corpus,
)

SMALL = CorpusConfig(
    n_groups=30, n_consortium=120, mega_paper_size=20, consortium_block_size=20
)


class TestConfigValidation:
    def test_defaults_valid(self):
        CorpusConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"years": (2011, 2009)},
            {"n_groups": 1},
            {"p_external": 1.5},
            {"p_repeat_collab": -0.1},
            {"p_single_author": 0.7, "p_large": 0.5},
            {"pubs_per_author_year": 0.0},
            {"large_min": 1},
            {"large_min": 10, "large_max": 9},
            {"n_consortium": -1},
            {"mega_paper_size": -2},
            {"consortium_block_size": 0},
            {"p_block_escape": 2.0},
            {"author_count_tail": 0.0} if hasattr(CorpusConfig, "author_count_tail") else {"consortium_fraction": 1.2},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CorpusConfig(**kwargs)


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        c1 = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        c2 = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        assert len(c1) == len(c2)
        assert [p.pub_id for p in c1] == [p.pub_id for p in c2]
        assert [sorted(p.authors) for p in c1] == [sorted(p.authors) for p in c2]

    def test_different_seeds_differ(self):
        c1 = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        c2 = DBLPStyleCorpusGenerator(SMALL, seed=6).generate()
        assert [sorted(p.authors) for p in c1] != [sorted(p.authors) for p in c2]

    def test_years_within_config(self):
        corpus = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        lo, hi = corpus.year_range()
        assert lo >= 2009 and hi <= 2011

    def test_seed_author_publishes(self):
        gen = DBLPStyleCorpusGenerator(SMALL, seed=5)
        corpus = gen.generate()
        assert len(corpus.publications_of(gen.seed_author)) >= 1

    def test_mega_paper_present_with_requested_size(self):
        gen = DBLPStyleCorpusGenerator(SMALL, seed=5)
        corpus = gen.generate()
        sizes = corpus.author_list_size_histogram()
        assert max(sizes) == 20  # mega paper dominates

    def test_mega_paper_disabled(self):
        cfg = CorpusConfig(
            n_groups=30, n_consortium=120, mega_paper_size=0, consortium_block_size=20
        )
        corpus = DBLPStyleCorpusGenerator(cfg, seed=5).generate()
        assert max(corpus.author_list_size_histogram()) <= cfg.large_max

    def test_consortium_members_only_on_large_papers(self):
        corpus = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        for p in corpus:
            if any(str(a).startswith("c-") for a in p.authors):
                assert p.n_authors >= SMALL.large_min or p.n_authors == 20

    def test_repeat_collaboration_produces_heavy_edges(self):
        corpus = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        counts = corpus.coauthorship_counts()
        assert any(c >= 2 for c in counts.values())

    def test_author_institutions_assigned(self):
        corpus = DBLPStyleCorpusGenerator(SMALL, seed=5).generate()
        gen_seed = DBLPStyleCorpusGenerator.SEED_AUTHOR
        assert corpus.author(gen_seed).institution == "inst-0"

    def test_generate_corpus_wrapper(self):
        corpus, seed = generate_corpus(SMALL, seed=9)
        assert seed in corpus.author_ids


class LoopReferenceGenerator(DBLPStyleCorpusGenerator):
    """The per-slot draw loops the generator's fast paths must reproduce.

    Every slot filters the picked authors out of its pool anew, and a
    weighted pick goes through ``Generator.choice(..., p=...)``.
    """

    def _pick_group_coauthors(self, lead: AuthorId, n_extra: int) -> Set[AuthorId]:
        cfg = self.config
        rng = self._rng
        gi = self._group_of[lead]
        own = [a for a in self._groups[gi] if a != lead]
        neighbors = self._neighbor_groups(gi)
        picked: Set[AuthorId] = set()
        for _ in range(n_extra):
            pool: Sequence[AuthorId]
            if neighbors and rng.random() < cfg.p_external:
                ng = int(rng.choice(neighbors))
                pool = self._groups[ng]
            else:
                pool = own
            candidates = [a for a in pool if a not in picked]
            if not candidates:
                continue
            w = np.array(
                [self._productivity[a] for a in candidates]
            ) ** cfg.coauthor_weight_power
            idx = rng.choice(len(candidates), size=1, replace=False, p=w / w.sum())
            picked.add(candidates[int(idx[0])])
        return picked

    def _pick_large_authors(self, lead: AuthorId, n_total: int) -> Set[AuthorId]:
        cfg = self.config
        rng = self._rng
        n_consortium = int(round((n_total - 1) * cfg.consortium_fraction))
        n_consortium = min(n_consortium, len(self._consortium))
        n_group = n_total - 1 - n_consortium
        authors: Set[AuthorId] = {lead}
        authors |= self._pick_group_coauthors(lead, n_group)
        if n_consortium:
            size = cfg.consortium_block_size
            blocks = [
                self._consortium[i : i + size]
                for i in range(0, len(self._consortium), size)
            ]
            block = blocks[self._group_of[lead] % len(blocks)] if blocks else []
            picked: Set[AuthorId] = set()
            for _ in range(n_consortium):
                pool = (
                    self._consortium
                    if (not block or rng.random() < cfg.p_block_escape)
                    else block
                )
                candidates = [c for c in pool if c not in picked]
                if not candidates:
                    candidates = [c for c in self._consortium if c not in picked]
                    if not candidates:
                        break
                picked.add(candidates[int(rng.integers(len(candidates)))])
            authors |= picked
        if len(authors) < n_total:
            spare = [c for c in self._consortium if c not in authors]
            need = min(n_total - len(authors), len(spare))
            if need:
                authors.update(choice_without_replacement(rng, spare, need))
        return authors


def _rows(corpus):
    return [(p.pub_id, p.year, sorted(p.authors), p.venue, p.title) for p in corpus]


@pytest.mark.parametrize(
    "block_size,n_consortium,p_escape,n_mega",
    list(itertools.product([1, 3], [0, 4], [0.0, 0.5, 1.0], [0, 3])),
)
def test_draws_match_loop_reference(block_size, n_consortium, p_escape, n_mega):
    """Block sizes of 1 and 3 run the lead's block dry and fall back to the
    whole pool; an empty consortium skips the consortium draws."""
    cfg = CorpusConfig(
        n_groups=6,
        n_consortium=n_consortium,
        consortium_block_size=block_size,
        p_block_escape=p_escape,
        n_mega_papers=n_mega,
        mega_paper_size=12,
        large_pubs_per_year=15.0,
    )
    fast = DBLPStyleCorpusGenerator(cfg, seed=3)
    ref = LoopReferenceGenerator(cfg, seed=3)
    assert _rows(fast.generate()) == _rows(ref.generate())
    assert fast._rng.bit_generator.state == ref._rng.bit_generator.state
