"""Synthetic DBLP-style coauthorship corpus generation.

The paper's case study uses a DBLP ego network (seed: one author,
2009-2011, 3 hops). DBLP dumps are unavailable offline, so this module
generates a synthetic corpus reproducing the structural properties the
experiment depends on (see DESIGN.md section 2):

* **Research-group community structure** — authors belong to groups;
  publications are mostly intra-group with occasional cross-group
  collaborations along a small-world group topology, so a 3-hop ego
  network spans many groups while keeping a modest maximum span.
* **A consortium-only population and large-collaboration papers** — a
  fraction of publications are "large collaborations" (8-40 authors) that
  draw most of their author list from a pool of consortium members who
  never write small papers. This is what makes the paper's trust prunings
  bite: consortium authors rarely repeat a specific pair (dropped by the
  double-coauthorship graph) and have no small publications (dropped by
  the number-of-authors graph), reproducing Table I's sharp shrinkage
  (2335 -> 811 -> 604 nodes in the paper).
* **One mega-paper with ~86 authors** mirroring the paper's reference
  [13], led from the seed's own group, whose artificially high node
  degrees cause the node-degree placement flatline in Fig. 3(a).
* **Repeat collaborations** — a tunable fraction of group publications
  reuse a prior author set, producing the weight>=2 edges the
  double-coauthorship pruning keeps.
* **Heterogeneous productivity** — per-author lognormal productivity
  weights yield the skewed degree distribution of real coauthorship data.
* **A temporal stream** — per-year publication counts, enabling the
  2009-2010 train / 2011 test split.

All randomness flows from a single seed, so corpora are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx
import numpy as np

from ..errors import ConfigurationError
from ..ids import AuthorId, PublicationId
from ..rng import SeedLike, choice_without_replacement, make_rng
from .records import Author, Corpus, Publication


@dataclass(frozen=True)
class CorpusConfig:
    """Parameters of the synthetic DBLP-style corpus.

    Defaults are calibrated so that a 3-hop ego network extracted around
    the generator's seed author has the same order of magnitude and the
    same pruning behaviour as the paper's Table I (thousands of baseline
    nodes; double-coauthorship keeps roughly a third of them with isolated
    islands; number-of-authors keeps roughly a quarter).

    Attributes
    ----------
    years:
        Inclusive (first, last) publication years.
    n_groups:
        Number of research groups.
    group_size_mean / group_size_sigma:
        Lognormal parameters of group sizes (clipped to >= 2 members).
    size_activity_coupling:
        Exponent coupling group size to group activity: effective size is
        the lognormal draw times ``activity ** coupling``. Active
        communities in real coauthorship data are also large (prolific
        labs accrete students and collaborators), which produces the
        high-degree PI hubs that make small-publication trust graphs
        coverable by few replicas (paper Fig. 3(c)).
    n_consortium:
        Size of the consortium-only author pool (authors who appear only
        on large-collaboration publications).
    pubs_per_author_year:
        Expected publications initiated per group author per year.
    p_external:
        Probability that a coauthor slot of a small publication is filled
        from a neighboring group instead of the lead's own group.
    p_repeat_collab:
        Probability that a new small publication reuses (a perturbation
        of) one of the lead author's earlier author sets, creating
        repeated coauthorships.
    coauthor_weight_power:
        Exponent applied to productivity when choosing small-publication
        coauthors. Higher values concentrate small-paper coauthorship on
        a group's active members, so inactive members appear only through
        large collaborations — they then drop out of the number-of-authors
        trust graph, reproducing its sharp Table I shrinkage.
    p_single_author:
        Probability a publication is single-author.
    p_large:
        Probability a group-stream publication is a large collaboration
        (in addition to the dedicated uniform-lead stream below).
    large_pubs_per_year:
        Expected number of large collaborations per year led by a
        *uniformly random* group author. Real big collaborations are not
        led by the ego's active core, so their author lists sit far from
        the replica hubs — the poorly-covered long tail that depresses the
        baseline panel's hit rate relative to the trusted panels.
    large_min / large_max:
        Author-count range of large collaborations.
    consortium_fraction:
        Fraction of a large collaboration's author slots filled from the
        consortium pool (the rest come from research groups near the lead).
    consortium_block_size:
        The consortium pool is partitioned into blocks of this size; a
        large collaboration draws most consortium slots from the block
        associated with the lead's group. Successive large papers from the
        same neighborhood therefore overlap heavily, producing the dense
        repeat-coauthorship clusters (weight >= 2 edges) that dominate the
        paper's double-coauthorship graph (Fig. 2(b) islands).
    p_block_escape:
        Probability that a consortium slot is drawn uniformly from the
        whole pool instead of the lead's block (cross-block bridges).
    group_activity_sigma:
        Lognormal sigma of a per-group activity multiplier. Real ego
        networks are dominated by a handful of very active communities;
        this concentration is what makes trusted subgraphs *better* hit-
        rate targets than the baseline (paper Fig. 3): the same dense,
        repeat-collaborating groups both survive pruning and produce most
        test-year publications. 0 disables concentration.
    ego_activity_decay:
        Multiplicative per-group-hop decay of activity with distance from
        the seed's group (over the group topology). An ego-centered crawl
        oversamples the seed's active neighborhood — distant authors enter
        the network through single collaborations while the core publishes
        constantly. 1.0 disables the decay.
    mega_paper_size:
        If > 1, inject a *series* of mega-collaboration publications with
        this many authors each (paper ref. [13] had 86), led from the
        seed's group so the cluster lands inside the 3-hop ego network.
    n_mega_papers:
        Length of the mega series (one per year, cycling). Real
        infrastructure consortia publish repeatedly with overlapping
        author lists, which is why the paper's double-coauthorship graph
        retains a dense mega cluster.
    mega_overlap:
        Fraction of each subsequent mega paper's authors reused from the
        previous one.
    group_rewire_p / group_ring_k:
        Watts-Strogatz parameters of the group-level collaboration topology.
    """

    years: Tuple[int, int] = (2009, 2011)
    n_groups: int = 220
    group_size_mean: float = 2.0
    group_size_sigma: float = 0.6
    size_activity_coupling: float = 0.55
    n_consortium: int = 4000
    pubs_per_author_year: float = 0.3
    p_external: float = 0.04
    p_repeat_collab: float = 0.15
    coauthor_weight_power: float = 3.0
    p_single_author: float = 0.05
    p_large: float = 0.0
    large_pubs_per_year: float = 140.0
    large_min: int = 8
    large_max: int = 20
    consortium_fraction: float = 0.92
    consortium_block_size: int = 60
    p_block_escape: float = 0.8
    group_activity_sigma: float = 2.2
    ego_activity_decay: float = 0.75
    mega_paper_size: int = 86
    n_mega_papers: int = 3
    mega_overlap: float = 0.85
    group_rewire_p: float = 0.12
    group_ring_k: int = 4

    def __post_init__(self) -> None:
        first, last = self.years
        if first > last:
            raise ConfigurationError(f"invalid year range {self.years}")
        if self.n_groups < 2:
            raise ConfigurationError("need at least 2 research groups")
        for name in (
            "p_external",
            "p_repeat_collab",
            "p_single_author",
            "p_large",
            "consortium_fraction",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {v}")
        if self.p_single_author + self.p_large > 1.0:
            raise ConfigurationError("p_single_author + p_large must not exceed 1")
        if self.pubs_per_author_year <= 0:
            raise ConfigurationError("pubs_per_author_year must be positive")
        if self.coauthor_weight_power < 0:
            raise ConfigurationError("coauthor_weight_power must be >= 0")
        if self.large_pubs_per_year < 0:
            raise ConfigurationError("large_pubs_per_year must be >= 0")
        if not 2 <= self.large_min <= self.large_max:
            raise ConfigurationError(
                f"need 2 <= large_min <= large_max, got [{self.large_min}, {self.large_max}]"
            )
        if self.n_consortium < 0:
            raise ConfigurationError("n_consortium must be >= 0")
        if self.consortium_block_size < 1:
            raise ConfigurationError("consortium_block_size must be >= 1")
        if self.group_activity_sigma < 0:
            raise ConfigurationError("group_activity_sigma must be >= 0")
        if self.size_activity_coupling < 0:
            raise ConfigurationError("size_activity_coupling must be >= 0")
        if not 0.0 < self.ego_activity_decay <= 1.0:
            raise ConfigurationError("ego_activity_decay must be in (0, 1]")
        if not 0.0 <= self.p_block_escape <= 1.0:
            raise ConfigurationError("p_block_escape must be in [0, 1]")
        if self.mega_paper_size < 0:
            raise ConfigurationError("mega_paper_size must be >= 0")
        if self.n_mega_papers < 0:
            raise ConfigurationError("n_mega_papers must be >= 0")
        if not 0.0 <= self.mega_overlap <= 1.0:
            raise ConfigurationError("mega_overlap must be in [0, 1]")


class DBLPStyleCorpusGenerator:
    """Generates reproducible synthetic coauthorship corpora.

    Usage::

        gen = DBLPStyleCorpusGenerator(CorpusConfig(), seed=42)
        corpus = gen.generate()
        ego_seed = gen.seed_author
    """

    #: Id of the ego seed author (a member of group 0).
    SEED_AUTHOR = AuthorId("a-0-0")

    def __init__(self, config: Optional[CorpusConfig] = None, seed: SeedLike = None) -> None:
        self.config = config or CorpusConfig()
        self._rng = make_rng(seed)
        self._groups: List[List[AuthorId]] = []
        self._consortium: List[AuthorId] = []
        self._consortium_blocks: List[List[AuthorId]] = []
        self._group_of: Dict[AuthorId, int] = {}
        self._productivity: Dict[AuthorId, float] = {}
        self._group_graph: Optional[nx.Graph] = None

    @property
    def seed_author(self) -> AuthorId:
        """The designated ego-network seed (always generated, always active)."""
        return self.SEED_AUTHOR

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def _build_population(self) -> None:
        cfg = self.config
        rng = self._rng
        self._consortium = [AuthorId(f"c-{k}") for k in range(cfg.n_consortium)]
        size = cfg.consortium_block_size
        self._consortium_blocks = [
            self._consortium[i : i + size]
            for i in range(0, len(self._consortium), size)
        ]
        # Group collaboration topology: connected small-world ring (built
        # first so ego-centric activity decay can use it).
        k = min(cfg.group_ring_k, cfg.n_groups - 1)
        if k % 2:
            k -= 1
        k = max(2, k)
        self._group_graph = nx.connected_watts_strogatz_graph(
            cfg.n_groups, k, cfg.group_rewire_p, seed=int(rng.integers(0, 2**31))
        )
        # Per-group activity multipliers: a few communities dominate the
        # publication stream.
        activity = np.exp(
            rng.normal(0.0, cfg.group_activity_sigma, size=cfg.n_groups)
        )
        # group 0 (the ego seed's group) is always among the active ones,
        # as an ego network is by construction centered on an active author
        activity[0] = max(activity[0], float(np.percentile(activity, 90)))
        # ego-centric concentration: activity decays with group-topology
        # distance from the seed's group
        if cfg.ego_activity_decay < 1.0:
            dist = nx.single_source_shortest_path_length(self._group_graph, 0)
            for gi in range(cfg.n_groups):
                activity[gi] *= cfg.ego_activity_decay ** dist.get(gi, cfg.n_groups)
        self._group_activity = activity
        # Group sizes: lognormal draw, amplified for active groups
        # (prolific labs are large) — the source of high-degree PI hubs.
        rel = activity / activity.mean() if activity.mean() > 0 else activity
        sizes = np.exp(
            rng.normal(cfg.group_size_mean, cfg.group_size_sigma, size=cfg.n_groups)
        ) * np.power(rel, cfg.size_activity_coupling)
        sizes = np.clip(np.round(sizes), 2, 45).astype(int)
        self._groups = []
        self._group_of = {}
        for gi, size in enumerate(sizes):
            group = [AuthorId(f"a-{gi}-{k}") for k in range(int(size))]
            self._groups.append(group)
            for a in group:
                self._group_of[a] = gi
        # Lognormal per-author productivity scaled by the group multiplier.
        self._productivity = {}
        for gi, group in enumerate(self._groups):
            for a in group:
                self._productivity[a] = float(
                    activity[gi] * np.exp(rng.normal(0.0, 0.8))
                )
        # Make the ego seed reliably active so it has publications in every year.
        self._productivity[self.SEED_AUTHOR] = max(
            self._productivity[self.SEED_AUTHOR], 3.0
        )

    def _neighbor_groups(self, gi: int) -> List[int]:
        assert self._group_graph is not None
        return list(self._group_graph.neighbors(gi))

    # ------------------------------------------------------------------
    # author-count distribution (small publications)
    # ------------------------------------------------------------------
    def _draw_small_author_count(self) -> int:
        """Author counts of ordinary papers: mode 3, capped below large_min."""
        rng = self._rng
        u = rng.random()
        if u < 0.30:
            n = 2
        elif u < 0.62:
            n = 3
        elif u < 0.84:
            n = 4
        elif u < 0.94:
            n = 5
        else:
            n = 6 + int(rng.integers(0, 2))  # 6 or 7
        return min(n, self.config.large_min - 1)

    # ------------------------------------------------------------------
    # publication synthesis
    # ------------------------------------------------------------------
    def _pick_group_coauthors(self, lead: AuthorId, n_extra: int) -> Set[AuthorId]:
        """Fill coauthor slots, mostly from the lead's group."""
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
            weights = np.array(
                [self._productivity[a] for a in candidates]
            ) ** cfg.coauthor_weight_power
            picked.add(choice_without_replacement(rng, candidates, 1, weights=weights)[0])
        return picked

    def _pick_large_authors(self, lead: AuthorId, n_total: int) -> Set[AuthorId]:
        """Author list of a large collaboration: lead + nearby groups + consortium.

        Consortium slots come mostly from the block mapped to the lead's
        group (``group_index % n_blocks``), so repeated large papers from
        the same neighborhood overlap heavily — the source of the dense
        weight>=2 consortium clusters. A slot escapes to the whole pool with
        probability ``p_block_escape``, and falls back to it once the block
        runs dry.

        Each slot draws from the unpicked rest of the pool and of the
        block, kept in pool order and shrunk by one pick at a time, rather
        than rebuilding a filtered pool per slot. The draws, and so the
        author lists, are those the per-slot filter gives.
        """
        cfg = self.config
        rng = self._rng
        n_consortium = int(round((n_total - 1) * cfg.consortium_fraction))
        n_consortium = min(n_consortium, len(self._consortium))
        n_group = n_total - 1 - n_consortium
        authors: Set[AuthorId] = {lead}
        authors |= self._pick_group_coauthors(lead, n_group)
        if n_consortium:
            blocks = self._consortium_blocks
            # both stay in pool order, so rng.integers(len(...)) indexes
            # the member the per-slot filter would have picked
            pool = list(self._consortium)
            block = list(blocks[self._group_of[lead] % len(blocks)])
            picked: Set[AuthorId] = set()
            for _ in range(n_consortium):
                # the escape is drawn on every slot, since the lead's block
                # starts non-empty (n_consortium > 0 needs a non-empty
                # pool); `not block` falls back once the block runs dry
                if rng.random() < cfg.p_block_escape or not block:
                    pick = pool.pop(int(rng.integers(len(pool))))
                    if pick in block:
                        block.remove(pick)
                else:
                    pick = block.pop(int(rng.integers(len(block))))
                    pool.remove(pick)
                picked.add(pick)
            authors |= picked
        # Group pools can run dry (small groups); top up from the consortium
        # so the requested author count is honored whenever possible.
        if len(authors) < n_total:
            spare = [c for c in self._consortium if c not in authors]
            need = min(n_total - len(authors), len(spare))
            if need:
                authors.update(choice_without_replacement(rng, spare, need))
        return authors

    def _perturb_author_set(self, base: Set[AuthorId], lead: AuthorId) -> Set[AuthorId]:
        """Reuse a prior collaboration, possibly dropping or adding one member."""
        rng = self._rng
        authors = set(base)
        authors.add(lead)
        others = sorted(authors - {lead})
        if others and rng.random() < 0.3:
            authors.discard(others[int(rng.integers(len(others)))])
        if rng.random() < 0.3:
            authors |= self._pick_group_coauthors(lead, 1)
        return authors

    def _make_mega_series(self, pub_counter: int) -> List[Publication]:
        """A series of mega-collaboration publications with overlapping authors.

        Led by a member of group 0 *other than the seed* (the paper's
        86-author publication is inside the ego network but not authored by
        the seed), so the cluster sits 2-3 hops out — exactly where it
        distorts node-degree placement without touching the seed's own
        neighborhood. Subsequent papers in the series reuse
        ``mega_overlap`` of the previous author list, so the cluster's
        pairs reach weight >= 2 and survive double-coauthorship pruning,
        as the real interop-consortium papers do.
        """
        cfg = self.config
        rng = self._rng
        group0 = [a for a in self._groups[0] if a != self.SEED_AUTHOR]
        lead = group0[0] if group0 else self.SEED_AUTHOR
        first_year, last_year = cfg.years
        n_years = last_year - first_year + 1
        pubs: List[Publication] = []
        prev: Optional[Set[AuthorId]] = None
        for k in range(cfg.n_mega_papers):
            if prev is None:
                authors = self._pick_large_authors(lead, cfg.mega_paper_size)
            else:
                keep_n = int(round(cfg.mega_overlap * (cfg.mega_paper_size - 1)))
                old = sorted(prev - {lead})
                kept = set(
                    choice_without_replacement(rng, old, min(keep_n, len(old)))
                )
                fresh = self._pick_large_authors(
                    lead, cfg.mega_paper_size - len(kept)
                )
                authors = kept | fresh
            pubs.append(
                Publication(
                    pub_id=PublicationId(f"p-{pub_counter + k}"),
                    year=first_year + (k % n_years),
                    authors=frozenset(authors),
                    venue="mega-collaboration",
                    title=f"Interoperation of world-wide e-science infrastructures, part {k + 1}",
                )
            )
            prev = set(authors)
        return pubs

    def generate(self) -> Corpus:
        """Generate the corpus. Repeated calls on one generator instance
        produce *different* corpora (the RNG stream advances); construct a
        fresh generator with the same seed for an identical corpus."""
        cfg = self.config
        rng = self._rng
        self._build_population()
        first, last = cfg.years

        pubs: List[Publication] = []
        history: Dict[AuthorId, List[Set[AuthorId]]] = {}
        counter = 0
        all_group_authors = [a for g in self._groups for a in g]
        for year in range(first, last + 1):
            # dedicated large-collaboration stream with uniform random leads
            for _ in range(int(rng.poisson(cfg.large_pubs_per_year))):
                lead = all_group_authors[int(rng.integers(len(all_group_authors)))]
                n = int(rng.integers(cfg.large_min, cfg.large_max + 1))
                pubs.append(
                    Publication(
                        pub_id=PublicationId(f"p-{counter}"),
                        year=year,
                        authors=frozenset(self._pick_large_authors(lead, n)),
                    )
                )
                counter += 1
            for group in self._groups:
                for lead in group:
                    lam = cfg.pubs_per_author_year * min(self._productivity[lead], 4.0)
                    n_pubs = int(rng.poisson(lam))
                    for _ in range(n_pubs):
                        u = rng.random()
                        if u < cfg.p_single_author:
                            authors = {lead}
                        elif u < cfg.p_single_author + cfg.p_large:
                            n = int(rng.integers(cfg.large_min, cfg.large_max + 1))
                            authors = self._pick_large_authors(lead, n)
                        else:
                            past = history.get(lead)
                            if past and rng.random() < cfg.p_repeat_collab:
                                authors = self._perturb_author_set(
                                    past[int(rng.integers(len(past)))], lead
                                )
                            else:
                                n = self._draw_small_author_count()
                                authors = {lead} | self._pick_group_coauthors(lead, n - 1)
                            history.setdefault(lead, []).append(set(authors))
                        pubs.append(
                            Publication(
                                pub_id=PublicationId(f"p-{counter}"),
                                year=year,
                                authors=frozenset(authors),
                            )
                        )
                        counter += 1
        if cfg.mega_paper_size > 1 and cfg.n_mega_papers > 0:
            series = self._make_mega_series(counter)
            pubs.extend(series)
            counter += len(series)

        authors = {
            a: Author(a, institution=f"inst-{self._group_of[a]}")
            for group in self._groups
            for a in group
        }
        for c in self._consortium:
            authors[c] = Author(c, institution="consortium")
        return Corpus(pubs, authors=authors)


def generate_corpus(
    config: Optional[CorpusConfig] = None, seed: SeedLike = None
) -> Tuple[Corpus, AuthorId]:
    """Convenience wrapper: generate a corpus and return ``(corpus, ego_seed)``."""
    gen = DBLPStyleCorpusGenerator(config, seed=seed)
    return gen.generate(), gen.seed_author
