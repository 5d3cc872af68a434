#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>

#include "snapshot/checksum.h"
#include "synth/corpus_generator.h"
#include "synth/topic_hierarchy.h"
#include "synth/venue_table.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace rpg::synth {
namespace {

// A small corpus shared by the property tests (built once).
class CorpusFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CorpusOptions options;
    options.hierarchy.areas_per_domain = 2;
    options.hierarchy.topics_per_area = 2;
    options.papers_per_topic = 40;
    options.papers_per_area = 15;
    options.papers_per_domain = 10;
    options.num_surveys = 60;
    options.seed = 7;
    corpus_ = GenerateCorpus(options).value().release();
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }
  static const Corpus* corpus_;
};

const Corpus* CorpusFixture::corpus_ = nullptr;

// ------------------------------------------------------- TopicHierarchy

TEST(TopicHierarchyTest, ShapeMatchesOptions) {
  TopicHierarchyOptions options;
  options.areas_per_domain = 3;
  options.topics_per_area = 4;
  TopicHierarchy h(options);
  EXPECT_EQ(h.Domains().size(), 10u);
  EXPECT_EQ(h.AtLevel(TopicLevel::kArea).size(), 30u);
  EXPECT_EQ(h.AtLevel(TopicLevel::kTopic).size(), 120u);
  EXPECT_EQ(h.size(), 1u + 10u + 30u + 120u);
}

TEST(TopicHierarchyTest, PhrasesAreUniquePerDomain) {
  TopicHierarchy h;
  std::set<std::string> phrases;
  for (TopicId a : h.AtLevel(TopicLevel::kArea)) {
    EXPECT_TRUE(phrases.insert(h.Get(a).phrase).second) << h.Get(a).phrase;
  }
  for (TopicId t : h.AtLevel(TopicLevel::kTopic)) {
    EXPECT_TRUE(phrases.insert(h.Get(t).phrase).second) << h.Get(t).phrase;
  }
}

TEST(TopicHierarchyTest, PhrasesAvoidStopwords) {
  TopicHierarchy h;
  for (TopicId t : h.AtLevel(TopicLevel::kTopic)) {
    for (const auto& tok : text::Tokenize(h.Get(t).phrase)) {
      EXPECT_FALSE(text::IsStopword(tok)) << tok;
    }
  }
}

TEST(TopicHierarchyTest, AncestryNavigation) {
  TopicHierarchy h;
  TopicId leaf = h.AtLevel(TopicLevel::kTopic).front();
  TopicId area = h.AreaOf(leaf);
  TopicId domain = h.DomainOf(leaf);
  ASSERT_NE(area, kInvalidTopic);
  ASSERT_NE(domain, kInvalidTopic);
  EXPECT_EQ(h.Get(leaf).parent, area);
  EXPECT_EQ(h.Get(area).parent, domain);
  EXPECT_TRUE(h.IsAncestorOf(area, leaf));
  EXPECT_TRUE(h.IsAncestorOf(domain, leaf));
  EXPECT_TRUE(h.IsAncestorOf(h.root(), leaf));
  EXPECT_FALSE(h.IsAncestorOf(leaf, area));
  EXPECT_EQ(h.AreaOf(domain), kInvalidTopic);
  EXPECT_EQ(h.DomainOf(h.root()), kInvalidTopic);
}

TEST(TopicHierarchyTest, DeterministicForSeed) {
  TopicHierarchy a, b;
  ASSERT_EQ(a.size(), b.size());
  for (TopicId t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a.Get(t).phrase, b.Get(t).phrase);
  }
}

// ------------------------------------------------------------ VenueTable

TEST(VenueTableTest, SizeAndScores) {
  VenueTable venues;
  EXPECT_EQ(venues.size(), 690u);  // "around 700 top venues"
  for (VenueId v = 0; v < venues.size(); ++v) {
    double s = venues.Score(v);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  EXPECT_DOUBLE_EQ(venues.Score(kNoVenue), 0.0);
}

TEST(VenueTableTest, TierScoresOrdered) {
  EXPECT_GT(VenueTable::TierScore(1), VenueTable::TierScore(2));
  EXPECT_GT(VenueTable::TierScore(2), VenueTable::TierScore(3));
}

TEST(VenueTableTest, TierAStatisticallyOutscoresTierC) {
  VenueTable venues;
  double tier_a = 0.0, tier_c = 0.0;
  size_t na = 0, nc = 0;
  for (VenueId v = 0; v < venues.size(); ++v) {
    if (venues.Get(v).ccf_tier == 1) {
      tier_a += venues.Score(v);
      ++na;
    } else if (venues.Get(v).ccf_tier == 3) {
      tier_c += venues.Score(v);
      ++nc;
    }
  }
  EXPECT_GT(tier_a / na, tier_c / nc);
}

TEST(VenueTableTest, ByDomainTierPartitions) {
  VenueTable venues;
  size_t total = 0;
  for (uint32_t d = 0; d < 10; ++d) {
    for (int tier = 1; tier <= 3; ++tier) {
      for (VenueId v : venues.ByDomainTier(d, tier)) {
        EXPECT_EQ(venues.Get(v).domain_index, d);
        EXPECT_EQ(venues.Get(v).ccf_tier, tier);
        ++total;
      }
    }
  }
  EXPECT_EQ(total, venues.size());
}

// --------------------------------------------------------------- Corpus

TEST_F(CorpusFixture, PaperAndSurveyCounts) {
  // 10 domains * (10 classics + 2 areas * (15 + 2 topics * 40)) + surveys.
  size_t expected_regular = 10 * (10 + 2 * (15 + 2 * 40));
  EXPECT_EQ(corpus_->num_papers(), expected_regular + 60);
  EXPECT_EQ(corpus_->surveys.size(), 60u);
  EXPECT_EQ(corpus_->citations.num_nodes(), corpus_->num_papers());
}

TEST_F(CorpusFixture, CitationsPointToOlderPapers) {
  const auto& g = corpus_->citations;
  for (graph::PaperId u = 0; u < g.num_nodes(); ++u) {
    for (graph::PaperId v : g.OutNeighbors(u)) {
      EXPECT_LE(corpus_->papers[v].year, corpus_->papers[u].year)
          << u << " cites younger " << v;
    }
  }
}

TEST_F(CorpusFixture, IdsAreChronological) {
  for (size_t i = 1; i < corpus_->num_papers(); ++i) {
    EXPECT_LE(corpus_->papers[i - 1].year, corpus_->papers[i].year);
  }
}

TEST_F(CorpusFixture, SurveyRecordsConsistent) {
  for (const auto& record : corpus_->surveys) {
    EXPECT_TRUE(corpus_->papers[record.paper].is_survey);
    EXPECT_EQ(record.references.size(), record.occurrence.size());
    EXPECT_GE(record.references.size(), 20u);
    std::unordered_set<graph::PaperId> unique(record.references.begin(),
                                              record.references.end());
    EXPECT_EQ(unique.size(), record.references.size()) << "duplicate refs";
    for (uint32_t occ : record.occurrence) EXPECT_GE(occ, 1u);
    // Every reference is also a citation edge of the survey node.
    auto cited = corpus_->citations.OutNeighbors(record.paper);
    for (graph::PaperId r : record.references) {
      EXPECT_TRUE(std::binary_search(cited.begin(), cited.end(), r));
    }
  }
}

TEST_F(CorpusFixture, SurveyTitlesEmbedTopicPhrase) {
  for (const auto& record : corpus_->surveys) {
    const auto& title = corpus_->papers[record.paper].title;
    const auto& phrase = corpus_->topics.Get(record.topic).phrase;
    EXPECT_NE(title.find(phrase), std::string::npos)
        << title << " / " << phrase;
  }
}

TEST_F(CorpusFixture, TitlesAreNonEmptyAndYearsInRange) {
  CorpusOptions defaults;
  for (const auto& paper : corpus_->papers) {
    EXPECT_FALSE(paper.title.empty());
    EXPECT_FALSE(paper.abstract_text.empty());
    EXPECT_GE(paper.year, defaults.min_year);
    EXPECT_LE(paper.year, defaults.max_year);
    EXPECT_NE(paper.topic, kInvalidTopic);
  }
}

TEST_F(CorpusFixture, VenueDomainsMatchTopicDomains) {
  for (const auto& paper : corpus_->papers) {
    if (paper.venue == kNoVenue) continue;
    EXPECT_EQ(corpus_->venues.Get(paper.venue).domain_index,
              corpus_->topics.Get(paper.topic).domain_index);
  }
}

TEST_F(CorpusFixture, SomeVenuesMissing) {
  size_t missing = 0;
  for (const auto& paper : corpus_->papers) {
    if (paper.venue == kNoVenue) ++missing;
  }
  double fraction =
      static_cast<double>(missing) / static_cast<double>(corpus_->num_papers());
  EXPECT_GT(fraction, 0.5);  // default is 64.2%
  EXPECT_LT(fraction, 0.8);
}

TEST_F(CorpusFixture, SurveyIndexLookup) {
  const auto& record = corpus_->surveys.front();
  EXPECT_EQ(corpus_->SurveyIndexOf(record.paper), 0);
  EXPECT_EQ(corpus_->SurveyIndexOf(graph::kInvalidPaper), -1);
}

TEST(CorpusGeneratorTest, DeterministicForSeed) {
  CorpusOptions options;
  options.hierarchy.areas_per_domain = 1;
  options.hierarchy.topics_per_area = 1;
  options.papers_per_topic = 20;
  options.papers_per_area = 5;
  options.papers_per_domain = 5;
  options.num_surveys = 10;
  options.seed = 99;
  auto a = GenerateCorpus(options).value();
  auto b = GenerateCorpus(options).value();
  ASSERT_EQ(a->num_papers(), b->num_papers());
  EXPECT_EQ(a->citations.num_edges(), b->citations.num_edges());
  for (size_t i = 0; i < a->num_papers(); ++i) {
    EXPECT_EQ(a->papers[i].title, b->papers[i].title);
    EXPECT_EQ(a->papers[i].year, b->papers[i].year);
  }
}

TEST(CorpusGeneratorTest, SeedChangesOutput) {
  CorpusOptions options;
  options.hierarchy.areas_per_domain = 1;
  options.hierarchy.topics_per_area = 1;
  options.papers_per_topic = 20;
  options.papers_per_area = 5;
  options.papers_per_domain = 5;
  options.num_surveys = 10;
  options.seed = 1;
  auto a = GenerateCorpus(options).value();
  options.seed = 2;
  auto b = GenerateCorpus(options).value();
  size_t different_titles = 0;
  for (size_t i = 0; i < a->num_papers() && i < b->num_papers(); ++i) {
    if (a->papers[i].title != b->papers[i].title) ++different_titles;
  }
  EXPECT_GT(different_titles, 0u);
}

TEST(CorpusGeneratorTest, RejectsBadOptions) {
  CorpusOptions options;
  options.papers_per_topic = 0;
  EXPECT_TRUE(GenerateCorpus(options).status().IsInvalidArgument());
  options = CorpusOptions();
  options.min_year = 2030;
  EXPECT_TRUE(GenerateCorpus(options).status().IsInvalidArgument());
}

TEST(CorpusGeneratorTest, TableOneWeightsMatchPaper) {
  const auto& w = TableOneDomainWeights();
  ASSERT_EQ(w.size(), 10u);
  EXPECT_DOUBLE_EQ(w[0], 12.3);  // Artificial Intelligence
  EXPECT_DOUBLE_EQ(w[9], 0.9);   // HCI
}

// ------------------------------------------------------ the scale axis

/// Order-sensitive digest of everything the generator emits: papers
/// (text, year, venue, topic, survey flag), every citation edge, and
/// every survey reference list. Two corpora with equal fingerprints are
/// byte-identical for all downstream purposes.
uint64_t CorpusFingerprint(const Corpus& c) {
  uint64_t h = snapshot::Fnv1a64(nullptr, 0);
  auto mix = [&h](const void* data, size_t size) {
    h = snapshot::Fnv1a64(data, size, h);
  };
  auto mix_str = [&](const std::string& s) { mix(s.data(), s.size()); };
  for (const Paper& p : c.papers) {
    mix_str(p.title);
    mix_str(p.abstract_text);
    mix(&p.year, sizeof(p.year));
    mix(&p.venue, sizeof(p.venue));
    mix(&p.topic, sizeof(p.topic));
    mix(&p.is_survey, sizeof(p.is_survey));
  }
  for (graph::PaperId u = 0; u < c.citations.num_nodes(); ++u) {
    auto out = c.citations.OutNeighbors(u);
    mix(out.data(), out.size() * sizeof(graph::PaperId));
  }
  for (const SurveyRecord& s : c.surveys) {
    mix(&s.paper, sizeof(s.paper));
    mix(s.references.data(),
        s.references.size() * sizeof(graph::PaperId));
    mix(s.occurrence.data(), s.occurrence.size() * sizeof(uint32_t));
  }
  return h;
}

TEST(ScaledCorpusTest, SameSeedSameBytesAtSmallAndLargeScale) {
  for (uint64_t target : {1000ull, 100000ull}) {
    CorpusOptions options = ScaledCorpusOptions(target, 99);
    auto a = GenerateCorpus(options).value();
    auto b = GenerateCorpus(options).value();
    ASSERT_EQ(a->num_papers(), b->num_papers()) << target;
    EXPECT_EQ(CorpusFingerprint(*a), CorpusFingerprint(*b)) << target;
    // And the options derivation itself is deterministic.
    CorpusOptions again = ScaledCorpusOptions(target, 99);
    EXPECT_EQ(options.papers_per_topic, again.papers_per_topic);
    EXPECT_EQ(options.hierarchy.areas_per_domain,
              again.hierarchy.areas_per_domain);
    EXPECT_EQ(options.num_surveys, again.num_surveys);
  }
}

TEST(ScaledCorpusTest, LandsNearTargetAcrossTheSweep) {
  for (uint64_t target : {1000ull, 20000ull, 100000ull}) {
    auto corpus = GenerateCorpus(ScaledCorpusOptions(target, 3)).value();
    const double papers = static_cast<double>(corpus->num_papers());
    EXPECT_GT(papers, 0.85 * static_cast<double>(target)) << target;
    EXPECT_LT(papers, 1.15 * static_cast<double>(target)) << target;
  }
}

TEST(ScaledCorpusTest, LargeScaleDistributionsSane) {
  CorpusOptions options = ScaledCorpusOptions(100000, 12345);
  auto corpus = GenerateCorpus(options).value();
  const size_t n = corpus->num_papers();
  ASSERT_GT(n, 85000u);

  // Year range respected and both halves populated.
  size_t old_half = 0;
  for (const Paper& p : corpus->papers) {
    ASSERT_GE(p.year, options.min_year);
    ASSERT_LE(p.year, options.max_year);
    if (p.year < (options.min_year + options.max_year) / 2) ++old_half;
  }
  EXPECT_GT(old_half, n / 20);
  EXPECT_LT(old_half, n - n / 20);

  // Citation in-degree is heavily skewed (preferential attachment):
  // the most-cited paper sits far above the mean.
  size_t max_indeg = 0;
  for (graph::PaperId p = 0; p < corpus->citations.num_nodes(); ++p) {
    max_indeg = std::max(max_indeg, corpus->citations.InDegree(p));
  }
  const double mean_indeg =
      static_cast<double>(corpus->citations.num_edges()) /
      static_cast<double>(n);
  EXPECT_GT(static_cast<double>(max_indeg), 20.0 * mean_indeg);

  // Venue sparsity tracks the Table I "Uncertain Topics" fraction.
  size_t missing = 0;
  for (const Paper& p : corpus->papers) {
    if (p.venue == kNoVenue) ++missing;
  }
  const double missing_fraction =
      static_cast<double>(missing) / static_cast<double>(n);
  EXPECT_NEAR(missing_fraction, options.missing_venue_fraction, 0.05);

  // Survey allocation adds up.
  EXPECT_EQ(corpus->surveys.size(),
            static_cast<size_t>(options.num_surveys));
}

}  // namespace
}  // namespace rpg::synth
