#include "rank/weight_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rpg::rank {

namespace {

/// Stamp-worthiness threshold: below this combined degree the O(degree)
/// stamp/unstamp churn costs more than the adaptive kernels save. 64 ids
/// is one bitmap word's worth per list on average and matches the
/// kernels' block size; bench/bench_intersect.cpp covers both regimes.
constexpr size_t kBitmapMinDegree = 64;

}  // namespace

void ConScratch::SetSource(const graph::CitationGraph& g, graph::PaperId i) {
  if (g_ == &g && source_ == i) return;
  Release();
  g_ = &g;
  source_ = i;
  auto out = g.OutNeighbors(i);
  auto in = g.InNeighbors(i);
  if (out.size() + in.size() >= kBitmapMinDegree) {
    out_bits_.EnsureUniverse(g.num_nodes());
    in_bits_.EnsureUniverse(g.num_nodes());
    out_bits_.Stamp(out);
    in_bits_.Stamp(in);
    stamped_ = true;
  }
}

void ConScratch::Release() {
  if (stamped_) {
    // O(degree) unstamp of the current source — never a full clear.
    out_bits_.Unstamp(g_->OutNeighbors(source_));
    in_bits_.Unstamp(g_->InNeighbors(source_));
    stamped_ = false;
  }
  g_ = nullptr;
  source_ = kNoSource;
}

WeightModel::WeightModel(const graph::CitationGraph* g,
                         std::vector<double> pagerank_norm,
                         std::vector<double> venue_scores,
                         const NewstParams& params)
    : g_(g),
      pagerank_norm_(std::move(pagerank_norm)),
      venue_scores_(std::move(venue_scores)),
      params_(params) {
  RPG_CHECK(g_ != nullptr);
  RPG_CHECK(pagerank_norm_.size() == g_->num_nodes());
  RPG_CHECK(venue_scores_.size() == g_->num_nodes());
}

double WeightModel::NodeWeight(graph::PaperId i) const {
  double denom =
      params_.a * pagerank_norm_[i] + params_.b * venue_scores_[i];
  denom = std::max(denom, kDenomFloor);
  return params_.gamma / denom;
}

int WeightModel::Con(graph::PaperId i, graph::PaperId j) const {
  // 1 for the citation relation itself + bibliographic coupling (shared
  // references) + co-citation (shared citers); see the header for the
  // exact two-phase cap contract.
  int common = static_cast<int>(intersect::CountCommon(
      g_->OutNeighbors(i), g_->OutNeighbors(j),
      static_cast<size_t>(kConCap)));
  if (common < kConCap) {
    common += static_cast<int>(intersect::CountCommon(
        g_->InNeighbors(i), g_->InNeighbors(j),
        static_cast<size_t>(kConCap - common)));
  }
  return 1 + std::min(common, kConCap - 1);
}

int WeightModel::Con(graph::PaperId i, graph::PaperId j,
                     ConScratch* scratch) const {
  if (scratch == nullptr) return Con(i, j);
  scratch->SetSource(*g_, i);
  if (!scratch->stamped_) return Con(i, j);
  int common = static_cast<int>(scratch->out_bits_.CountCommon(
      g_->OutNeighbors(j), static_cast<size_t>(kConCap)));
  if (common < kConCap) {
    common += static_cast<int>(scratch->in_bits_.CountCommon(
        g_->InNeighbors(j), static_cast<size_t>(kConCap - common)));
  }
  return 1 + std::min(common, kConCap - 1);
}

double WeightModel::EdgeCost(graph::PaperId i, graph::PaperId j) const {
  double con = static_cast<double>(Con(i, j));
  return params_.alpha / std::pow(con, params_.beta);
}

double WeightModel::EdgeCost(graph::PaperId i, graph::PaperId j,
                             ConScratch* scratch) const {
  double con = static_cast<double>(Con(i, j, scratch));
  return params_.alpha / std::pow(con, params_.beta);
}

double WeightModel::MaxNodeWeight() const { return params_.gamma / kDenomFloor; }

}  // namespace rpg::rank
