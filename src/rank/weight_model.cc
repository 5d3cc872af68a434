#include "rank/weight_model.h"

#include <algorithm>
#include <cmath>

#include "common/intersect.h"
#include "common/logging.h"

namespace rpg::rank {

namespace {

/// Con of every out-CSR edge of `g`, in CSR order.
std::vector<uint8_t> CountEdgeCon(const graph::CitationGraph& g) {
  std::vector<uint8_t> con;
  con.reserve(g.num_edges());
  for (graph::PaperId u = 0; u < g.num_nodes(); ++u) {
    for (graph::PaperId v : g.OutNeighbors(u)) {
      con.push_back(static_cast<uint8_t>(CountCon(g, u, v)));
    }
  }
  return con;
}

}  // namespace

int CountCon(const graph::CitationGraph& g, graph::PaperId i,
             graph::PaperId j) {
  constexpr int kCap = WeightModel::kConCap;
  // 1 for the citation relation itself + bibliographic coupling (shared
  // references) + co-citation (shared citers); see WeightModel::Con for
  // the exact two-phase cap contract.
  int common = static_cast<int>(intersect::CountCommon(
      g.OutNeighbors(i), g.OutNeighbors(j), static_cast<size_t>(kCap)));
  if (common < kCap) {
    common += static_cast<int>(intersect::CountCommon(
        g.InNeighbors(i), g.InNeighbors(j),
        static_cast<size_t>(kCap - common)));
  }
  return 1 + std::min(common, kCap - 1);
}

WeightModel::WeightModel(const graph::CitationGraph* g,
                         const std::vector<double>& pagerank_norm,
                         const std::vector<double>& venue_scores,
                         const NewstParams& params)
    : WeightModel(g, pagerank_norm, venue_scores,
                  CountEdgeCon(*g), params) {}

WeightModel::WeightModel(const graph::CitationGraph* g,
                         const std::vector<double>& pagerank_norm,
                         const std::vector<double>& venue_scores,
                         std::vector<uint8_t> edge_con,
                         const NewstParams& params)
    : g_(g), params_(params), edge_con_(std::move(edge_con)) {
  RPG_CHECK(g_ != nullptr);
  RPG_CHECK(pagerank_norm.size() == g_->num_nodes());
  RPG_CHECK(venue_scores.size() == g_->num_nodes());
  RPG_CHECK(edge_con_.size() == g_->num_edges());
  node_weights_.reserve(g_->num_nodes());
  for (size_t i = 0; i < g_->num_nodes(); ++i) {
    const double denom =
        params_.a * pagerank_norm[i] + params_.b * venue_scores[i];
    node_weights_.push_back(params_.gamma / std::max(denom, kDenomFloor));
  }
  cost_of_con_.resize(kConCap + 1);
  for (int con = 1; con <= kConCap; ++con) {
    cost_of_con_[con] =
        params_.alpha / std::pow(static_cast<double>(con), params_.beta);
  }
}

int WeightModel::Con(graph::PaperId i, graph::PaperId j) const {
  return CountCon(*g_, i, j);
}

double WeightModel::EdgeCost(graph::PaperId i, graph::PaperId j) const {
  return cost_of_con_[Con(i, j)];
}

double WeightModel::MaxNodeWeight() const { return params_.gamma / kDenomFloor; }

}  // namespace rpg::rank
