#ifndef RPG_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define RPG_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include "eval/workbench.h"
#include "serve/epoch.h"

namespace rpg::serve {

/// Process-wide small workbench shared by every serve suite (built once,
/// intentionally leaked — the corpus build dominates test time).
inline const eval::Workbench& SharedWorkbench() {
  static const eval::Workbench* wb = [] {
    eval::WorkbenchOptions options;
    options.corpus.hierarchy.areas_per_domain = 2;
    options.corpus.hierarchy.topics_per_area = 2;
    options.corpus.papers_per_topic = 50;
    options.corpus.papers_per_area = 15;
    options.corpus.papers_per_domain = 10;
    options.corpus.num_surveys = 40;
    options.corpus.seed = 55;
    return eval::Workbench::Create(options).value().release();
  }();
  return *wb;
}

/// A serving epoch over `substrate` (an eval::Workbench or a
/// snapshot::ServingState), which the caller keeps alive for the epoch's
/// lifetime: the epoch holds no owner. Every suite that stands up a
/// ServeEngine over an in-process substrate builds its epoch here.
template <typename Substrate>
EpochHandle TestEpoch(const Substrate& substrate) {
  return Epoch::Create(&substrate.repager(), &substrate.titles(),
                       &substrate.years(), nullptr,
                       {.id = 1, .source = "in-process"});
}

}  // namespace rpg::serve

#endif  // RPG_TESTS_SERVE_SERVE_TEST_UTIL_H_
