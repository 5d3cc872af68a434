#include "core/solver_pool.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/timer.h"

namespace rpg::core {

namespace {
/// EWMA smoothing for per-solve service time: ~0.2 weights the last
/// dozen-ish solves, enough to track load shifts without flapping the
/// Retry-After hint on every outlier query.
constexpr double kEwmaAlpha = 0.2;

/// Solves one query on its own substrate handle, on the calling solver
/// thread with its scratch. With a trace attached, records the `solve`
/// span, splices the pipeline's stage spans onto it and attaches the
/// NEWST counters.
Result<RePagerResult> SolveQuery(const BatchQuery& query,
                                 QueryScratch* scratch) {
  // The solver is the only thread touching the query's trace during the
  // solve: the query was handed over through the pool's mutex, which
  // orders the submitter's earlier span writes before ours.
  obs::TraceContext* trace = query.trace.get();
  uint64_t solve_start = trace ? trace->NowNs() : 0;
  // Epoch pinning: holding `query.repager` keeps that epoch's whole
  // substrate alive for the duration of the solve.
  Result<RePagerResult> r =
      query.repager->Generate(query.query, query.options, scratch);
  if (trace) {
    trace->AddSpan(obs::Stage::kSolve, solve_start,
                   trace->NowNs() - solve_start, r.ok() ? 1 : 0);
    if (r.ok()) {
      // The pipeline spans are clocked from Generate's own start;
      // rebasing them onto the solve span's start lines the whole
      // request trace up on one axis.
      trace->AppendRebased(r->stages, solve_start);
      trace->AttachSteinerStats(r->steiner_stats);
    }
  }
  return r;
}
}  // namespace

size_t ResolveThreadCount(int requested) {
  if (requested > 0) return static_cast<size_t>(requested);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

SolverPool::SolverPool(size_t num_solvers, SolverPoolOptions options,
                       std::function<void(double)> on_solve)
    : options_(options), on_solve_(std::move(on_solve)) {
  num_solvers = std::max<size_t>(num_solvers, 1);
  solvers_.reserve(num_solvers);
  for (size_t i = 0; i < num_solvers; ++i) {
    solvers_.emplace_back([this] { SolverLoop(); });
  }
}

SolverPool::~SolverPool() { Shutdown(); }

void SolverPool::SubmitAsync(BatchQuery query, Callback callback) {
  if (query.repager == nullptr) {
    callback(Status::FailedPrecondition(
        "no RePaGer: the query carries no substrate handle"));
    return;
  }
  Pending p;
  p.query = std::move(query);
  p.callback = std::move(callback);
  p.enqueued = std::chrono::steady_clock::now();
  Status rejected = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      rejected = Status::FailedPrecondition("SolverPool is shut down");
    } else if (options_.max_queue_depth > 0 &&
               pending_.size() >= options_.max_queue_depth) {
      // Overload shed: beyond this point queueing only grows latency
      // for everyone; better to fail fast and let the client retry.
      // The Retry-After hint is the measured time to drain what is
      // already queued, so well-behaved clients come back when a slot
      // is actually likely to exist.
      ++stats_.rejected_overload;
      rejected = Status::Unavailable(
                     "solver queue full (" +
                     std::to_string(options_.max_queue_depth) + " waiting)")
                     .WithRetryAfter(RetryAfterSecondsLocked());
    } else {
      pending_.push_back(std::move(p));
      ++stats_.requests;
      cv_.notify_one();
      return;
    }
  }
  // Rejected: complete inline on the caller (never under mu_).
  p.callback(std::move(rejected));
}

void SolverPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& solver : solvers_) {
    if (solver.joinable()) solver.join();
  }
}

SolverPoolStats SolverPool::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SolverPoolStats stats = stats_;
  stats.queue_depth = pending_.size();
  stats.ewma_item_seconds = ewma_item_seconds_;
  return stats;
}

int SolverPool::RetryAfterSecondsLocked() const {
  const double drain = ewma_item_seconds_ *
                       static_cast<double>(pending_.size()) /
                       static_cast<double>(solvers_.size());
  return static_cast<int>(std::clamp(std::ceil(drain), 1.0, 30.0));
}

void SolverPool::SolverLoop() {
  QueryScratch scratch;
  for (;;) {
    Pending next;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !pending_.empty() || shutdown_; });
      // Shutdown drains: solvers exit only once the queue is empty.
      if (pending_.empty()) return;
      next = std::move(pending_.front());
      pending_.pop_front();
      ++stats_.batches;
    }

    // Queue-time span: enqueue (any submitter thread) -> dispatch (this
    // solver); the handoff through mu_ orders the submitter's earlier
    // trace writes before ours.
    if (next.query.trace) {
      next.query.trace->AddSpanBetween(obs::Stage::kBatchQueue, next.enqueued,
                                       std::chrono::steady_clock::now());
    }
    Timer solve;
    Result<RePagerResult> result = SolveQuery(next.query, &scratch);
    const double seconds = solve.ElapsedSeconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ewma_item_seconds_ = ewma_item_seconds_ == 0
                               ? seconds
                               : kEwmaAlpha * seconds +
                                     (1 - kEwmaAlpha) * ewma_item_seconds_;
    }
    if (on_solve_) on_solve_(seconds);
    next.callback(std::move(result));
  }
}

}  // namespace rpg::core
