#ifndef BLOSSOMTREE_SERVICE_QUERY_SERVICE_H_
#define BLOSSOMTREE_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "engine/engine.h"
#include "engine/query_profile.h"
#include "service/admission_queue.h"
#include "service/corpus.h"
#include "service/observer.h"
#include "util/metrics.h"
#include "util/resource_guard.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace blossomtree {
namespace service {

/// \brief A tenant class: the named limits profile sessions inherit and the
/// unit of fair dispatch (DESIGN.md §12). All sessions of one tenant share
/// one admission FIFO; dispatch is round-robin across tenant classes.
struct TenantClass {
  std::string name;
  util::QueryLimits limits;
};

/// \brief One client's handle on the service: identifies the tenant class
/// (for fair dispatch) and carries the per-query QueryLimits every query
/// submitted through it is governed by. Created by
/// QueryService::CreateSession; cheap, and safe to drop while queries
/// submitted through it are still in flight (tickets own everything they
/// need).
class Session {
 public:
  uint64_t id() const { return id_; }
  const std::string& tenant() const { return tenant_; }
  const util::QueryLimits& limits() const { return limits_; }

  /// \brief Per-session override of the inherited tenant limits (takes
  /// effect for queries submitted after the call).
  void set_limits(const util::QueryLimits& limits) { limits_ = limits; }

 private:
  friend class QueryService;
  Session(uint64_t id, std::string tenant, util::QueryLimits limits)
      : id_(id), tenant_(std::move(tenant)), limits_(limits) {}

  uint64_t id_;
  std::string tenant_;
  util::QueryLimits limits_;
};

/// \brief The handle returned by QueryService::Submit: resolves to the
/// query's result once it has run (or been rejected / cancelled / failed).
///
/// A ticket is *always* completed — admission rejection, cancellation,
/// document-not-found, and evaluation errors all surface as a Status
/// through Wait(); nothing is ever dropped silently. Thread-safe.
class QueryTicket {
 public:
  enum class State {
    kQueued,   ///< Admitted, waiting for a slot.
    kRunning,  ///< Evaluating on a pool worker.
    kDone,     ///< Result (or error status) available.
  };

  /// \brief Blocks until the query has completed; returns the serialized
  /// XML result or the terminal error status (kResourceExhausted for
  /// admission rejection or a tripped per-query limit, kCancelled for
  /// cancellation, kNotFound for an unknown document, ...).
  const Result<std::string>& Wait() const;

  State state() const;
  bool done() const { return state() == State::kDone; }

  /// \brief Requests cooperative cancellation: a queued query completes
  /// with kCancelled without running; a running query's engine observes
  /// the token at its next batch boundary (DESIGN.md §9). Safe from any
  /// thread, idempotent, and a no-op once the query is done.
  void Cancel();

  const std::string& query() const { return query_; }
  const std::string& document() const { return document_; }
  const std::string& tenant() const { return tenant_; }

  /// \brief Nanoseconds spent waiting for a slot / end to end. Valid once
  /// done; rejected queries report 0/0.
  uint64_t queue_delay_ns() const;
  uint64_t e2e_ns() const;

  /// \brief The query's per-operator profile (empty unless the service was
  /// built with ServiceOptions::collect_profile). Valid once done.
  const engine::QueryProfile& profile() const { return profile_; }

 private:
  friend class QueryService;
  friend struct QueryTicketTestPeer;  // Mints bare tickets for queue tests.
  QueryTicket(std::string tenant, std::string document, std::string query,
              util::QueryLimits limits)
      : tenant_(std::move(tenant)),
        document_(std::move(document)),
        query_(std::move(query)),
        limits_(limits) {}

  /// Completes the ticket (first completion wins) and wakes waiters.
  void Complete(Result<std::string> result);

  const std::string tenant_;
  const std::string document_;
  const std::string query_;
  const util::QueryLimits limits_;
  /// Resolved at submit time so a concurrent Corpus::Evict cannot strand a
  /// queued query: the ticket co-owns its document.
  std::shared_ptr<const CorpusDocument> doc_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  State state_ = State::kQueued;           ///< Guarded by mu_.
  bool cancel_requested_ = false;          ///< Guarded by mu_.
  engine::BlossomTreeEngine* running_engine_ = nullptr;  ///< Guarded by mu_.
  Result<std::string> result_{std::string{}};  ///< Guarded by mu_ until done.
  engine::QueryProfile profile_;               ///< Written before done.
  std::chrono::steady_clock::time_point submit_time_{};
  uint64_t queue_delay_ns_ = 0;  ///< Written before done.
  uint64_t e2e_ns_ = 0;          ///< Written before done.
};

/// \brief Service-level knobs (DESIGN.md §12).
struct ServiceOptions {
  /// Concurrently running queries — the worker count of the service's
  /// shared execution pool. 0 = hardware concurrency.
  size_t slots = 0;
  /// Bound on *waiting* (admitted but not yet running) queries across all
  /// tenants; a submit past the bound is rejected with kResourceExhausted.
  /// 0 disables waiting entirely: a query either starts immediately or is
  /// rejected.
  size_t max_queue = 64;
  /// Intra-query parallelism for each running query, layered under the
  /// inter-query slots: >1 creates a second shared pool that partitioned
  /// NoK scans of all running queries fan out onto. Kept separate from the
  /// execution pool by construction — a query task blocks in ParallelFor
  /// until its partitions finish, so sharing one pool for both layers
  /// could deadlock with every worker blocked waiting for sub-tasks that
  /// can no longer be scheduled.
  unsigned intra_query_threads = 1;
  /// Attach each query's per-operator QueryProfile to its ticket.
  bool collect_profile = false;
  /// Record service.* counters, queue-delay and latency histograms, and
  /// per-query trace spans (spans only land when util::Tracer is enabled).
  bool collect_metrics = true;
  /// The observability plane (DESIGN.md §15): query flight recorder, slow
  /// log, per-tenant labeled metrics, windowed snapshots. On by default —
  /// recording is once-per-completion, off the evaluation path.
  ObserverOptions observer;
};

/// \brief The concurrent query service (DESIGN.md §12): runs sessions'
/// queries over a shared Corpus on one shared execution pool, with
/// admission control (bounded queue, fair FIFO-per-tenant dispatch,
/// kResourceExhausted rejection) and cooperative cancellation of queued
/// and running queries.
///
/// Every admitted query evaluates on a fresh, per-query
/// engine::BlossomTreeEngine wired to the corpus-wide plan / NoK result
/// caches, so its result is byte-identical to what a standalone serial
/// engine over the same document returns — concurrency and caching change
/// latency, never results (the ServiceDeterminism tests pin this).
class QueryService {
 public:
  QueryService(Corpus* corpus, ServiceOptions options = {});

  /// \brief Cancels queued queries, waits for running ones to finish
  /// cooperatively, then joins the pools.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// \brief Defines (or redefines) a tenant class. Sessions created
  /// afterwards inherit its limits.
  void DefineTenant(const std::string& name, const util::QueryLimits& limits);

  /// \brief Creates a session of `tenant`. An undefined tenant name gets
  /// default (unlimited) QueryLimits and still dispatches fairly under its
  /// own name.
  std::shared_ptr<Session> CreateSession(const std::string& tenant);

  /// \brief Submits `query` against corpus document `document`. Never
  /// returns null: admission rejection (queue full, unknown document,
  /// shutdown) yields an already-completed ticket carrying the error.
  std::shared_ptr<QueryTicket> Submit(const Session& session,
                                      const std::string& document,
                                      std::string query);

  /// \brief Submit + Wait.
  Result<std::string> Execute(const Session& session,
                              const std::string& document, std::string query);

  /// \brief Waits until every ticket submitted so far has completed.
  void Drain();

  size_t slots() const { return pool_->NumThreads(); }
  Corpus* corpus() const { return corpus_; }

  /// \brief service.* counters and histograms: service.admitted /
  /// rejected / completed / cancelled / failed counters,
  /// service.queue_delay_ns / service.run_ns / service.e2e_ns histograms.
  util::MetricsRegistry& metrics() { return metrics_; }
  const util::MetricsRegistry& metrics() const { return metrics_; }

  /// \brief The observability plane (DESIGN.md §15). Never null; a no-op
  /// recorder when ObserverOptions::enabled is false.
  ServiceObserver* observer() { return observer_.get(); }
  const ServiceObserver* observer() const { return observer_.get(); }

  /// \brief Renders every observability surface at once (DESIGN.md §15):
  /// the Prometheus text exposition (registry series + sampled gauges),
  /// the flight-recorder and slow-log JSON dumps, the per-tenant /
  /// per-fingerprint rollup text, and the windowed snapshots. Safe to call
  /// while traffic is running.
  service::ObservabilityReport ObservabilityReport() const;

  /// \brief Point-in-time resource gauges — admission-queue occupancy,
  /// running/in-flight counts, corpus cache and DiskStore residency, guard
  /// trips. This is the sampler the observer's windows and exposition use.
  std::map<std::string, uint64_t> ResourceGauges() const;

 private:
  /// Completes `ticket` as rejected/failed before admission (counts it,
  /// no dispatch).
  std::shared_ptr<QueryTicket> Reject(std::shared_ptr<QueryTicket> ticket,
                                      Status status);

  /// The flight-recorder summary of `ticket`'s terminal outcome, with a
  /// fresh recorder id: identity, status and end-to-end time.
  QuerySummary Summarize(const QueryTicket& ticket, StatusCode code,
                         bool admitted, uint64_t e2e_ns);

  /// Starts queued queries while slots are free (mu_ held).
  void DispatchLocked();

  /// Pool task: evaluates one admitted query end to end.
  void RunQuery(const std::shared_ptr<QueryTicket>& ticket);

  Corpus* corpus_;
  ServiceOptions options_;
  util::MetricsRegistry metrics_;
  /// Declared after metrics_ (it records into the registry) and before the
  /// pools (running queries record completions until the pools join).
  std::unique_ptr<ServiceObserver> observer_;
  /// Queries whose per-query resource guard tripped while running
  /// (kResourceExhausted after admission) — exposed as a gauge.
  std::atomic<uint64_t> guard_trips_{0};
  /// Shared second-layer pool for intra-query parallelism (see
  /// ServiceOptions::intra_query_threads); null when queries run serially.
  std::unique_ptr<util::ThreadPool> intra_pool_;
  /// The shared execution pool: one worker per slot, one task per running
  /// query. Declared after intra_pool_ so shutdown joins query tasks while
  /// their intra-query pool is still alive.
  std::unique_ptr<util::ThreadPool> pool_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  ///< Signalled when in_flight_ drops.
  AdmissionQueue queue_;             ///< Guarded by mu_.
  size_t running_ = 0;               ///< Dispatched, not yet finished.
  size_t in_flight_ = 0;             ///< Queued + running (for Drain).
  bool stopping_ = false;
  uint64_t next_session_id_ = 1;
  std::map<std::string, TenantClass> tenants_;  ///< Guarded by mu_.
};

}  // namespace service
}  // namespace blossomtree

#endif  // BLOSSOMTREE_SERVICE_QUERY_SERVICE_H_
