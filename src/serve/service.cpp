#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "fault/fault.hpp"
#include "prng/seed_seq.hpp"
#include "state/sections.hpp"
#include "state/snapshot.hpp"
#include "util/check.hpp"

namespace hprng::serve {

namespace {

double seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
}

void sleep_seconds(double s) {
  if (s <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// SeedSequence split index of the lease seed domain — distinct from the
/// shard-backend domains (which use split(shard_index), small integers).
constexpr std::uint64_t kLeaseSeedDomain = ~std::uint64_t{0};

/// SeedSequence split index of the retry-jitter stream (distinct from the
/// lease and shard domains above).
constexpr std::uint64_t kBackoffJitterDomain = ~std::uint64_t{0} - 1;

/// Monotonic nanoseconds for the tenant admission clock (token-bucket
/// refill timestamps; docs/QOS.md §3).
std::int64_t to_ns(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

namespace detail {

SessionState::~SessionState() {
  if (service != nullptr) service->release_lease(lease);
}

}  // namespace detail

RngService::RngService(ServiceOptions opts, obs::MetricsRegistry* metrics)
    : opts_(std::move(opts)),
      metrics_(metrics),
      tenants_(opts_.tenants),
      leases_(opts_.num_shards, opts_.max_leases_per_shard,
              prng::SeedSequence(opts_.seed).split(kLeaseSeedDomain).root()),
      backoff_seq_(
          prng::SeedSequence(opts_.seed).split(kBackoffJitterDomain).root()),
      queue_(
          opts_.queue_capacity, &paused_,
          [](const RequestPtr& r) { return r->tenant; },
          [](const RequestPtr& r) {
            return static_cast<std::uint64_t>(r->out.size());
          },
          // Weights come from the live table (not the construction-time
          // options) so a TENQ restore's policies drive scheduling too.
          [this](std::uint64_t tenant) { return tenants_.weight(tenant); },
          opts_.tenants.drr_quantum_words) {
  HPRNG_CHECK(opts_.queue_capacity > 0, "RngService: queue_capacity >= 1");
  HPRNG_CHECK(opts_.max_coalesce > 0, "RngService: max_coalesce >= 1");
  HPRNG_CHECK(opts_.max_fill_retries >= 0,
              "RngService: max_fill_retries >= 0");
  HPRNG_CHECK(opts_.shard_eject_failures >= 1,
              "RngService: shard_eject_failures >= 1");

  if (metrics_ != nullptr) {
    // Resolve the whole hprng.serve.* catalogue up front so a snapshot is
    // complete (every documented instrument present) even at zero traffic.
    ins_.requests_submitted =
        &metrics_->counter("hprng.serve.requests_submitted");
    ins_.requests_completed =
        &metrics_->counter("hprng.serve.requests_completed");
    ins_.requests_rejected =
        &metrics_->counter("hprng.serve.requests_rejected");
    ins_.requests_shed = &metrics_->counter("hprng.serve.requests_shed");
    ins_.requests_timed_out =
        &metrics_->counter("hprng.serve.requests_timed_out");
    ins_.numbers_served = &metrics_->counter("hprng.serve.numbers_served");
    ins_.batches = &metrics_->counter("hprng.serve.batches");
    ins_.leases_granted = &metrics_->counter("hprng.serve.leases_granted");
    ins_.leases_released = &metrics_->counter("hprng.serve.leases_released");
    ins_.queue_depth = &metrics_->gauge("hprng.serve.queue_depth");
    ins_.active_leases = &metrics_->gauge("hprng.serve.active_leases");
    ins_.batch_requests = &metrics_->histogram("hprng.serve.batch_requests");
    ins_.request_latency_seconds =
        &metrics_->histogram("hprng.serve.request_latency_seconds");
    ins_.queue_wait_seconds =
        &metrics_->histogram("hprng.serve.queue_wait_seconds");
    ins_.fill_sim_seconds =
        &metrics_->histogram("hprng.serve.fill_sim_seconds");
    ins_.fill_wall_seconds =
        &metrics_->histogram("hprng.serve.fill_wall_seconds");
    ins_.requests_failed = &metrics_->counter("hprng.serve.requests_failed");
    ins_.retry_attempts = &metrics_->counter("hprng.serve.retry.attempts");
    ins_.retry_backoff_seconds =
        &metrics_->counter("hprng.serve.retry.backoff_seconds");
    ins_.retry_failovers = &metrics_->counter("hprng.serve.retry.failovers");
    ins_.shards_ejected = &metrics_->counter("hprng.serve.shards_ejected");
    ins_.shards_healthy = &metrics_->gauge("hprng.serve.shards_healthy");
    ins_.shards_healthy->set(static_cast<double>(opts_.num_shards));
    // hprng.serve.backend.* — backend slot churn plus the counter-family
    // instruments (docs/BACKENDS.md §6). The counter_* pair is resolved
    // here too — not only by CounterShard::set_metrics — so the catalogue
    // is identical whichever backend the pool runs.
    ins_.backend_attaches =
        &metrics_->counter("hprng.serve.backend.attaches");
    ins_.backend_detaches =
        &metrics_->counter("hprng.serve.backend.detaches");
    metrics_->counter("hprng.serve.backend.counter_blocks");
    metrics_->counter("hprng.serve.backend.counter_jumps");
    // hprng.serve.tenant.* — multi-tenant QoS (docs/QOS.md §7).
    ins_.tenant_rejected_rate =
        &metrics_->counter("hprng.serve.tenant.rejected_rate");
    ins_.tenant_rejected_quota =
        &metrics_->counter("hprng.serve.tenant.rejected_quota");
    ins_.tenant_quota_words_charged =
        &metrics_->counter("hprng.serve.tenant.quota_words_charged");
    ins_.tenant_quota_words_refunded =
        &metrics_->counter("hprng.serve.tenant.quota_words_refunded");
    ins_.tenant_drr_rounds =
        &metrics_->counter("hprng.serve.tenant.drr_rounds");
    ins_.tenant_active = &metrics_->gauge("hprng.serve.tenant.active");
    // Incremented under the queue lock, once per scheduler visit.
    queue_.set_round_listener([this] { ins_.tenant_drr_rounds->add(); });
    // hprng.state.* — checkpoint/restore (docs/STATE.md).
    ins_.state_checkpoints = &metrics_->counter("hprng.state.checkpoints");
    ins_.state_checkpoint_failures =
        &metrics_->counter("hprng.state.checkpoint_failures");
    ins_.state_checkpoint_bytes =
        &metrics_->counter("hprng.state.checkpoint_bytes");
    ins_.state_restores = &metrics_->counter("hprng.state.restores");
    ins_.state_restore_failures =
        &metrics_->counter("hprng.state.restore_failures");
    ins_.state_checkpoint_seconds =
        &metrics_->histogram("hprng.state.checkpoint_seconds");
    // The fault catalogue rides along even when no injector is attached,
    // so snapshots are complete for any instrumented service.
    fault::register_catalogue(*metrics_);
    // Updated under the queue lock, so the gauge is exactly size() at any
    // quiescent fence (the property the accounting tests assert).
    queue_.set_size_listener([this](std::size_t n) {
      ins_.queue_depth->set(static_cast<double>(n));
    });
  }

  health_ = std::make_unique<ShardHealth[]>(
      static_cast<std::size_t>(opts_.num_shards));
  turns_ = std::make_unique<ShardTurn[]>(
      static_cast<std::size_t>(opts_.num_shards));
  if (opts_.injector != nullptr && metrics_ != nullptr) {
    opts_.injector->set_metrics(metrics_);
  }
  shards_.reserve(static_cast<std::size_t>(opts_.num_shards));
  for (int s = 0; s < opts_.num_shards; ++s) {
    shards_.push_back(make_shard_backend(opts_, s));
    if (opts_.injector != nullptr) {
      shards_.back()->set_fault_injector(opts_.injector, s);
    }
    if (metrics_ != nullptr) {
      // Shards share the service registry, so the backend-pipeline
      // instruments (hprng.core/sim/host for hybrid) aggregate pool-wide.
      shards_.back()->set_metrics(metrics_);
    }
  }

  const int workers = std::max(1, opts_.num_workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

RngService::~RngService() {
  stopping_.store(true, std::memory_order_release);
  // Stopping overrides pause: workers must drain the backlog to exit.
  paused_.store(false, std::memory_order_release);
  queue_.close();
  for (std::thread& t : workers_) t.join();
}

std::optional<Session> RngService::try_open_session() {
  return try_open_session(SessionSpec{});
}

std::optional<Session> RngService::try_open_session(std::uint64_t shard_key) {
  SessionSpec spec;
  spec.shard_key = shard_key;
  return try_open_session(spec);
}

std::optional<Session> RngService::try_open_session(const SessionSpec& spec) {
  if (spec.shard_key.has_value()) {
    const int s = static_cast<int>(
        *spec.shard_key % static_cast<std::uint64_t>(num_shards()));
    if (shard_ejected(s)) return std::nullopt;  // pinned shard is gone
    return open_with(leases_.grant_on(*spec.shard_key), spec.tenant,
                     spec.priority);
  }
  return open_with(
      leases_.grant_if([this](int s) { return !shard_ejected(s); }),
      spec.tenant, spec.priority);
}

Session RngService::open_session() {
  std::optional<Session> session = try_open_session();
  HPRNG_CHECK(session.has_value(),
              "RngService::open_session: lease pool exhausted");
  return *std::move(session);
}

std::optional<Session> RngService::open_with(std::optional<Lease> lease,
                                             std::uint64_t tenant,
                                             int priority) {
  if (!lease.has_value()) return std::nullopt;
  {
    ShardBackend& shard = *shards_[static_cast<std::size_t>(lease->shard)];
    std::lock_guard<std::mutex> lk(shard.mu);
    shard.attach(lease->slot, lease->seed);
  }
  tenants_.add_lease(tenant, lease->id);
  if (ins_.leases_granted != nullptr) {
    ins_.leases_granted->add();
    ins_.backend_attaches->add();
    ins_.active_leases->set(static_cast<double>(leases_.active()));
    ins_.tenant_active->set(static_cast<double>(tenants_.active()));
  }
  {
    std::lock_guard<std::mutex> lk(live_mu_);
    live_leases_[lease->id] = *lease;
  }
  auto state = std::make_shared<detail::SessionState>();
  state->service = this;
  state->lease = *lease;
  state->tenant = tenant;
  state->priority.store(priority, std::memory_order_relaxed);
  return Session(std::move(state));
}

void RngService::release_lease(const Lease& lease) {
  {
    ShardBackend& shard = *shards_[static_cast<std::size_t>(lease.shard)];
    std::lock_guard<std::mutex> lk(shard.mu);
    shard.detach(lease.slot);
  }
  tenants_.remove_lease(tenants_.tenant_of_lease(lease.id), lease.id);
  leases_.release(lease);
  {
    std::lock_guard<std::mutex> lk(live_mu_);
    live_leases_.erase(lease.id);
    adoptable_.erase(lease.id);
  }
  if (ins_.leases_released != nullptr) {
    ins_.leases_released->add();
    ins_.backend_detaches->add();
    ins_.active_leases->set(static_cast<double>(leases_.active()));
  }
}

RngService::RequestPtr RngService::submit(
    const std::shared_ptr<detail::SessionState>& session,
    std::span<std::uint64_t> out, std::chrono::nanoseconds timeout,
    std::function<void(Status)> on_settle) {
  auto req = std::make_shared<detail::Request>();
  req->session = session;
  req->out = out;
  req->on_settle = std::move(on_settle);
  // One clock read per request: submit time, deadline and the shed-policy
  // expiry sweep below all derive from this single sample, so admission
  // decisions are stable however long the intervening code takes to run
  // (e.g. under TSan).
  req->submit_time = std::chrono::steady_clock::now();
  req->deadline =
      req->submit_time + (timeout.count() > 0 ? timeout : opts_.default_timeout);
  req->priority = session->priority.load(std::memory_order_relaxed);
  req->tenant = session->tenant;
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (ins_.requests_submitted != nullptr) ins_.requests_submitted->add();

  if (stopping_.load(std::memory_order_acquire)) {
    settle(req, Status::kClosed);
    return req;
  }
  if (out.empty()) {  // trivially served; skip the queue
    settle(req, Status::kOk);
    return req;
  }

  // Tenant QoS admission (docs/QOS.md §3): the rate gate and the quota
  // charge run BEFORE the queue — an over-limit tenant is refused without
  // ever occupying queue capacity. The charge uses the same clock sample
  // as the deadline, so bucket refill is a pure function of the trace.
  switch (tenants_.admit(req->tenant, out.size(),
                         to_ns(req->submit_time))) {
    case Admission::kAdmit:
      req->quota_charged = true;
      if (ins_.tenant_quota_words_charged != nullptr) {
        ins_.tenant_quota_words_charged->add(
            static_cast<double>(out.size()));
        ins_.tenant_active->set(static_cast<double>(tenants_.active()));
      }
      break;
    case Admission::kRejectedRate:
      if (ins_.tenant_rejected_rate != nullptr) {
        ins_.tenant_rejected_rate->add();
        ins_.tenant_active->set(static_cast<double>(tenants_.active()));
      }
      settle(req, Status::kRejectedQuota);
      return req;
    case Admission::kRejectedQuota:
      if (ins_.tenant_rejected_quota != nullptr) {
        ins_.tenant_rejected_quota->add();
        ins_.tenant_active->set(static_cast<double>(tenants_.active()));
      }
      settle(req, Status::kRejectedQuota);
      return req;
  }

  using PushResult = DrrQueue<RequestPtr>::PushResult;
  PushResult result = PushResult::kFull;
  switch (opts_.policy) {
    case BackpressurePolicy::kBlock:
      result = queue_.push_until(req, req->deadline);
      break;
    case BackpressurePolicy::kReject:
      result = queue_.try_push(req);
      break;
    case BackpressurePolicy::kShed: {
      result = queue_.try_push(req);
      if (result == PushResult::kFull) {
        // Evict already-expired queued requests to make room (the clock
        // sample from above — no re-read).
        const auto now = req->submit_time;
        std::vector<RequestPtr> evicted = queue_.evict_if(
            [now](const RequestPtr& r) { return now >= r->deadline; });
        for (RequestPtr& victim : evicted) abandon(victim, Status::kShed);
        result = queue_.try_push(req);
      }
      if (result == PushResult::kFull) {
        // Graceful degradation: a strictly higher-priority arrival may
        // displace the lowest-priority queued request (docs/SERVING.md §7).
        std::optional<RequestPtr> victim = queue_.evict_min_below(
            [](const RequestPtr& r) { return r->priority; }, req->priority);
        if (victim.has_value()) {
          abandon(*victim, Status::kShed);
          result = queue_.try_push(req);
        }
      }
      break;
    }
  }

  switch (result) {
    case PushResult::kOk:
      break;  // queued; a worker (or timeout) will settle it
    case PushResult::kFull:
      settle(req, Status::kRejected);
      break;
    case PushResult::kTimeout:
      settle(req, Status::kTimeout);
      break;
    case PushResult::kClosed:
      settle(req, Status::kClosed);
      break;
  }
  return req;
}

Status RngService::wait(const RequestPtr& req) {
  std::unique_lock<std::mutex> lk(req->mu);
  if (!req->cv.wait_until(lk, req->deadline, [&] { return req->done; })) {
    // Deadline passed while still queued: abandon the request so no worker
    // ever touches `out` (whose storage the caller may now reclaim). If a
    // worker claimed it first, it is being served right now — wait it out.
    lk.unlock();
    abandon(req, Status::kTimeout);
    lk.lock();
    req->cv.wait(lk, [&] { return req->done; });
  }
  return req->status;
}

void RngService::abandon(const RequestPtr& req, Status status) {
  int expected = detail::Request::kPending;
  if (req->phase.compare_exchange_strong(expected, detail::Request::kAbandoned,
                                         std::memory_order_acq_rel)) {
    req->session->service->settle(req, status);
  }
}

void RngService::settle(const RequestPtr& req, Status status) {
  std::unique_lock<std::mutex> lk(req->mu);
  if (req->done) return;  // exactly-once terminal transition
  req->status = status;

  // Quota conservation (docs/QOS.md §4): any charged request that fails
  // to serve its words returns them, exactly once (the `done` guard above
  // makes this the unique terminal transition). kOk keeps the charge —
  // at a quiescent fence quota_used equals words actually served.
  if (status != Status::kOk && req->quota_charged) {
    const auto words = static_cast<std::uint64_t>(req->out.size());
    tenants_.refund(req->tenant, words);
    if (ins_.tenant_quota_words_refunded != nullptr) {
      ins_.tenant_quota_words_refunded->add(static_cast<double>(words));
    }
  }

  // Account BEFORE publishing `done`: a waiter returning from fill() must
  // observe the terminal status already reflected in stats()/metrics.
  switch (status) {
    case Status::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (ins_.requests_completed != nullptr) {
        ins_.requests_completed->add();
        ins_.request_latency_seconds->observe(
            seconds(std::chrono::steady_clock::now() - req->submit_time));
      }
      break;
    case Status::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      if (ins_.requests_rejected != nullptr) ins_.requests_rejected->add();
      break;
    case Status::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      if (ins_.requests_shed != nullptr) ins_.requests_shed->add();
      break;
    case Status::kTimeout:
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      if (ins_.requests_timed_out != nullptr) ins_.requests_timed_out->add();
      break;
    case Status::kClosed:
      closed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Status::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      if (ins_.requests_failed != nullptr) ins_.requests_failed->add();
      break;
    case Status::kRejectedQuota:
      // The per-cause tenant instruments were counted at the admission
      // site (where rate vs. quota is known); this is the engine total.
      rejected_quota_.fetch_add(1, std::memory_order_relaxed);
      break;
  }

  // Before `done` too: a return from wait() means the callback has run.
  if (req->on_settle) req->on_settle(status);
  req->done = true;
  lk.unlock();
  req->cv.notify_all();
}

void RngService::worker_loop() {
  std::vector<RequestPtr> batch;
  std::vector<ShardGroup> groups(shards_.size());
  std::vector<std::uint64_t> scratch;  ///< merged fills, reused per pass
  while (true) {
    batch.clear();
    const std::size_t n = queue_.pop_batch(
        &batch, opts_.max_coalesce, [&](std::span<const RequestPtr> popped) {
          // Under the queue lock, in pop order: count the batch in flight
          // (the drain() fence) and take one serving ticket on every shard
          // it touches, so groups on a shard are served in pop order.
          serving_.fetch_add(1, std::memory_order_acq_rel);
          for (const RequestPtr& req : popped) {
            std::size_t shard = 0;
            {
              std::lock_guard<std::mutex> lk(req->session->mu);
              shard = static_cast<std::size_t>(req->session->lease.shard);
            }
            ShardGroup& group = groups[shard];
            if (!group.ticketed) {
              group.ticketed = true;
              group.ticket = turns_[shard].next_ticket++;
            }
            group.reqs.push_back(req);
          }
        });
    if (n == 0) break;  // closed and drained
    serve_batch(groups, scratch);
    batch.clear();  // drop session refs outside all shard locks
    serving_.fetch_sub(1, std::memory_order_acq_rel);
    {
      std::lock_guard<std::mutex> lk(state_mu_);
    }
    state_cv_.notify_all();
  }
}

void RngService::serve_batch(std::vector<ShardGroup>& groups,
                             std::vector<std::uint64_t>& scratch) {
  if (opts_.injector != nullptr) {
    // kWorker: a slow worker. Wall-clock perturbation only — a "failed"
    // worker is indistinguishable from a slow one, so kFail is ignored.
    const fault::Outcome o =
        opts_.injector->on_event(fault::Site::kWorker, 0);
    sleep_seconds(o.delay_seconds);
  }

  // One clock read for the whole claim sweep: every expiry decision in
  // this batch uses the same sample, so a slow sweep (TSan, a preempted
  // worker) cannot expire requests mid-iteration.
  const auto now = std::chrono::steady_clock::now();

  // Claim what is still live, keeping pop order within each group.
  const auto unclaimable = [&](const RequestPtr& req) {
    if (now >= req->deadline) {
      // Expired in the queue: shed it (unless the waiter got there first).
      abandon(req, Status::kShed);
      return true;
    }
    // A request its waiter abandoned is off limits: its span may be gone.
    int expected = detail::Request::kPending;
    return !req->phase.compare_exchange_strong(
        expected, detail::Request::kClaimed, std::memory_order_acq_rel);
  };
  for (ShardGroup& group : groups) std::erase_if(group.reqs, unclaimable);

  // Serve a group whose turn has come first, so the worker does not wait
  // on one shard while another of its groups could run; with none due,
  // wait on the lowest pending shard.
  for (;;) {
    std::size_t next = groups.size();
    for (std::size_t s = 0; s < groups.size(); ++s) {
      if (!groups[s].ticketed) continue;
      if (next == groups.size()) next = s;
      if (turns_[s].serving.load(std::memory_order_acquire) ==
          groups[s].ticket) {
        next = s;
        break;
      }
    }
    if (next == groups.size()) return;
    serve_shard_group(next, groups[next], scratch);
    groups[next].ticketed = false;
    groups[next].reqs.clear();
  }
}

void RngService::serve_shard_group(std::size_t s, ShardGroup& group,
                                   std::vector<std::uint64_t>& scratch) {
  ShardBackend& shard = *shards_[s];
  ShardTurn& turn = turns_[s];
  {
    // Every earlier ticket belongs to an earlier pop, so this wait always
    // ends: the oldest unfinished batch is never waiting on anyone.
    std::unique_lock<std::mutex> lk(shard.mu);
    turn.cv.wait(lk, [&] {
      return turn.serving.load(std::memory_order_acquire) == group.ticket;
    });
  }

  // One fill per slot. A session's requests merge into one span in pop
  // order: a stream depends only on how many words it has served
  // (ShardBackend::fill), so this is the same as serving them one by one.
  struct Merge {
    std::size_t requests = 0;
    std::size_t words = 0;
  };
  std::vector<ShardBackend::Fill> fills;
  std::vector<Merge> merges;         ///< what each fill merges
  std::vector<std::size_t> fill_of;  ///< fill index per served request
  std::vector<RequestPtr> served;
  std::vector<RequestPtr> displaced;  ///< claimed but not served here
  for (RequestPtr& req : group.reqs) {
    std::uint64_t slot = 0;
    bool moved = false;
    {
      std::lock_guard<std::mutex> lk(req->session->mu);
      moved = req->session->lease.shard != static_cast<int>(s);
      slot = req->session->lease.slot;
    }
    if (moved) {
      // The lease failed over between pop and serve: let the request
      // re-route through the queue to its session's new shard.
      displaced.push_back(req);
      continue;
    }
    std::size_t j = 0;
    while (j < fills.size() && fills[j].slot != slot) ++j;
    if (j == fills.size()) {
      fills.push_back({slot, req->out});
      merges.emplace_back();
    }
    ++merges[j].requests;
    merges[j].words += req->out.size();
    fill_of.push_back(j);
    served.push_back(req);
  }

  if (!fills.empty()) {
    // Merged fills go back to back into the worker's scratch; a fill of
    // one request writes straight into that request's buffer.
    std::size_t merged = 0;
    for (const Merge& m : merges) {
      if (m.requests > 1) merged += m.words;
    }
    scratch.resize(merged);
    std::uint64_t* next = scratch.data();
    for (std::size_t j = 0; j < fills.size(); ++j) {
      if (merges[j].requests < 2) continue;
      fills[j].out = std::span<std::uint64_t>(next, merges[j].words);
      next += merges[j].words;
    }

    const auto wall_start = std::chrono::steady_clock::now();
    ShardBackend::FillResult result;
    {
      std::lock_guard<std::mutex> lk(shard.mu);
      for (int attempt = 0;; ++attempt) {
        bool dispatch_drop = false;
        if (opts_.injector != nullptr) {
          // kShardFill: the dispatch itself fails or stalls. Consulted
          // under the shard lock, so ordinals are per-shard deterministic.
          const fault::Outcome o = opts_.injector->on_event(
              fault::Site::kShardFill, static_cast<int>(s));
          sleep_seconds(o.delay_seconds);
          dispatch_drop = o.fail();
        }
        result = dispatch_drop ? ShardBackend::FillResult{false, 0.0}
                               : shard.fill(fills);
        if (result.ok || attempt >= opts_.max_fill_retries) break;
        retries_.fetch_add(1, std::memory_order_relaxed);
        if (ins_.retry_attempts != nullptr) ins_.retry_attempts->add();
        backoff(attempt);
      }
    }
    const auto wall_end = std::chrono::steady_clock::now();

    if (result.ok) {
      for (std::size_t j = 0; j < fills.size(); ++j) {
        if (merges[j].requests < 2) continue;
        std::span<const std::uint64_t> from = fills[j].out;
        for (std::size_t i = 0; i < served.size(); ++i) {
          if (fill_of[i] != j) continue;
          std::copy_n(from.begin(), served[i]->out.size(),
                      served[i]->out.begin());
          from = from.subspan(served[i]->out.size());
        }
      }
      health_[s].consecutive_failures.store(0, std::memory_order_release);
      batches_.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t words = 0;
      for (const ShardBackend::Fill& f : fills) words += f.out.size();
      numbers_served_.fetch_add(words, std::memory_order_relaxed);
      if (ins_.batches != nullptr) {
        ins_.batches->add();
        ins_.numbers_served->add(static_cast<double>(words));
        ins_.batch_requests->observe(static_cast<double>(served.size()));
        ins_.fill_sim_seconds->observe(result.sim_seconds);
        ins_.fill_wall_seconds->observe(seconds(wall_end - wall_start));
      }
      for (RequestPtr& req : served) {
        if (ins_.queue_wait_seconds != nullptr) {
          ins_.queue_wait_seconds->observe(
              seconds(wall_start - req->submit_time));
        }
        settle(req, Status::kOk);
      }
    } else {
      record_shard_failure(s);
      displaced = group.reqs;  // the whole group, in pop order
    }
  }

  // Re-route the displaced requests before passing the turn on, so a later
  // group on this shard already sees any lease that moved: move sessions
  // off an ejected shard, then hand the requests back to the queue head.
  // Requeueing in reverse keeps their original relative order.
  std::vector<RequestPtr> requeue;
  requeue.reserve(displaced.size());
  for (RequestPtr& req : displaced) {
    if (!failover_session(req->session)) {
      settle(req, Status::kFailed);
      continue;
    }
    int expected = detail::Request::kClaimed;
    if (req->phase.compare_exchange_strong(expected,
                                           detail::Request::kPending,
                                           std::memory_order_acq_rel)) {
      requeue.push_back(req);
    }
  }
  for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
    queue_.requeue_front(std::move(*it));
  }

  {
    std::lock_guard<std::mutex> lk(shard.mu);
    turn.serving.fetch_add(1, std::memory_order_acq_rel);
  }
  turn.cv.notify_all();
}

void RngService::record_shard_failure(std::size_t s) {
  const int fails =
      health_[s].consecutive_failures.fetch_add(1, std::memory_order_acq_rel) +
      1;
  if (fails >= opts_.shard_eject_failures) eject_shard(s);
}

void RngService::eject_shard(std::size_t s) {
  bool expected = false;
  if (!health_[s].ejected.compare_exchange_strong(expected, true,
                                                  std::memory_order_acq_rel)) {
    return;  // someone else ejected it
  }
  const int ejected = ejected_count_.fetch_add(1, std::memory_order_acq_rel)
                      + 1;
  if (ins_.shards_ejected != nullptr) {
    ins_.shards_ejected->add();
    ins_.shards_healthy->set(
        static_cast<double>(num_shards() - ejected));
  }
}

bool RngService::failover_session(
    const std::shared_ptr<detail::SessionState>& state) {
  std::lock_guard<std::mutex> lk(state->mu);
  const Lease old = state->lease;
  if (!shard_ejected(old.shard)) {
    return true;  // transient failure (or already moved): retry in place
  }
  std::optional<Lease> fresh =
      leases_.grant_if([this](int s) { return !shard_ejected(s); });
  if (!fresh.has_value()) return false;  // no healthy capacity anywhere
  {
    ShardBackend& shard = *shards_[static_cast<std::size_t>(fresh->shard)];
    std::lock_guard<std::mutex> slk(shard.mu);
    shard.attach(fresh->slot, fresh->seed);
  }
  {
    // Symmetric detach; the freed slot returns to the EJECTED shard's free
    // list, and grant_if above never hands ejected-shard slots out again,
    // so no live stream can collide with the abandoned walk.
    ShardBackend& shard = *shards_[static_cast<std::size_t>(old.shard)];
    std::lock_guard<std::mutex> slk(shard.mu);
    shard.detach(old.slot);
  }
  leases_.release(old);
  {
    std::lock_guard<std::mutex> llk(live_mu_);
    live_leases_.erase(old.id);
    live_leases_[fresh->id] = *fresh;
  }
  // The tenant keeps billing through the replacement lease id.
  tenants_.remove_lease(state->tenant, old.id);
  tenants_.add_lease(state->tenant, fresh->id);
  state->lease = *fresh;
  failovers_.fetch_add(1, std::memory_order_relaxed);
  if (ins_.retry_failovers != nullptr) {
    ins_.retry_failovers->add();
    ins_.leases_granted->add();
    ins_.leases_released->add();
    ins_.backend_attaches->add();
    ins_.backend_detaches->add();
    ins_.active_leases->set(static_cast<double>(leases_.active()));
  }
  return true;
}

void RngService::backoff(int attempt) {
  const double base = opts_.retry_backoff_base_ms * 1e-3;
  const double cap = opts_.retry_backoff_max_ms * 1e-3;
  double wait = base * std::pow(2.0, attempt);
  if (wait > cap) wait = cap;
  // Jitter in [0.5, 1.5): decorrelates workers retrying the same shard
  // while staying a pure function of (service seed, global retry index).
  const std::uint64_t idx =
      backoff_idx_.fetch_add(1, std::memory_order_relaxed);
  const double jitter =
      0.5 + static_cast<double>(backoff_seq_.derive(idx) >> 11) * 0x1.0p-53;
  wait *= jitter;
  if (ins_.retry_backoff_seconds != nullptr) {
    ins_.retry_backoff_seconds->add(wait);
  }
  sleep_seconds(wait);
}

void RngService::pause() {
  paused_.store(true, std::memory_order_release);
  queue_.wake();
  // Wait until in-flight batches finish; afterwards workers are parked and
  // the queue contents are frozen.
  std::unique_lock<std::mutex> lk(state_mu_);
  state_cv_.wait(lk, [&] {
    return serving_.load(std::memory_order_acquire) == 0;
  });
}

void RngService::resume() {
  paused_.store(false, std::memory_order_release);
  queue_.wake();
}

void RngService::drain() {
  HPRNG_CHECK(!paused_.load(std::memory_order_acquire),
              "RngService::drain: resume() first");
  std::unique_lock<std::mutex> lk(state_mu_);
  // pop_batch increments serving_ under the queue lock, so size() == 0
  // with serving_ == 0 really means nothing is queued OR in flight. The
  // bounded wait keeps this robust against wakeups raced away by a pop.
  while (queue_.size() != 0 ||
         serving_.load(std::memory_order_acquire) != 0) {
    state_cv_.wait_for(lk, std::chrono::milliseconds(2));
  }
}

RngService::Stats RngService::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected_quota = rejected_quota_.load(std::memory_order_relaxed);
  s.numbers_served = numbers_served_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.shards_ejected = static_cast<std::uint64_t>(
      ejected_count_.load(std::memory_order_acquire));
  s.queue_depth = queue_.size();
  s.active_leases = leases_.active();
  s.leases_granted = leases_.granted_total();
  s.leases_released = leases_.released_total();
  return s;
}

TenantTable::TenantStats RngService::tenant_stats(
    std::uint64_t tenant) const {
  return tenants_.stats(tenant);
}

std::vector<TenantTable::TenantStats> RngService::tenant_all_stats() const {
  return tenants_.all_stats();
}

std::vector<TenantTable::TenantStats> RngService::top_offenders(
    std::size_t k) const {
  return tenants_.top_offenders(k == 0 ? tenants_.options().top_k : k);
}

void RngService::set_drr_observer(
    std::function<void(std::uint64_t, std::size_t)> fn) {
  if (!fn) {
    queue_.set_pop_listener(nullptr);
    return;
  }
  queue_.set_pop_listener(
      [fn = std::move(fn)](std::uint64_t tenant, const RequestPtr& r) {
        fn(tenant, r->out.size());
      });
}

int RngService::healthy_shards() const {
  return num_shards() - ejected_count_.load(std::memory_order_acquire);
}

bool RngService::shard_ejected(int shard) const {
  return health_[static_cast<std::size_t>(shard)].ejected.load(
      std::memory_order_acquire);
}

// -- Checkpoint / restore (docs/STATE.md) ------------------------------------

namespace {

using state::kTagHlth;
using state::kTagLeas;
using state::kTagMeta;
using state::kTagOpts;
using state::kTagShrd;
using state::kTagTenq;

void save_options(state::SnapshotWriter& w, const ServiceOptions& o) {
  w.put_str(o.backend);
  w.put_u32(static_cast<std::uint32_t>(o.num_shards));
  w.put_u64(o.max_leases_per_shard);
  w.put_u32(static_cast<std::uint32_t>(o.num_workers));
  w.put_u64(o.queue_capacity);
  w.put_u64(o.max_coalesce);
  w.put_u32(static_cast<std::uint32_t>(o.policy));
  w.put_u64(static_cast<std::uint64_t>(o.default_timeout.count()));
  w.put_u64(o.seed);
  w.put_u32(static_cast<std::uint32_t>(o.walk_len));
  w.put_u32(o.parallel_kernels ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(o.max_fill_retries));
  w.put_f64(o.retry_backoff_base_ms);
  w.put_f64(o.retry_backoff_max_ms);
  w.put_u32(static_cast<std::uint32_t>(o.shard_eject_failures));
}

bool load_options(state::SectionReader& r, ServiceOptions* o) {
  o->backend = r.get_str();
  o->num_shards = static_cast<int>(r.get_u32());
  o->max_leases_per_shard = r.get_u64();
  o->num_workers = static_cast<int>(r.get_u32());
  o->queue_capacity = static_cast<std::size_t>(r.get_u64());
  o->max_coalesce = static_cast<std::size_t>(r.get_u64());
  const std::uint32_t policy = r.get_u32();
  o->default_timeout = std::chrono::nanoseconds(
      static_cast<std::int64_t>(r.get_u64()));
  o->seed = r.get_u64();
  o->walk_len = static_cast<int>(r.get_u32());
  o->parallel_kernels = r.get_u32() != 0;
  o->max_fill_retries = static_cast<int>(r.get_u32());
  o->retry_backoff_base_ms = r.get_f64();
  o->retry_backoff_max_ms = r.get_f64();
  o->shard_eject_failures = static_cast<int>(r.get_u32());
  if (r.ok() &&
      (o->num_shards < 1 || o->max_leases_per_shard < 1 ||
       o->queue_capacity < 1 || o->max_coalesce < 1 || policy > 2 ||
       o->max_fill_retries < 0 || o->shard_eject_failures < 1)) {
    r.fail("implausible service options");
  }
  o->policy = static_cast<BackpressurePolicy>(policy);
  return r.ok();
}

}  // namespace

bool RngService::checkpoint(const std::string& path, std::string* error) {
  const auto wall_start = std::chrono::steady_clock::now();
  // Sidecar first: the hook's prepare() parks the layered subsystem at a
  // boundary where none of ITS fills are queued — it must run while the
  // workers still drain (after pause() those fills would never complete).
  CheckpointHook hook;
  {
    std::lock_guard<std::mutex> lk(hook_mu_);
    hook = hook_;
  }
  if (hook.prepare) hook.prepare();
  // Quiesce: pause() returns only once every popped batch has finished,
  // and every pass runs start to finish under its shard mutex — so this
  // IS the pass boundary: no in-flight fills, no pending feed words,
  // committed cursors everywhere.
  pause();
  state::SnapshotWriter w;

  {
    std::lock_guard<std::mutex> lk(live_mu_);
    std::string meta = "{\"format\":\"hprng-snapshot\",\"format_version\":";
    meta += std::to_string(state::kFormatVersion);
    meta += ",\"writer\":\"hprng::serve::RngService\",\"backend\":\"";
    meta += opts_.backend;
    meta += "\",\"num_shards\":";
    meta += std::to_string(opts_.num_shards);
    meta += ",\"live_leases\":";
    meta += std::to_string(live_leases_.size());
    meta += ",\"spec\":\"docs/STATE.md\"}";
    w.begin_section(kTagMeta);
    w.put_raw(meta);

    w.begin_section(kTagOpts);
    save_options(w, opts_);

    w.begin_section(kTagLeas);
    leases_.save_state(w);
    w.put_u64(live_leases_.size());
    for (const auto& [id, lease] : live_leases_) {
      w.put_u64(id);
      w.put_u32(static_cast<std::uint32_t>(lease.shard));
      w.put_u64(lease.slot);
      w.put_u64(lease.seed);
    }
  }

  w.begin_section(kTagHlth);
  w.put_u64(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    w.put_u32(health_[s].ejected.load(std::memory_order_acquire) ? 1 : 0);
    w.put_u32(static_cast<std::uint32_t>(
        health_[s].consecutive_failures.load(std::memory_order_acquire)));
  }

  // Tenant QoS state (docs/QOS.md §6): every bucket settled to this
  // instant, so the saved level is the complete rate-limit state and a
  // restore resumes refill from its own clock without drift.
  w.begin_section(kTagTenq);
  tenants_.save_state(w, to_ns(std::chrono::steady_clock::now()));

  bool ok = true;
  std::string err;
  for (std::size_t s = 0; s < shards_.size() && ok; ++s) {
    ShardBackend& shard = *shards_[s];
    std::lock_guard<std::mutex> lk(shard.mu);
    w.begin_section(kTagShrd);
    w.put_u32(static_cast<std::uint32_t>(s));
    w.put_str(shard.name());
    ok = shard.save_state(w, &err);
  }
  if (ok && hook.save) hook.save(w);
  const std::string image = ok ? w.finish() : std::string();
  if (ok) ok = w.write_file(path, &err, opts_.injector, /*target=*/0);
  resume();
  if (hook.release) hook.release();

  if (!ok) {
    if (ins_.state_checkpoint_failures != nullptr) {
      ins_.state_checkpoint_failures->add();
    }
    if (error != nullptr) *error = err;
    return false;
  }
  if (ins_.state_checkpoints != nullptr) {
    ins_.state_checkpoints->add();
    ins_.state_checkpoint_bytes->add(static_cast<double>(image.size()));
    ins_.state_checkpoint_seconds->observe(
        seconds(std::chrono::steady_clock::now() - wall_start));
  }
  return true;
}

std::unique_ptr<RngService> RngService::restore(const std::string& path,
                                                const RestoreOptions& ro,
                                                std::string* error) {
  const auto fail = [&](const std::string& why) -> std::unique_ptr<RngService> {
    if (ro.metrics != nullptr) {
      ro.metrics->counter("hprng.state.restore_failures").add();
    }
    if (error != nullptr) *error = why;
    return nullptr;
  };
  std::string err;
  std::optional<state::Snapshot> snap =
      state::Snapshot::read_file(path, &err, ro.injector, /*target=*/0);
  if (!snap.has_value()) return fail(err);

  const state::Section* opts_sec = snap->find(kTagOpts);
  if (opts_sec == nullptr) {
    return fail("snapshot rejected: missing OPTS section");
  }
  ServiceOptions opts;
  state::SectionReader r(*opts_sec);
  if (!load_options(r, &opts)) return fail(r.error());
  opts.injector = ro.injector;
  if (ro.num_workers > 0) opts.num_workers = ro.num_workers;
  if (ro.scrub.has_value()) opts.scrub = *ro.scrub;

  auto svc = std::make_unique<RngService>(std::move(opts), ro.metrics);
  if (!svc->load_snapshot(*snap, &err)) return fail(err);
  if (svc->ins_.state_restores != nullptr) svc->ins_.state_restores->add();
  return svc;
}

bool RngService::load_snapshot(const state::Snapshot& snap,
                               std::string* error) {
  const auto missing = [&](const char* tag) {
    if (error != nullptr) {
      *error = std::string("snapshot rejected: missing ") + tag + " section";
    }
    return false;
  };

  const state::Section* leas = snap.find(kTagLeas);
  if (leas == nullptr) return missing("LEAS");
  {
    state::SectionReader r(*leas);
    if (!leases_.load_state(r, error)) return false;
    const std::uint64_t live_count = r.get_u64();
    if (r.ok() && live_count > leases_.active()) {
      r.fail("more live leases than active slots");
    }
    std::lock_guard<std::mutex> lk(live_mu_);
    for (std::uint64_t i = 0; i < live_count && r.ok(); ++i) {
      Lease lease;
      lease.id = r.get_u64();
      lease.shard = static_cast<int>(r.get_u32());
      lease.slot = r.get_u64();
      lease.seed = r.get_u64();
      if (!r.ok()) break;
      if (lease.id == 0 || lease.shard < 0 || lease.shard >= num_shards() ||
          lease.slot >= opts_.max_leases_per_shard) {
        r.fail("live lease out of range");
        break;
      }
      live_leases_[lease.id] = lease;
      adoptable_[lease.id] = lease;
    }
    if (!r.ok()) {
      if (error != nullptr) *error = r.error();
      return false;
    }
  }

  const state::Section* hlth = snap.find(kTagHlth);
  if (hlth == nullptr) return missing("HLTH");
  {
    state::SectionReader r(*hlth);
    const std::uint64_t count = r.get_u64();
    if (r.ok() && count != shards_.size()) {
      r.fail("shard count mismatch");
    }
    int ejected = 0;
    for (std::size_t s = 0; s < shards_.size() && r.ok(); ++s) {
      const bool is_ejected = r.get_u32() != 0;
      const auto fails = static_cast<int>(r.get_u32());
      health_[s].ejected.store(is_ejected, std::memory_order_release);
      health_[s].consecutive_failures.store(fails, std::memory_order_release);
      if (is_ejected) ++ejected;
    }
    if (!r.ok()) {
      if (error != nullptr) *error = r.error();
      return false;
    }
    ejected_count_.store(ejected, std::memory_order_release);
    if (ins_.shards_healthy != nullptr) {
      ins_.shards_healthy->set(static_cast<double>(num_shards() - ejected));
    }
  }

  // TENQ is optional — snapshots predating the QoS layer restore with the
  // constructor's (default) tenancy; when present it replaces policies,
  // bucket levels, quota charges and the lease→tenant map wholesale.
  if (const state::Section* tenq = snap.find(kTagTenq); tenq != nullptr) {
    state::SectionReader r(*tenq);
    if (!tenants_.load_state(r, to_ns(std::chrono::steady_clock::now()),
                             error)) {
      return false;
    }
    if (ins_.tenant_active != nullptr) {
      ins_.tenant_active->set(static_cast<double>(tenants_.active()));
    }
  }

  const std::vector<const state::Section*> shard_secs =
      snap.find_all(kTagShrd);
  if (shard_secs.size() != shards_.size()) {
    if (error != nullptr) {
      *error = "snapshot rejected: " + std::to_string(shard_secs.size()) +
               " SHRD sections for " + std::to_string(shards_.size()) +
               " shards";
    }
    return false;
  }
  std::vector<char> seen(shards_.size(), 0);
  for (const state::Section* sec : shard_secs) {
    state::SectionReader r(*sec);
    const std::uint32_t index = r.get_u32();
    const std::string name = r.get_str();
    if (r.ok() && (index >= shards_.size() || seen[index] != 0)) {
      r.fail("bad or repeated shard index");
    }
    if (r.ok() && name != shards_[index]->name()) {
      r.fail("backend kind mismatch (snapshot `" + name + "`, pool `" +
             shards_[index]->name() + "`)");
    }
    if (!r.ok()) {
      if (error != nullptr) *error = r.error();
      return false;
    }
    seen[index] = 1;
    ShardBackend& shard = *shards_[index];
    std::lock_guard<std::mutex> lk(shard.mu);
    if (!shard.load_state(r, error)) return false;
  }

  // Stash whatever the service itself did not consume (QUAL and future
  // sidecar tags) so layered subsystems can re-attach after restore. Known
  // tags are excluded — their state already lives in this object.
  for (const state::Section& sec : snap.sections()) {
    if (sec.tag == kTagMeta || sec.tag == kTagOpts || sec.tag == kTagLeas ||
        sec.tag == kTagHlth || sec.tag == kTagShrd || sec.tag == kTagTenq) {
      continue;
    }
    aux_sections_[sec.tag].emplace_back(sec.payload);
  }

  if (ins_.active_leases != nullptr) {
    ins_.active_leases->set(static_cast<double>(leases_.active()));
  }
  return true;
}

void RngService::set_checkpoint_hook(CheckpointHook hook) {
  std::lock_guard<std::mutex> lk(hook_mu_);
  hook_ = std::move(hook);
}

std::vector<std::string> RngService::aux_sections(std::uint32_t tag) const {
  const auto it = aux_sections_.find(tag);
  return it == aux_sections_.end() ? std::vector<std::string>{} : it->second;
}

std::vector<std::uint64_t> RngService::adoptable_lease_ids() const {
  std::lock_guard<std::mutex> lk(live_mu_);
  std::vector<std::uint64_t> ids;
  ids.reserve(adoptable_.size());
  for (const auto& [id, lease] : adoptable_) ids.push_back(id);
  return ids;
}

std::optional<Session> RngService::adopt_session(std::uint64_t lease_id) {
  Lease lease;
  {
    std::lock_guard<std::mutex> lk(live_mu_);
    const auto it = adoptable_.find(lease_id);
    if (it == adoptable_.end()) return std::nullopt;
    lease = it->second;
    adoptable_.erase(it);
  }
  // No attach(): the backend slot was restored mid-stream and an attach
  // would reset it. The SessionState releases the lease normally, so an
  // adopted session's lifecycle is indistinguishable from an opened one.
  // The TENQ lease→tenant map re-binds the adopter to the tenant that
  // opened the lease (0 for pre-QoS snapshots).
  auto state = std::make_shared<detail::SessionState>();
  state->service = this;
  state->lease = lease;
  state->tenant = tenants_.tenant_of_lease(lease.id);
  return Session(std::move(state));
}

// -- Session / Ticket --------------------------------------------------------

Status Session::fill(std::span<std::uint64_t> out,
                     std::chrono::nanoseconds timeout) {
  HPRNG_CHECK(valid(), "Session::fill: empty session");
  RngService* service = state_->service;
  return RngService::wait(service->submit(state_, out, timeout, {}));
}

Ticket Session::fill_async(std::span<std::uint64_t> out,
                           std::chrono::nanoseconds timeout,
                           std::function<void(Status)> on_settle) {
  HPRNG_CHECK(valid(), "Session::fill_async: empty session");
  return Ticket(
      state_->service->submit(state_, out, timeout, std::move(on_settle)));
}

std::vector<std::uint64_t> Session::draw(std::size_t n) {
  std::vector<std::uint64_t> out(n);
  const Status status = fill(out);
  HPRNG_CHECK(status == Status::kOk, "Session::draw: fill failed");
  return out;
}

Lease Session::lease() const {
  HPRNG_CHECK(valid(), "Session::lease: empty session");
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->lease;
}

void Session::set_priority(int priority) {
  HPRNG_CHECK(valid(), "Session::set_priority: empty session");
  state_->priority.store(priority, std::memory_order_relaxed);
}

int Session::priority() const {
  HPRNG_CHECK(valid(), "Session::priority: empty session");
  return state_->priority.load(std::memory_order_relaxed);
}

std::uint64_t Session::tenant() const {
  HPRNG_CHECK(valid(), "Session::tenant: empty session");
  return state_->tenant;
}

Status Ticket::wait() {
  HPRNG_CHECK(req_ != nullptr, "Ticket::wait: empty ticket");
  return RngService::wait(req_);
}

std::chrono::steady_clock::time_point Ticket::deadline() const {
  HPRNG_CHECK(req_ != nullptr, "Ticket::deadline: empty ticket");
  return req_->deadline;
}

void Ticket::expire() {
  HPRNG_CHECK(req_ != nullptr, "Ticket::expire: empty ticket");
  if (std::chrono::steady_clock::now() >= req_->deadline) {
    RngService::abandon(req_, Status::kTimeout);
  }
}

}  // namespace hprng::serve
