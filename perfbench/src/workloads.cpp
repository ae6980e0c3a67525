#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <thread>

namespace perfbench {

namespace hs = hprng::serve;
namespace hn = hprng::net;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::stod(line.substr(len + 1));
    }
  }
  return 0.0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

namespace {

std::vector<Shape> all_shapes() {
  Shape small;
  small.name = "serve-small";
  small.walk_len = 8;
  small.leases = 16;
  small.words = 16;
  small.requests_per_second = 120000;

  Shape bulk;
  bulk.name = "bulk-fill";
  bulk.walk_len = 32;
  bulk.leases = 32;
  bulk.words = 4096;
  bulk.requests_per_second = 1500;

  Shape wire;
  wire.name = "wire-pipelined";
  wire.walk_len = 8;
  wire.num_workers = 1;
  wire.threads = 2;
  wire.leases = 2;
  wire.depth = 8;
  wire.words = 16;
  wire.wire = true;
  wire.requests_per_second = 60000;
  return {small, bulk, wire};
}

struct ThreadOut {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t words = 0;
  std::vector<float> latency_us;
  std::vector<float> done_s;
  std::vector<RequestSpan> spans;
};

/// Keeps `depth` requests outstanding on each of `leases` leases, waits
/// for them oldest first and resubmits on the same lease before looking at
/// the words (each slot has a spare buffer), until `quota` requests have
/// been submitted and all of them waited for.
template <class Submit, class Wait>
void closed_loop(std::size_t leases, std::size_t depth, std::size_t words,
                 std::uint64_t quota, std::size_t span_cap,
                 Clock::time_point t0, Submit submit, Wait wait,
                 Recorder& rec, ThreadOut& out) {
  using Handle = decltype(submit(std::size_t{0}, std::span<std::uint64_t>{}));
  struct Inflight {
    std::size_t lease;
    std::size_t buf;
    Clock::time_point t;
    Handle h;
  };
  std::vector<std::vector<std::uint64_t>> bufs(
      leases * depth + 1, std::vector<std::uint64_t>(words));
  std::vector<std::size_t> free_bufs(bufs.size());
  for (std::size_t i = 0; i < bufs.size(); ++i) free_bufs[i] = i;
  std::deque<Inflight> q;
  std::uint64_t submitted = 0;
  const auto issue = [&](std::size_t lease) {
    const std::size_t b = free_bufs.back();
    free_bufs.pop_back();
    const Clock::time_point t = Clock::now();
    q.push_back({lease, b, t, submit(lease, std::span<std::uint64_t>(bufs[b]))});
    ++submitted;
  };
  for (std::size_t d = 0; d < depth; ++d) {
    for (std::size_t l = 0; l < leases && submitted < quota; ++l) issue(l);
  }
  out.latency_us.reserve(out.latency_us.size() + quota);
  out.done_s.reserve(out.done_s.size() + quota);
  while (!q.empty()) {
    Inflight r = std::move(q.front());
    q.pop_front();
    const bool ok = wait(r.h, std::span<std::uint64_t>(bufs[r.buf]));
    const Clock::time_point done = Clock::now();
    if (submitted < quota) issue(r.lease);
    if (ok) {
      rec.record(r.lease, bufs[r.buf]);
      out.words += words;
      out.latency_us.push_back(
          static_cast<float>(seconds_between(r.t, done) * 1e6));
      out.done_s.push_back(static_cast<float>(seconds_between(t0, done)));
      if (out.spans.size() < span_cap) {
        out.spans.push_back({r.lease, r.t, done});
      }
    } else {
      ++out.failed;
    }
    free_bufs.push_back(r.buf);
  }
  out.attempted += submitted;
}

}  // namespace

std::optional<Shape> find_shape(const std::string& name) {
  for (const Shape& s : all_shapes()) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

std::vector<std::string> shape_names() {
  std::vector<std::string> names;
  for (const Shape& s : all_shapes()) names.push_back(s.name);
  return names;
}

hs::ServiceOptions service_options(const Shape& shape, std::uint64_t seed) {
  hs::ServiceOptions opts;
  opts.backend = "hybrid";
  opts.num_shards = shape.num_shards;
  opts.num_workers = shape.num_workers;
  opts.walk_len = shape.walk_len;
  // No worker pool: ThreadPool::parallel_for is not safe to run (see
  // README.md), and without it every pass runs on its service worker.
  opts.parallel_kernels = false;
  opts.seed = mix64(seed ^ 0x5EEDBE4C4ull);
  return opts;
}

double PhaseResult::mean_latency_us() const {
  double sum = 0;
  for (const float v : latency_us) sum += v;
  return latency_us.empty() ? 0.0 : sum / latency_us.size();
}

namespace {

/// Linear-interpolated quantile (reorders `v`).
double quantile(std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v.begin(), v.begin() + lo, v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b = *std::min_element(v.begin() + lo + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace

std::vector<std::vector<float>> PhaseResult::windows() const {
  const std::size_t n = std::clamp<std::size_t>(
      done_s.size() / kWindowRequests, 1, kMaxWindows);
  std::vector<std::vector<float>> w(n);
  for (std::size_t i = 0; i < done_s.size(); ++i) {
    const auto k = static_cast<std::size_t>(done_s[i] / wall_s * n);
    w[std::min(k, n - 1)].push_back(latency_us[i]);
  }
  return w;
}

double PhaseResult::words_per_s() const {
  const std::vector<std::vector<float>> w = windows();
  std::vector<double> rates;
  for (const auto& slice : w) {
    rates.push_back(static_cast<double>(slice.size() * words_per_request) /
                    (wall_s / static_cast<double>(w.size())));
  }
  return median(rates);
}

double PhaseResult::latency_quantile_us(double q) const {
  std::vector<double> qs;
  for (auto& w : windows()) qs.push_back(quantile(w, q));
  return median(qs);
}

Deployment::Deployment(const Shape& shape, const hs::ServiceOptions& opts,
                       std::uint64_t seed, std::uint64_t expected_requests,
                       hprng::obs::MetricsRegistry* metrics,
                       const std::string& socket_path)
    : shape_(shape) {
  service_ = std::make_unique<hs::RngService>(opts, metrics);
  const std::size_t total = shape.total_leases();
  const std::uint64_t per_lease = expected_requests / total;
  const std::uint64_t every = per_lease / Recorder::kMaxBoundaries;
  const std::uint64_t replay_a = mix64(seed) % total;
  const std::uint64_t replay_b =
      (replay_a + 1 + mix64(seed + 1) % (total - 1)) % total;
  for (int t = 0; t < shape.threads; ++t) {
    recorders_.emplace_back(shape.leases, every, mix64(seed + 2));
    for (std::size_t l = 0; l < shape.leases; ++l) {
      const std::size_t global = t * shape.leases + l;
      if (global == replay_a || global == replay_b) {
        recorders_.back().mark_replay(l);
      }
    }
  }

  if (!shape.wire) {
    sessions_.resize(static_cast<std::size_t>(shape.threads));
    for (auto& per_thread : sessions_) {
      for (std::size_t l = 0; l < shape.leases; ++l) {
        per_thread.push_back(service_->open_session());
      }
    }
    return;
  }
  hn::ServerOptions so;
  so.listen = {"unix:" + socket_path};
  server_ = std::make_unique<hn::NetServer>(*service_, so, metrics);
  if (!server_->ok()) {
    error_ = "server: " + server_->error();
    return;
  }
  lease_ids_.resize(static_cast<std::size_t>(shape.threads));
  for (int t = 0; t < shape.threads; ++t) {
    hn::ClientOptions co;
    co.endpoint = server_->endpoints().front();
    co.name = "perfbench-" + std::to_string(t);
    co.timeout = std::chrono::milliseconds(60000);
    clients_.push_back(std::make_unique<hn::NetClient>(co));
    std::string err;
    if (!clients_.back()->connect(&err)) {
      error_ = "connect: " + err;
      return;
    }
    // Leases open one after the other, so lease i lands where the i-th
    // open of a fresh service lands (the replay check relies on it).
    for (std::size_t l = 0; l < shape.leases; ++l) {
      const auto id = clients_.back()->lease(&err);
      if (!id.has_value()) {
        error_ = "lease: " + err;
        return;
      }
      lease_ids_[static_cast<std::size_t>(t)].push_back(*id);
    }
  }
}

Deployment::~Deployment() {
  clients_.clear();
  if (server_ != nullptr) server_->stop();
  server_.reset();
  sessions_.clear();
  service_.reset();
}

PhaseResult Deployment::run(std::uint64_t rounds, std::size_t span_cap) {
  const std::uint64_t quota = rounds * shape_.leases * shape_.depth;
  Clock::time_point t0;
  std::vector<ThreadOut> outs(static_cast<std::size_t>(shape_.threads));
  const auto body = [&](std::size_t t) {
    Recorder& rec = recorders_[t];
    const std::size_t cap = t == 0 ? span_cap : 0;
    if (!shape_.wire) {
      auto& sessions = sessions_[t];
      closed_loop(
          shape_.leases, shape_.depth, shape_.words, quota, cap, t0,
          [&](std::size_t l, std::span<std::uint64_t> buf) {
            return sessions[l].fill_async(buf);
          },
          [](hs::Ticket& tk, std::span<std::uint64_t>) {
            return tk.wait() == hs::Status::kOk;
          },
          rec, outs[t]);
    } else {
      hn::NetClient& c = *clients_[t];
      const auto& ids = lease_ids_[t];
      closed_loop(
          shape_.leases, shape_.depth, shape_.words, quota, cap, t0,
          [&](std::size_t l, std::span<std::uint64_t> buf) {
            return c.fill_submit(ids[l], static_cast<std::uint32_t>(buf.size()));
          },
          [&](std::uint64_t id, std::span<std::uint64_t> buf) {
            return id != 0 && c.fill_wait(id, buf) == hs::Status::kOk;
          },
          rec, outs[t]);
    }
  };

  PhaseResult r;
  r.words_per_request = shape_.words;
  r.rss_before_kb = proc_status_kb("VmRSS");
  const double cpu0 = cpu_seconds();
  t0 = Clock::now();
  if (shape_.threads == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    for (int t = 0; t < shape_.threads; ++t) {
      threads.emplace_back(body, static_cast<std::size_t>(t));
    }
    for (std::thread& th : threads) th.join();
  }
  r.wall_s = seconds_between(t0, Clock::now());
  r.cpu_s = cpu_seconds() - cpu0;
  r.rss_after_kb = proc_status_kb("VmRSS");
  for (ThreadOut& o : outs) {
    r.attempted += o.attempted;
    r.failed += o.failed;
    r.words += o.words;
    r.latency_us.insert(r.latency_us.end(), o.latency_us.begin(),
                        o.latency_us.end());
    r.done_s.insert(r.done_s.end(), o.done_s.begin(), o.done_s.end());
    r.spans.insert(r.spans.end(), o.spans.begin(), o.spans.end());
  }
  return r;
}

Recorder Deployment::take_recorder() {
  Recorder all(0, 1, 0);
  for (Recorder& r : recorders_) all.append(std::move(r));
  recorders_.clear();
  return all;
}

std::optional<hn::NetStats> Deployment::net_stats() {
  if (clients_.empty()) return std::nullopt;
  return clients_.front()->stat();
}

std::vector<CheckResult> check_counts(Deployment& d, std::uint64_t requests,
                                      std::uint64_t words) {
  std::vector<CheckResult> out;
  const hs::RngService::Stats s = d.service().stats();
  const auto eq = [](std::uint64_t a, std::uint64_t b) { return a == b; };
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "client %llu requests / %llu words; service submitted %llu, "
                "completed %llu, served %llu, not ok %llu",
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(words),
                static_cast<unsigned long long>(s.submitted),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.numbers_served),
                static_cast<unsigned long long>(
                    s.rejected + s.shed + s.timed_out + s.closed + s.failed +
                    s.rejected_quota));
  out.push_back({"service_counts",
                 eq(s.submitted, requests) && eq(s.completed, requests) &&
                     eq(s.numbers_served, words),
                 buf});
  if (d.server() != nullptr) {
    const auto ns = d.net_stats();
    const hn::NetServer::Stats ss = d.server()->stats();
    const bool ok = ns.has_value() && eq(ns->completed, requests) &&
                    eq(ns->numbers_served, words) &&
                    eq(ss.fills_ok, requests) && eq(ss.fills_rejected, 0);
    std::snprintf(buf, sizeof(buf),
                  "wire stat completed %llu, served %llu; server fills_ok %llu",
                  static_cast<unsigned long long>(ns ? ns->completed : 0),
                  static_cast<unsigned long long>(ns ? ns->numbers_served : 0),
                  static_cast<unsigned long long>(ss.fills_ok));
    out.push_back({"wire_counts", ok, buf});
  }
  return out;
}

}  // namespace perfbench
