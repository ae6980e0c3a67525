#pragma once

// The benchmark's workloads: closed-loop clients driving RngService
// in-process or NetServer over a Unix-domain socket, each doing a fixed
// number of requests.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
/// User + system CPU seconds of this process.
[[nodiscard]] double cpu_seconds();
/// A field of /proc/self/status in kB ("VmHWM", "VmRSS"); 0 if absent.
[[nodiscard]] double proc_status_kb(const char* field);
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// The make-up of one workload.
struct Shape {
  std::string name;
  int walk_len = 8;
  int num_shards = 4;
  int num_workers = 2;
  int threads = 1;             ///< load-generating client threads
  std::size_t leases = 16;     ///< per client thread
  std::size_t depth = 1;       ///< requests outstanding per lease
  std::size_t words = 16;      ///< u64 words per request
  bool wire = false;           ///< through NetServer / NetClient
  /// Requests per second of --seconds: the fixed amount of work a run does
  /// (about --seconds long on the reference host).
  double requests_per_second = 0;

  [[nodiscard]] std::size_t total_leases() const {
    return leases * static_cast<std::size_t>(threads);
  }
  /// Requests in one round: one per outstanding slot.
  [[nodiscard]] std::size_t round() const { return total_leases() * depth; }
};

/// The three workloads, by name; nullopt for an unknown name.
std::optional<Shape> find_shape(const std::string& name);
std::vector<std::string> shape_names();

hprng::serve::ServiceOptions service_options(const Shape& shape,
                                             std::uint64_t seed);

/// One request's life as the client saw it (trace spans).
struct RequestSpan {
  std::size_t lease = 0;
  Clock::time_point submit;
  Clock::time_point done;
};

/// A timed phase. Rates and latency quantiles are medians over equal
/// slices of the phase (by completion time), so a stall in one slice does
/// not move them: up to kMaxWindows slices of at least kWindowRequests
/// requests each, so every slice's p99 has ten samples beyond it.
struct PhaseResult {
  static constexpr std::size_t kMaxWindows = 25;
  static constexpr std::size_t kWindowRequests = 1000;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t words = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double rss_before_kb = 0;
  double rss_after_kb = 0;
  std::size_t words_per_request = 0;
  std::vector<float> latency_us;  ///< one per successful request
  std::vector<float> done_s;      ///< its completion, from the phase start
  std::vector<RequestSpan> spans; ///< the first requests, when asked

  [[nodiscard]] double words_per_s() const;
  [[nodiscard]] double mean_latency_us() const;
  [[nodiscard]] double latency_quantile_us(double q) const;
  /// Latencies of the requests completing in each slice.
  [[nodiscard]] std::vector<std::vector<float>> windows() const;
};

/// A running service with its leases open — and, for wire shapes, the
/// server and one connected NetClient per client thread. Construction is
/// the workload's set-up.
class Deployment {
 public:
  Deployment(const Shape& shape, const hprng::serve::ServiceOptions& opts,
             std::uint64_t seed, std::uint64_t expected_requests,
             hprng::obs::MetricsRegistry* metrics,
             const std::string& socket_path);
  ~Deployment();

  /// Closed loop: each client thread keeps `depth` requests outstanding on
  /// each of its leases until it has submitted `rounds` rounds of them.
  /// Records up to `span_cap` request spans.
  PhaseResult run(std::uint64_t rounds, std::size_t span_cap = 0);

  [[nodiscard]] hprng::serve::RngService& service() { return *service_; }
  /// Everything the client threads recorded, merged (call once, last).
  Recorder take_recorder();
  /// Server statistics as a wire client sees them (wire shapes only).
  std::optional<hprng::net::NetStats> net_stats();
  [[nodiscard]] const hprng::net::NetServer* server() const {
    return server_.get();
  }
  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  Shape shape_;
  std::unique_ptr<hprng::serve::RngService> service_;
  std::unique_ptr<hprng::net::NetServer> server_;
  std::vector<std::unique_ptr<hprng::net::NetClient>> clients_;
  std::vector<std::vector<hprng::serve::Session>> sessions_;  ///< per thread
  std::vector<std::vector<std::uint64_t>> lease_ids_;  ///< per thread (wire)
  std::vector<Recorder> recorders_;                    ///< per thread
  std::string error_;
};

/// The program's counters against what the client counted.
std::vector<CheckResult> check_counts(Deployment& d,
                                      std::uint64_t requests,
                                      std::uint64_t words);

}  // namespace perfbench
