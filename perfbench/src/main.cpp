// perfbench — the repository's benchmark driver. Runs one workload for a
// fixed amount of work, checks what was served, and prints one JSON line:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--spawn-ns T]
//   perfbench --self-test [--seed N]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and again traced, times each layer, prints the per-layer
// metrics and writes a Chrome trace to DIR. --spawn-ns is the
// CLOCK_MONOTONIC time (ns) at which the parent started this process;
// setup_s counts from there, or from main when it is not given. See
// README.md.

#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/simd.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5;
  int trace = 0;
  bool self_test = false;
  std::string out_dir = "perfbench/out";
  std::int64_t spawn_ns = 0;  ///< 0: not given
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--spawn-ns T]\n"
               "       perfbench --self-test [--seed N]\nworkloads:",
               why);
  for (const std::string& n : shape_names()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--spawn-ns") {
      a.spawn_ns = std::stoll(v);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// The machine the numbers came from; figures from different
/// fingerprints are not comparable.
std::string fingerprint() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname u{};
  uname(&u);
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + json_escape(cpu) + "\", \"kernel\": \"" +
         json_escape(std::string(u.sysname) + " " + u.release) +
         "\", \"build\": \"" PERFBENCH_BUILD_TYPE "\", \"simd\": \"" +
         hprng::simd::kernel_name() + "\", \"pool_workers\": 0}";
}

struct Metric {
  double value;
  const char* unit;
};

bool report_checks(const std::vector<CheckResult>& checks) {
  bool ok = true;
  for (const CheckResult& c : checks) {
    std::fprintf(stderr, "check %-26s %s  %s\n", c.name.c_str(),
                 c.ok ? "ok  " : "FAIL", c.detail.c_str());
    ok = ok && c.ok;
  }
  return ok;
}

double mean_of(const hprng::obs::Histogram& h) {
  return h.count() == 0 ? 0.0 : h.sum() / static_cast<double>(h.count());
}

/// CLOCK_MONOTONIC now, in ns: the clock the parent stamps --spawn-ns with.
std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int run(const Args& args, Clock::time_point t_start,
        std::int64_t start_ns) {
  const std::optional<Shape> found = find_shape(args.workload);
  if (!found) usage(("unknown workload '" + args.workload + "'").c_str());
  const Shape shape = *found;
  const hprng::serve::ServiceOptions opts =
      service_options(shape, args.seed);

  // Fixed work: whole rounds, sized from --seconds; a twentieth more as
  // warm-up before the timed phase.
  const std::uint64_t round = shape.round();
  const auto timed = static_cast<std::uint64_t>(std::max(
      1.0, std::round(args.seconds * shape.requests_per_second / round)));
  const std::uint64_t warm = std::max<std::uint64_t>(1, timed / 20);
  const std::uint64_t expected = (warm + timed) * round;
  const std::string sock =
      args.out_dir + "/wire-" + std::to_string(::getpid()) + ".sock";

  std::vector<CheckResult> checks;
  std::uint64_t attempted = 0, failed = 0;
  const auto tally = [&](const PhaseResult& p) {
    attempted += p.attempted;
    failed += p.failed;
  };

  hprng::obs::TraceWriter tw;
  const int phase_track = tw.add_track(1, "phases");
  const int layer_track = tw.add_track(1, "layers");
  const auto since = [&](Clock::time_point t) {
    return seconds_between(t_start, t);
  };
  const auto phase_span = [&](const char* name, Clock::time_point a) {
    tw.add_span(1, phase_track, name, since(a), since(Clock::now()));
  };

  // -- Phase A: the measured run (untraced). -----------------------------
  PhaseResult a;
  double setup_s = 0, hwm_kb = 0;
  std::uint64_t a_words_total = 0;
  Recorder rec(0, 1, 0);
  double net_bytes_per_word = 0;
  {
    Deployment d(shape, opts, args.seed, expected, nullptr, sock);
    setup_s = static_cast<double>(monotonic_ns() - start_ns) * 1e-9;
    phase_span("setup", t_start);
    if (!d.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   d.error().c_str());
      return 1;
    }
    Clock::time_point t = Clock::now();
    const PhaseResult w = d.run(warm);
    phase_span("warm-up", t);
    t = Clock::now();
    a = d.run(timed);
    phase_span("timed", t);
    hwm_kb = proc_status_kb("VmHWM");
    tally(w);
    tally(a);
    a_words_total = w.words + a.words;
    const auto counts =
        check_counts(d, w.attempted - w.failed + a.attempted - a.failed,
                     a_words_total);
    checks.insert(checks.end(), counts.begin(), counts.end());
    if (d.server() != nullptr) {
      const auto ss = d.server()->stats();
      net_bytes_per_word = static_cast<double>(ss.bytes_rx + ss.bytes_tx) /
                           static_cast<double>(a_words_total);
    }
    rec = d.take_recorder();
  }
  {
    const Clock::time_point t = Clock::now();
    const auto streams = check_streams(rec, opts);
    checks.insert(checks.end(), streams.begin(), streams.end());
    const auto self = self_test(mix64(args.seed));
    checks.insert(checks.end(), self.begin(), self.end());
    phase_span("checks", t);
  }

  std::vector<std::pair<std::string, Metric>> metrics;
  if (args.trace == 0) {
    metrics = {
        {"words_per_s", {a.words_per_s(), "words/s"}},
        {"latency_p50_us", {a.latency_quantile_us(0.50), "us"}},
        {"latency_p99_us", {a.latency_quantile_us(0.99), "us"}},
        {"cpu_ns_per_word", {a.cpu_s / static_cast<double>(a.words) * 1e9,
                             "ns/word"}},
        {"peak_rss_mb", {hwm_kb / 1024.0, "MB"}},
        {"setup_s", {setup_s, "s"}},
    };
  } else {
    // -- Phase B: the same run with the metrics registry attached. -------
    hprng::obs::MetricsRegistry reg;
    PhaseResult b;
    hprng::serve::RngService::Stats bs;
    {
      Clock::time_point t = Clock::now();
      Deployment d(shape, opts, args.seed, expected, &reg, sock);
      if (!d.ok()) {
        std::fprintf(stderr, "perfbench: traced set-up failed: %s\n",
                     d.error().c_str());
        return 1;
      }
      phase_span("traced set-up", t);
      tally(d.run(warm));
      t = Clock::now();
      b = d.run(timed, 4000);
      phase_span("traced", t);
      tally(b);
      bs = d.service().stats();
    }
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      tw.add_async_span(1, "request", i,
                        "lease " + std::to_string(b.spans[i].lease),
                        since(b.spans[i].submit), since(b.spans[i].done));
    }
    const double per_pass = static_cast<double>(bs.completed) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, bs.batches));
    const double queue_us =
        mean_of(reg.histogram("hprng.serve.queue_wait_seconds")) * 1e6;
    const double pass_us =
        mean_of(reg.histogram("hprng.serve.fill_wall_seconds")) * 1e6;

    // -- Phase C: the same shape on the other side of the wire. ----------
    Shape other = shape;
    other.wire = !shape.wire;
    const std::uint64_t c_rounds = std::max<std::uint64_t>(1, timed / 4);
    PhaseResult c;
    {
      Clock::time_point t = Clock::now();
      Deployment d(other, opts, args.seed, (warm + c_rounds) * round,
                   nullptr, sock);
      if (!d.ok()) {
        std::fprintf(stderr, "perfbench: comparison set-up failed: %s\n",
                     d.error().c_str());
        return 1;
      }
      tally(d.run(warm));
      c = d.run(c_rounds);
      tally(c);
      if (d.server() != nullptr) {
        const auto ss = d.server()->stats();
        net_bytes_per_word =
            static_cast<double>(ss.bytes_rx + ss.bytes_tx) /
            static_cast<double>(d.service().stats().numbers_served);
      }
      phase_span(other.wire ? "over the wire" : "in-process", t);
    }
    const double wire_mean = shape.wire ? a.mean_latency_us()
                                        : c.mean_latency_us();
    const double local_mean = shape.wire ? c.mean_latency_us()
                                         : a.mean_latency_us();

    // -- Phase D: each layer's public functions at the measured shape. ---
    PassShape ps;
    ps.walk_len = shape.walk_len;
    ps.walks = static_cast<std::uint64_t>(std::max(1.0, std::round(per_pass)));
    ps.words = shape.words;
    ps.leases_per_shard = opts.max_leases_per_shard;
    ps.seed = opts.seed;
    const LayerTimes lt = time_layers(
        ps, [&](const std::string& name, Clock::time_point s,
                Clock::time_point e) {
          tw.add_span(1, layer_track, name, since(s), since(e));
        });

    metrics = {
        {"serve.requests_per_pass", {per_pass, "requests/pass"}},
        {"serve.queue_wait_us", {queue_us, "us"}},
        {"serve.pass_wall_us", {pass_us, "us"}},
        {"serve.wake_us", {b.mean_latency_us() - queue_us - pass_us, "us"}},
        {"core.pass_us", {lt.core_pass_us, "us"}},
        {"host.feed_ns_per_word", {lt.feed_ns_per_word, "ns/word"}},
        {"expander.walk_ns_per_step", {lt.walk_ns_per_step, "ns/step"}},
        {"sim.retained_bytes_per_request",
         {(a.rss_after_kb - a.rss_before_kb) * 1024.0 /
              static_cast<double>(a.attempted),
          "B/request"}},
        {"net.encode_ns", {lt.encode_ns, "ns"}},
        {"net.decode_ns", {lt.decode_ns, "ns"}},
        {"net.overhead_us", {wire_mean - local_mean, "us"}},
        {"net.bytes_per_word", {net_bytes_per_word, "B/word"}},
        {"trace.overhead_words_per_s",
         {b.words_per_s() - a.words_per_s(), "words/s"}},
    };
    const std::string path = args.out_dir + "/trace-" + shape.name + "-" +
                             std::to_string(args.seed) + ".json";
    if (tw.write_json(path)) {
      std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
      checks.push_back({"trace_written", false, path});
    }
  }

  const bool correct = report_checks(checks);
  std::printf("machine: %s\n", fingerprint().c_str());
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].first.c_str(),
                  metrics[i].second.value, metrics[i].second.unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point t_start = Clock::now();
  const std::int64_t main_ns = monotonic_ns();
  const Args args = parse(argc, argv);
  if (args.self_test) {
    const bool ok = report_checks(self_test(mix64(args.seed)));
    std::printf("self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
  }
  if (args.workload.empty()) usage("--workload is required");
  if (args.trace != 0 && args.trace != 1) usage("--trace takes 0 or 1");
  if (args.spawn_ns > main_ns) usage("--spawn-ns lies in the future");
  return run(args, t_start, args.spawn_ns > 0 ? args.spawn_ns : main_ns);
}
