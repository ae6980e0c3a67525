#include "layers.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/hybrid_prng.hpp"
#include "net/frame.hpp"
#include "sim/device.hpp"
#include "simd/simd.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Where the timed frame work lands, so the compiler keeps it.
volatile std::size_t g_sink = 0;

/// Median over 15 blocks of the mean time per call of `fn`, with the block
/// size chosen so a block lasts about 4 ms.
template <class Fn>
double seconds_per_call(Fn&& fn) {
  const Clock::time_point c0 = Clock::now();
  fn();
  const double one = std::chrono::duration<double>(Clock::now() - c0).count();
  const auto calls = static_cast<std::size_t>(
      std::clamp(4e-3 / std::max(one, 1e-9), 1.0, 1e6));
  std::vector<double> blocks;
  for (int b = 0; b < 15; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    blocks.push_back(std::chrono::duration<double>(Clock::now() - t0).count() /
                     static_cast<double>(calls));
  }
  std::nth_element(blocks.begin(), blocks.begin() + 7, blocks.end());
  return blocks[7];
}

template <class Fn>
double timed_layer(const std::string& name, const SpanFn& span, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  const double s = seconds_per_call(fn);
  span(name, t0, Clock::now());
  return s;
}

}  // namespace

LayerTimes time_layers(const PassShape& shape, const SpanFn& span) {
  namespace hc = hprng::core;
  namespace simd = hprng::simd;
  LayerTimes t;

  // core: one serve pass on a standalone device, no worker pool.
  hprng::sim::Device device(hprng::sim::DeviceSpec::tesla_c1060(), nullptr);
  hc::HybridPrngConfig cfg;
  cfg.seed = shape.seed;
  cfg.walk_len = shape.walk_len;
  cfg.num_threads = shape.leases_per_shard;
  hc::HybridPrng prng(device, cfg);
  const std::uint64_t walks =
      std::clamp<std::uint64_t>(shape.walks, 1, shape.leases_per_shard);
  prng.initialize(walks);
  std::vector<std::vector<std::uint64_t>> outs(
      walks, std::vector<std::uint64_t>(shape.words));
  std::vector<hc::HybridPrng::LeasedDraw> draws;
  for (std::uint64_t w = 0; w < walks; ++w) draws.push_back({w, outs[w]});
  t.core_pass_us =
      timed_layer("core.fill_leased", span,
                  [&] { (void)prng.fill_leased(draws); }) * 1e6;

  // host: the counter feed of one pass.
  const std::uint64_t wpd = prng.words_per_draw();
  const std::size_t feed_words = wpd * shape.words * walks;
  std::vector<std::uint32_t> feed(feed_words);
  std::uint64_t pos = 0;
  t.feed_ns_per_word =
      timed_layer("host.derive_fill_u32", span, [&] {
        simd::derive_fill_u32(shape.seed, pos, feed.data(), feed.size());
        pos += feed.size();
      }) * 1e9 / static_cast<double>(feed_words);

  // expander: the walk kernel at the pass's lane count.
  const int lanes = static_cast<int>(
      std::min<std::uint64_t>(walks, simd::kWalkGroup));
  std::vector<simd::WalkLane> lane(static_cast<std::size_t>(lanes));
  std::vector<std::vector<std::uint64_t>> lane_out(
      lane.size(), std::vector<std::uint64_t>(shape.words));
  for (std::size_t l = 0; l < lane.size(); ++l) {
    lane[l].x = static_cast<std::uint32_t>(shape.seed >> (l % 32));
    lane[l].y = static_cast<std::uint32_t>(l * 0x9E3779B9u);
    lane[l].bits = feed.data() + l * wpd * shape.words;
    lane[l].out = lane_out[l].data();
  }
  t.walk_ns_per_step =
      timed_layer("expander.walk_draws", span, [&] {
        simd::walk_draws(lane.data(), lanes, shape.words,
                         static_cast<std::uint32_t>(wpd), shape.walk_len,
                         hprng::expander::NeighborPolicy::kMod7, false);
      }) * 1e9 /
      (static_cast<double>(lanes) * static_cast<double>(shape.words) *
       shape.walk_len);

  // net: the workload's fill and fill-ack frames.
  namespace hn = hprng::net;
  hn::Frame fill;
  fill.op = hn::Op::kFill;
  fill.request_id = 7;
  {
    hn::WireWriter w;
    w.put_u64(1);
    w.put_u32(static_cast<std::uint32_t>(shape.words));
    w.put_u32(0);
    fill.payload = w.take();
  }
  hn::Frame ack;
  ack.op = hn::Op::kFillAck;
  ack.request_id = 7;
  {
    hn::WireWriter w;
    w.put_u64(1);
    w.put_u32(0);
    w.put_u32(static_cast<std::uint32_t>(shape.words));
    w.put_words(outs.front());
    ack.payload = w.take();
  }
  std::size_t sink = 0;
  t.encode_ns = timed_layer("net.encode", span, [&] {
                  sink += hn::encode(fill).size() + hn::encode(ack).size();
                }) * 1e9;
  const std::string fill_bytes = hn::encode(fill);
  const std::string ack_bytes = hn::encode(ack);
  t.decode_ns = timed_layer("net.decode", span, [&] {
                  hn::Frame f;
                  std::size_t used = 0;
                  (void)hn::decode(fill_bytes, &f, &used, nullptr);
                  sink += used;
                  (void)hn::decode(ack_bytes, &f, &used, nullptr);
                  sink += used + f.payload.size();
                }) * 1e9;
  g_sink = sink;
  return t;
}

}  // namespace perfbench
