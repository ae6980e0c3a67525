#pragma once

// Per-layer timings: calls into each layer's public functions, made by the
// benchmark itself with the pass shape a workload actually produced.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace perfbench {

/// The shape of one serve pass as the workload produced it.
struct PassShape {
  int walk_len = 8;
  std::uint64_t walks = 1;           ///< walks (requests) per pass
  std::size_t words = 16;            ///< draws per walk (request words)
  std::uint64_t leases_per_shard = 64;
  std::uint64_t seed = 0;
};

struct LayerTimes {
  double core_pass_us = 0;        ///< HybridPrng::fill_leased, one pass
  double feed_ns_per_word = 0;    ///< simd::derive_fill_u32, per feed word
  double walk_ns_per_step = 0;    ///< simd::walk_draws, per walk step
  double encode_ns = 0;           ///< net::encode, fill + fill-ack frames
  double decode_ns = 0;           ///< net::decode, fill + fill-ack frames
};

/// Called once per timed layer with its name and wall span, for the trace.
using SpanFn = std::function<void(const std::string& layer,
                                  std::chrono::steady_clock::time_point start,
                                  std::chrono::steady_clock::time_point end)>;

LayerTimes time_layers(const PassShape& shape, const SpanFn& span);

}  // namespace perfbench
