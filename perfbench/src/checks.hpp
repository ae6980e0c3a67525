#pragma once

// Output checks of the benchmark. Every check tests a property the method
// must have — none compares against a stored copy of earlier output:
//
//  * consecutive words of one lease are exactly walk_len forward
//    Gabber–Galil steps apart (an own copy of the seven affine maps,
//    searched meet-in-the-middle);
//  * a lease's served stream equals the stream a fresh service with the
//    same seed serves the same lease through a different request split;
//  * no 64-bit word appears in two leases of the sample;
//  * every one of the 64 bit positions is balanced over all served words;
//  * the client's request and word counts equal the program's own.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "serve/options.hpp"

namespace perfbench {

/// Largest |z| of any bit position that the balance check accepts. For a
/// fair source the chance that one of 64 positions exceeds it is ~4e-7.
inline constexpr double kMaxBitZ = 5.5;

/// Walk lengths up to this are checked step by step (7^(len/2) vertices
/// are enumerated from each end of a pair).
inline constexpr int kMaxCheckedWalkLen = 10;

/// True when `b` is reached from `a` by exactly `steps` forward
/// Gabber–Galil steps (any of the 7^steps neighbour sequences).
bool gg_reachable(std::uint64_t a, std::uint64_t b, int steps);

/// 64-bit stream digest, order sensitive.
struct StreamHash {
  std::uint64_t h = 0x6A09E667F3BCC909ull;
  std::uint64_t words = 0;
  void add(std::span<const std::uint64_t> ws);
  friend bool operator==(const StreamHash&, const StreamHash&) = default;
};

/// Per-position one-bit counts over a word stream, kept as per-byte value
/// histograms (eight increments per word instead of 64).
class BitBalance {
 public:
  void add(std::span<const std::uint64_t> ws);
  void merge(const BitBalance& other);
  [[nodiscard]] std::uint64_t words() const { return words_; }
  /// Largest |z| = |ones - n/2| / (sqrt(n)/2) over the 64 positions.
  [[nodiscard]] double max_abs_z() const;

 private:
  std::array<std::array<std::uint64_t, 256>, 8> counts_{};
  std::uint64_t words_ = 0;
};

/// What the client saw of one lease.
struct LeaseRecord {
  std::uint64_t requests = 0;
  std::uint64_t words = 0;
  std::uint64_t last = 0;
  bool replay = false;  ///< digest the whole stream (replay sample)
  StreamHash hash;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> boundaries;
  std::vector<std::uint64_t> sample;  ///< words of sampled requests
};

/// Client-side record of everything served, fed in per-lease order.
class Recorder {
 public:
  static constexpr std::size_t kMaxBoundaries = 16;
  static constexpr std::size_t kSampleWords = 32;

  /// Every `sample_every`-th request of a lease (from `phase`) contributes
  /// its boundary with the previous request and its first words.
  Recorder(std::size_t leases, std::uint64_t sample_every,
           std::uint64_t phase);

  void mark_replay(std::size_t lease) { leases_[lease].replay = true; }
  void record(std::size_t lease, std::span<const std::uint64_t> words);
  /// Append another recorder's leases (disjoint lease sets).
  void append(Recorder&& other);

  [[nodiscard]] const std::vector<LeaseRecord>& leases() const {
    return leases_;
  }
  [[nodiscard]] const BitBalance& bits() const { return bits_; }
  [[nodiscard]] std::uint64_t requests() const;
  [[nodiscard]] std::uint64_t words() const;

 private:
  std::vector<LeaseRecord> leases_;
  BitBalance bits_;
  std::uint64_t every_;
  std::uint64_t phase_;
};

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Number of boundary pairs that are not walk_len steps apart.
std::size_t count_bad_pairs(
    std::span<const std::pair<std::uint64_t, std::uint64_t>> pairs,
    int walk_len);

/// (lease a, lease b) pairs sharing a word in the samples; 0 when clean.
std::size_t count_cross_lease_dups(
    const std::vector<std::vector<std::uint64_t>>& samples);

/// Open `n_leases` sessions on a fresh service built from `opts` (the
/// same open order gives the same leases) and serve each lease listed in
/// `words_per_lease` (lease index -> words) in requests of `chunk` words,
/// handing every request to `sink`. Returns false on a failed request.
bool replay(const hprng::serve::ServiceOptions& opts, std::size_t n_leases,
            const std::vector<std::pair<std::size_t, std::uint64_t>>&
                words_per_lease,
            std::size_t chunk,
            const std::function<void(std::size_t,
                                     std::span<const std::uint64_t>)>& sink);

/// The checks common to every workload, over a finished Recorder:
/// boundary steps (walk_len <= kMaxCheckedWalkLen), replay of the
/// replay-sampled leases, cross-lease duplicates and bit balance.
std::vector<CheckResult> check_streams(const Recorder& rec,
                                       const hprng::serve::ServiceOptions&
                                           opts);

/// Shows that each check can fail: feeds them a real stream with two
/// requests swapped, a splice of two leases, a one-bit flip, a word shared
/// by two leases and a stuck bit, and expects every one rejected (and the
/// untouched stream accepted).
std::vector<CheckResult> self_test(std::uint64_t seed);

}  // namespace perfbench
