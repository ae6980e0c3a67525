#include "listrank/hybrid_rank.hpp"

#include <algorithm>
#include <cmath>

#include "core/calibration.hpp"
#include "host/bit_feeder.hpp"
#include "prng/mt19937.hpp"
#include "prng/seed_seq.hpp"
#include "prng/splitmix64.hpp"
#include "util/check.hpp"

namespace hprng::listrank {
namespace {

// Per-node device issue costs (same calibration altitude as the walk kernel;
// see core/calibration.hpp for the provenance discipline).
constexpr double kFlipOpsPerNode = 20.0;     // write one coin bit
constexpr double kSelectOpsPerNode = 70.0;   // 3 bit loads + splice stores
constexpr double kCompactOpsPerNode = 12.0;  // stream compaction amortised
constexpr double kInsertOpsPerNode = 40.0;   // one load + one store chain
/// Host-side cost of ranking one node of the Phase-II remainder on the
/// multicore CPU (random-access bound; 6 i7 cores walking splitter chains).
constexpr double kHostPhase2NsPerNode = 18.0;
/// The provable whp bound used by [3] to pre-size randomness: at least a
/// 1/24 fraction of nodes leaves per iteration (cf. [12]).
constexpr double kFisGuaranteedFraction = 1.0 / 24.0;

}  // namespace

const char* to_string(RngStrategy s) {
  switch (s) {
    case RngStrategy::kOnDemandHybrid: return "hybrid-ondemand";
    case RngStrategy::kPregenHostGlibc: return "hybrid-glibc-pregen";
    case RngStrategy::kPregenDeviceMt: return "pure-gpu-mt";
  }
  return "?";
}

struct HybridListRanker::Reduction {
  // Device-resident list state.
  sim::Buffer<std::uint32_t> succ, pred, w, bits, active[2], pregen;
  std::uint32_t active_count = 0;
  int active_slot = 0;
  // Removal log for Phase III: ids grouped by iteration, and per-node
  // parent / parent-weight snapshots taken at removal time.
  std::vector<std::vector<std::uint32_t>> removed_by_iter;
  std::vector<std::uint32_t> rec_parent, rec_wparent;
};

HybridListRanker::HybridListRanker(sim::Device& device,
                                   core::HybridPrng* hybrid,
                                   RngStrategy strategy, std::uint64_t seed)
    : device_(device), hybrid_(hybrid), strategy_(strategy), seed_(seed) {
  HPRNG_CHECK(strategy != RngStrategy::kOnDemandHybrid || hybrid != nullptr,
              "on-demand strategy needs a HybridPrng");
}

ReduceStats HybridListRanker::reduce_impl(const LinkedList& list,
                                          Reduction& red) {
  const std::uint32_t n = list.size();
  red.succ.resize(n);
  red.pred.resize(n);
  red.w.resize(n);
  red.bits.resize(n);
  red.active[0].resize(n);
  red.active[1].resize(n);
  red.rec_parent.assign(n, kNil);
  red.rec_wparent.assign(n, 0);
  {
    auto s = red.succ.device_span();
    auto p = red.pred.device_span();
    auto w = red.w.device_span();
    auto a = red.active[0].device_span();
    for (std::uint32_t i = 0; i < n; ++i) {
      s[i] = list.succ[i];
      p[i] = list.pred[i];
      w[i] = 1;
      a[i] = i;
    }
  }
  red.active_count = n;
  red.active_slot = 0;

  const std::uint32_t target = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(
             static_cast<double>(n) / std::log2(std::max(4u, n))));

  host::BitFeeder pregen_feeder(device_.spec(), "glibc-rand", seed_);
  std::vector<std::uint32_t> pregen_host;
  prng::Mt19937 seed_mixer(static_cast<std::uint32_t>(seed_));
  double pregen_bound = static_cast<double>(n);

  // Algorithm 1 (one-time generator initialisation) runs in pre-processing,
  // outside the timed iteration loop — matching how the generator figures
  // exclude the one-time setup.
  if (strategy_ == RngStrategy::kOnDemandHybrid) hybrid_->initialize(n);

  sim::Stream compute;
  ReduceStats stats;
  device_.engine().fence();  // timed window starts on an idle machine
  const double sim_start = device_.engine().now();

  while (red.active_count > target && stats.iterations < 96) {
    const std::uint32_t active = red.active_count;
    const int slot = red.active_slot;
    auto active_span = red.active[slot].device_span();

    // ---- 1. Acquire this iteration's coin flips into bits[u]. ----------
    sim::OpId flip;
    switch (strategy_) {
      case RngStrategy::kOnDemandHybrid: {
        auto round = hybrid_->begin_round(active, 1);
        flip = device_.launch(
            compute, "Flip", active,
            sim::KernelCost{
                kFlipOpsPerNode + hybrid_->device_ops_for_draws_inline(1),
                12.0},
            [this, round, active_span,
             bits = red.bits.device_span()](std::uint64_t tid) {
              auto rng = hybrid_->thread_rng(round, tid);
              bits[active_span[static_cast<std::size_t>(tid)]] =
                  static_cast<std::uint32_t>(rng.next() & 1u);
            },
            {round.ready});
        hybrid_->end_round(round, flip);
        stats.random_words_used += active * hybrid_->words_per_draw();
        stats.random_words_provisioned += active * hybrid_->words_per_draw();
        break;
      }
      case RngStrategy::kPregenHostGlibc: {
        // [3]: the CPU cannot know the surviving count, so it generates the
        // provable upper bound worth of numbers and ships all of them.
        const auto bound = static_cast<std::uint32_t>(pregen_bound);
        if (red.pregen.size() < bound || pregen_host.size() < bound) {
          device_.synchronize();
          red.pregen.resize(bound);
          pregen_host.resize(bound);
        }
        sim::Stream feed_stream;
        const sim::OpId feed = device_.host_task(
            feed_stream, "FEED", pregen_feeder.seconds_for_words(bound),
            [&pregen_feeder, &pregen_host, bound] {
              pregen_feeder.fill(std::span(pregen_host).first(bound));
            });
        sim::Stream xfer;
        const sim::OpId copy = device_.memcpy_h2d(
            xfer,
            std::span<const std::uint32_t>(pregen_host).first(bound),
            red.pregen, {feed});
        flip = device_.launch(
            compute, "Flip", active, sim::KernelCost{kFlipOpsPerNode, 12.0},
            [active_span, pregen = red.pregen.device_span(),
             bits = red.bits.device_span()](std::uint64_t tid) {
              bits[active_span[static_cast<std::size_t>(tid)]] =
                  pregen[static_cast<std::size_t>(tid)] & 1u;
            },
            {copy});
        stats.random_words_used += active;
        stats.random_words_provisioned += bound;
        break;
      }
      case RngStrategy::kPregenDeviceMt:
      default: {
        const auto bound = static_cast<std::uint32_t>(pregen_bound);
        if (red.pregen.size() < bound) {
          device_.synchronize();
          red.pregen.resize(bound);
        }
        // Batch generation on the GPU itself: 4096 twisters, CPU idle.
        const std::uint32_t pool = std::min<std::uint32_t>(4096, bound);
        const std::uint32_t per_thread = (bound + pool - 1) / pool;
        const std::uint32_t kernel_seed = seed_mixer.next_u32();
        const sim::OpId gen = device_.launch(
            compute, "GenMT", pool,
            sim::KernelCost{core::kMtDeviceOpsPerNumber * per_thread / 2.0,
                            4.0 * per_thread},
            [pregen = red.pregen.device_span(), per_thread, bound,
             kernel_seed](std::uint64_t tid) {
              const std::uint64_t begin = tid * per_thread;
              const std::uint64_t end =
                  std::min<std::uint64_t>(bound, begin + per_thread);
              if (begin >= end) return;
              prng::Mt19937 g(static_cast<std::uint32_t>(
                  prng::SeedSequence(kernel_seed).derive(tid)));
              for (std::uint64_t i = begin; i < end; ++i) {
                pregen[static_cast<std::size_t>(i)] = g.next_u32();
              }
            });
        flip = device_.launch(
            compute, "Flip", active, sim::KernelCost{kFlipOpsPerNode, 12.0},
            [active_span, pregen = red.pregen.device_span(),
             bits = red.bits.device_span()](std::uint64_t tid) {
              bits[active_span[static_cast<std::size_t>(tid)]] =
                  pregen[static_cast<std::size_t>(tid)] & 1u;
            },
            {gen});
        stats.random_words_used += active;
        stats.random_words_provisioned += bound;
        break;
      }
    }
    pregen_bound *= 1.0 - kFisGuaranteedFraction;

    // ---- 2. Select the FIS and splice its nodes out. --------------------
    // b(u) = 1 and both neighbours 0; list ends never join the FIS (their
    // missing neighbour counts as a 1), keeping the head stable for
    // Phase II. Removed nodes are pairwise non-adjacent, so the splice
    // writes of distinct threads never alias (see the analysis in tests).
    const sim::OpId select = device_.launch(
        compute, "Select", active,
        sim::KernelCost{kSelectOpsPerNode, 40.0},
        [active_span, bits = red.bits.device_span(),
         succ = red.succ.device_span(), pred = red.pred.device_span(),
         w = red.w.device_span(), rec_p = red.rec_parent.data(),
         rec_w = red.rec_wparent.data()](std::uint64_t tid) {
          const std::uint32_t u = active_span[static_cast<std::size_t>(tid)];
          // Test b(u) before reading u's links: a splice may be rewriting
          // the links of a 0-node, never those of a 1-node.
          if (bits[u] != 1u) return;
          const std::uint32_t p = pred[u];
          const std::uint32_t s = succ[u];
          if (p == kNil || s == kNil) return;
          if (bits[p] != 0u || bits[s] != 0u) return;
          rec_p[u] = p;
          rec_w[u] = w[p];
          w[p] += w[u];
          succ[p] = s;
          pred[s] = p;
        },
        {flip});

    // ---- 3. Compact the survivors (stream compaction; the one-word count
    //         readback is the paper's per-iteration synchronisation). ------
    const int next_slot = slot ^ 1;
    red.removed_by_iter.emplace_back();
    auto* removed_group = &red.removed_by_iter.back();
    device_.launch(
        compute, "Compact", active,
        sim::KernelCost{kCompactOpsPerNode, 8.0},
        [this, &red, active_span, next_slot, active,
         removed_group](std::uint64_t tid) {
          if (tid != 0) return;  // compaction modelled as one scan pass
          auto out = red.active[next_slot].device_span();
          const auto* rec_p = red.rec_parent.data();
          std::uint32_t kept = 0;
          for (std::uint32_t i = 0; i < active; ++i) {
            const std::uint32_t u = active_span[i];
            if (rec_p[u] == kNil) {
              out[kept++] = u;
            } else {
              removed_group->push_back(u);
            }
          }
          red.active_count = kept;
        },
        {select});
    // Counter readback (4 bytes over PCIe) before the host can loop.
    sim::Stream d2h;
    static std::uint32_t counter_landing_zone;
    sim::Buffer<std::uint32_t> dummy(1);
    device_.memcpy_d2h(d2h, dummy,
                       std::span<std::uint32_t>(&counter_landing_zone, 1));
    device_.synchronize();
    red.active_slot = next_slot;
    ++stats.iterations;
    // rec_parent doubles as the removed-flag; nodes removed this iteration
    // stay marked (they are gone from the active list and never rejoin).
  }

  device_.synchronize();
  stats.sim_seconds = device_.engine().now() - sim_start;
  stats.remaining_nodes = red.active_count;
  return stats;
}

ReduceStats HybridListRanker::reduce_only(const LinkedList& list) {
  Reduction red;
  return reduce_impl(list, red);
}

RankResult HybridListRanker::rank(const LinkedList& list) {
  RankResult result;
  Reduction red;
  result.reduce = reduce_impl(list, red);

  const std::uint32_t n = list.size();
  sim::Buffer<std::uint32_t> rank_buf(n);

  // ---- Phase II: rank the <= n/log n remainder on the host with the
  // weighted Helman-JaJa of [10], as [3] does: s splitters walk their
  // sublists in parallel (multicore host), the short splitter chain is
  // ranked sequentially, and a final parallel pass adds the offsets. -------
  {
    sim::Stream host_stream;
    device_.engine().fence();
    const double t0 = device_.engine().now();
    const std::uint32_t m = red.active_count;
    const std::uint32_t splitter_count = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::sqrt(static_cast<double>(std::max(1u, m)))));
    // Host cost model: the walks and the apply pass split across the
    // 6-core host; the splitter-chain ranking is sequential but tiny.
    const double walk_cost =
        static_cast<double>(m) * kHostPhase2NsPerNode * 1e-9;
    const double chain_cost =
        static_cast<double>(splitter_count) * 50e-9;
    device_.host_task(
        host_stream, "Phase2", walk_cost + chain_cost,
        [&red, &rank_buf, &list, splitter_count] {
          auto ranks = rank_buf.device_span();
          auto succ = red.succ.device_span();
          auto w = red.w.device_span();
          // Collect the remaining chain's nodes to pick splitters evenly
          // (deterministic; [10] picks them randomly — equivalent here).
          const auto slot_span =
              red.active[red.active_slot].device_span();
          const std::uint32_t m_nodes = red.active_count;
          // Mark every ceil(m/s)-th active node a splitter, plus the head.
          std::vector<std::uint32_t> splitters;
          splitters.reserve(splitter_count + 1);
          splitters.push_back(list.head);
          const std::uint32_t stride =
              std::max<std::uint32_t>(1, m_nodes / splitter_count);
          std::vector<char> splitter_flag;  // indexed by node id lazily
          splitter_flag.assign(succ.size(), 0);
          splitter_flag[list.head] = 1;
          for (std::uint32_t i = 0; i < m_nodes; i += stride) {
            const std::uint32_t u = slot_span[i];
            if (!splitter_flag[u]) {
              splitter_flag[u] = 1;
              splitters.push_back(u);
            }
          }
          // Each splitter walks to the next splitter, accumulating the
          // weighted local rank (parallelisable across splitters).
          const std::uint32_t s =
              static_cast<std::uint32_t>(splitters.size());
          std::vector<std::uint32_t> sublist_len(s, 0), sublist_next(s, kNil);
          std::vector<std::uint32_t> sublist_of_splitter(succ.size(), kNil);
          for (std::uint32_t i = 0; i < s; ++i) {
            sublist_of_splitter[splitters[i]] = i;
          }
          for (std::uint32_t i = 0; i < s; ++i) {
            std::uint32_t u = splitters[i];
            std::uint32_t acc = 0;
            for (;;) {
              ranks[u] = acc;  // local (within-sublist) weighted rank
              acc += w[u];
              const std::uint32_t next = succ[u];
              if (next == kNil || splitter_flag[next]) {
                sublist_len[i] = acc;
                sublist_next[i] = next;
                break;
              }
              u = next;
            }
          }
          // Rank the (short) chain of sublists sequentially.
          std::vector<std::uint32_t> offset(s, 0);
          std::uint32_t cur = 0;  // the head's sublist
          std::uint32_t acc = 0;
          for (std::uint32_t count = 0; count < s; ++count) {
            offset[cur] = acc;
            acc += sublist_len[cur];
            if (sublist_next[cur] == kNil) break;
            cur = sublist_of_splitter[sublist_next[cur]];
          }
          // Final pass: global rank = sublist offset + local rank
          // (parallelisable; we fold it into the same walk structure).
          for (std::uint32_t i = 0; i < s; ++i) {
            std::uint32_t u = splitters[i];
            for (;;) {
              ranks[u] += offset[i];
              const std::uint32_t next = succ[u];
              if (next == kNil || splitter_flag[next]) break;
              u = next;
            }
          }
        });
    device_.synchronize();
    result.phase2_sim_seconds = device_.engine().now() - t0;
  }

  // ---- Phase III: re-insert removal groups in reverse order. -------------
  {
    sim::Stream compute;
    device_.engine().fence();
    const double t0 = device_.engine().now();
    for (auto it = red.removed_by_iter.rbegin();
         it != red.removed_by_iter.rend(); ++it) {
      if (it->empty()) continue;
      const std::vector<std::uint32_t>* group = &*it;
      device_.launch(
          compute, "Insert", group->size(),
          sim::KernelCost{kInsertOpsPerNode, 16.0},
          [group, &red, ranks = rank_buf.device_span()](std::uint64_t tid) {
            const std::uint32_t u = (*group)[static_cast<std::size_t>(tid)];
            ranks[u] = ranks[red.rec_parent[u]] + red.rec_wparent[u];
          });
    }
    device_.synchronize();
    result.phase3_sim_seconds = device_.engine().now() - t0;
  }

  result.ranks.assign(rank_buf.device_span().begin(),
                      rank_buf.device_span().end());
  return result;
}

}  // namespace hprng::listrank
