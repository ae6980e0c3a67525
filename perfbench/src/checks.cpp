#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "serve/service.hpp"

namespace perfbench {

namespace {

using Word = std::uint64_t;

// The Gabber–Galil expander on Z_m x Z_m, m = 2^32, as the paper defines
// it: vertex (x, y) is the word x << 32 | y, and its seven forward
// neighbours are (x, y), (x, 2x+y), (x, 2x+y+1), (x, 2x+y+2), (x+2y, y),
// (x+2y+1, y), (x+2y+2, y). Written out here rather than taken from the
// program, so the check does not share the program's code.
Word forward(Word v, int k) {
  const std::uint32_t x = static_cast<std::uint32_t>(v >> 32);
  const std::uint32_t y = static_cast<std::uint32_t>(v);
  std::uint32_t nx = x, ny = y;
  if (k >= 1 && k <= 3) ny = 2 * x + y + static_cast<std::uint32_t>(k - 1);
  if (k >= 4) nx = x + 2 * y + static_cast<std::uint32_t>(k - 4);
  return (static_cast<Word>(nx) << 32) | ny;
}

/// Inverse of forward(., k).
Word backward(Word v, int k) {
  const std::uint32_t x = static_cast<std::uint32_t>(v >> 32);
  const std::uint32_t y = static_cast<std::uint32_t>(v);
  std::uint32_t nx = x, ny = y;
  if (k >= 1 && k <= 3) ny = y - 2 * x - static_cast<std::uint32_t>(k - 1);
  if (k >= 4) nx = x - 2 * y - static_cast<std::uint32_t>(k - 4);
  return (static_cast<Word>(nx) << 32) | ny;
}

/// Every vertex `steps` steps from `start` (forward or backward maps).
std::vector<Word> frontier(Word start, int steps, bool fwd) {
  std::vector<Word> cur{start}, next;
  for (int s = 0; s < steps; ++s) {
    next.clear();
    next.reserve(cur.size() * 7);
    for (const Word v : cur) {
      for (int k = 0; k < 7; ++k) next.push_back(fwd ? forward(v, k)
                                                     : backward(v, k));
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    cur.swap(next);
  }
  return cur;
}

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

}  // namespace

bool gg_reachable(Word a, Word b, int steps) {
  const std::vector<Word> from_a = frontier(a, steps / 2, true);
  for (const Word m : frontier(b, steps - steps / 2, false)) {
    if (std::binary_search(from_a.begin(), from_a.end(), m)) return true;
  }
  return false;
}

void StreamHash::add(std::span<const Word> ws) {
  for (const Word w : ws) h = (std::rotl(h, 27) ^ w) * 0x9E3779B97F4A7C15ull;
  words += ws.size();
}

void BitBalance::add(std::span<const Word> ws) {
  for (const Word w : ws) {
    for (int b = 0; b < 8; ++b) ++counts_[b][(w >> (8 * b)) & 0xFF];
  }
  words_ += ws.size();
}

void BitBalance::merge(const BitBalance& other) {
  for (int b = 0; b < 8; ++b) {
    for (int v = 0; v < 256; ++v) counts_[b][v] += other.counts_[b][v];
  }
  words_ += other.words_;
}

double BitBalance::max_abs_z() const {
  if (words_ == 0) return 0.0;
  const double n = static_cast<double>(words_);
  double worst = 0.0;
  for (int pos = 0; pos < 64; ++pos) {
    std::uint64_t ones = 0;
    for (int v = 0; v < 256; ++v) {
      if ((v >> (pos % 8)) & 1) ones += counts_[pos / 8][v];
    }
    const double z = (static_cast<double>(ones) - n / 2) / (std::sqrt(n) / 2);
    worst = std::max(worst, std::fabs(z));
  }
  return worst;
}

Recorder::Recorder(std::size_t leases, std::uint64_t sample_every,
                   std::uint64_t phase)
    : leases_(leases),
      every_(std::max<std::uint64_t>(1, sample_every)),
      phase_(phase % std::max<std::uint64_t>(1, sample_every)) {}

void Recorder::record(std::size_t lease, std::span<const Word> words) {
  LeaseRecord& r = leases_[lease];
  if (r.requests > 0 && (r.requests + phase_) % every_ == 0 &&
      r.boundaries.size() < kMaxBoundaries) {
    r.boundaries.emplace_back(r.last, words.front());
    const std::size_t n = std::min(kSampleWords, words.size());
    r.sample.insert(r.sample.end(), words.begin(), words.begin() + n);
  }
  if (r.replay) r.hash.add(words);
  bits_.add(words);
  r.last = words.back();
  ++r.requests;
  r.words += words.size();
}

void Recorder::append(Recorder&& other) {
  for (LeaseRecord& r : other.leases_) leases_.push_back(std::move(r));
  bits_.merge(other.bits_);
}

std::uint64_t Recorder::requests() const {
  std::uint64_t n = 0;
  for (const LeaseRecord& r : leases_) n += r.requests;
  return n;
}

std::uint64_t Recorder::words() const {
  std::uint64_t n = 0;
  for (const LeaseRecord& r : leases_) n += r.words;
  return n;
}

std::size_t count_bad_pairs(std::span<const std::pair<Word, Word>> pairs,
                            int walk_len) {
  std::size_t bad = 0;
  for (const auto& [a, b] : pairs) bad += gg_reachable(a, b, walk_len) ? 0 : 1;
  return bad;
}

std::size_t count_cross_lease_dups(
    const std::vector<std::vector<Word>>& samples) {
  std::vector<std::pair<Word, std::size_t>> all;
  for (std::size_t l = 0; l < samples.size(); ++l) {
    for (const Word w : samples[l]) all.emplace_back(w, l);
  }
  std::sort(all.begin(), all.end());
  std::size_t dups = 0;
  for (std::size_t i = 1; i < all.size(); ++i) {
    if (all[i].first == all[i - 1].first &&
        all[i].second != all[i - 1].second) {
      ++dups;
    }
  }
  return dups;
}

bool replay(const hprng::serve::ServiceOptions& opts, std::size_t n_leases,
            const std::vector<std::pair<std::size_t, std::uint64_t>>&
                words_per_lease,
            std::size_t chunk,
            const std::function<void(std::size_t, std::span<const Word>)>&
                sink) {
  hprng::serve::RngService svc(opts);
  std::vector<hprng::serve::Session> sessions;
  for (std::size_t i = 0; i < n_leases; ++i) {
    sessions.push_back(svc.open_session());
  }
  std::vector<Word> buf(chunk);
  for (const auto& [lease, words] : words_per_lease) {
    for (std::uint64_t done = 0; done < words;) {
      const std::size_t n =
          static_cast<std::size_t>(std::min<std::uint64_t>(chunk, words - done));
      const std::span<Word> out(buf.data(), n);
      if (sessions[lease].fill(out) != hprng::serve::Status::kOk) return false;
      sink(lease, out);
      done += n;
    }
  }
  return true;
}

std::vector<CheckResult> check_streams(
    const Recorder& rec, const hprng::serve::ServiceOptions& opts) {
  std::vector<CheckResult> out;
  const std::vector<LeaseRecord>& leases = rec.leases();

  // Walk steps across request boundaries, with a negative control: the
  // same search must reject pairs taken across two leases.
  if (opts.walk_len <= kMaxCheckedWalkLen) {
    std::vector<std::pair<Word, Word>> pairs, cross;
    for (std::size_t l = 0; l < leases.size(); ++l) {
      const LeaseRecord& r = leases[l];
      pairs.insert(pairs.end(), r.boundaries.begin(), r.boundaries.end());
      const LeaseRecord& next = leases[(l + 1) % leases.size()];
      if (!r.boundaries.empty() && !next.boundaries.empty() && &next != &r) {
        cross.emplace_back(r.boundaries.front().first,
                           next.boundaries.front().second);
      }
    }
    const std::size_t bad = count_bad_pairs(pairs, opts.walk_len);
    const std::size_t cross_ok =
        cross.size() - count_bad_pairs(cross, opts.walk_len);
    out.push_back({"walk_steps", !pairs.empty() && bad == 0 && cross_ok == 0,
                   fmt("%.0f boundary pairs, %.0f not walk_len apart; "
                       "%.0f cross-lease controls accepted",
                       static_cast<double>(pairs.size()),
                       static_cast<double>(bad),
                       static_cast<double>(cross_ok))});
  }

  // Replay of the sampled leases through a different request split.
  {
    std::vector<std::pair<std::size_t, std::uint64_t>> want;
    for (std::size_t l = 0; l < leases.size(); ++l) {
      if (leases[l].replay) want.emplace_back(l, leases[l].words);
    }
    std::vector<StreamHash> got(leases.size());
    const bool served = replay(opts, leases.size(), want, 1021,
                               [&](std::size_t l, std::span<const Word> ws) {
                                 got[l].add(ws);
                               });
    std::size_t mismatched = 0;
    for (const auto& [l, words] : want) {
      mismatched += got[l] == leases[l].hash ? 0 : 1;
    }
    out.push_back({"replay", served && !want.empty() && mismatched == 0,
                   fmt("%.0f leases replayed in 1021-word requests, "
                       "%.0f differ",
                       static_cast<double>(want.size()),
                       static_cast<double>(mismatched))});
  }

  {
    std::vector<std::vector<Word>> samples;
    std::size_t words = 0;
    for (const LeaseRecord& r : leases) {
      samples.push_back(r.sample);
      words += r.sample.size();
    }
    const std::size_t dups = count_cross_lease_dups(samples);
    out.push_back({"cross_lease_dups", words > 0 && dups == 0,
                   fmt("%.0f sampled words, %.0f shared across leases",
                       static_cast<double>(words),
                       static_cast<double>(dups))});
  }

  {
    const double z = rec.bits().max_abs_z();
    out.push_back({"bit_balance", rec.bits().words() > 0 && z <= kMaxBitZ,
                   fmt("max |z| %.2f over %.0f words (bound %.1f)", z,
                       static_cast<double>(rec.bits().words()), kMaxBitZ)});
  }
  return out;
}

std::vector<CheckResult> self_test(std::uint64_t seed) {
  constexpr std::size_t kRequests = 16;
  constexpr std::size_t kWords = 16;
  hprng::serve::ServiceOptions opts;
  opts.walk_len = 8;
  opts.num_shards = 2;
  opts.num_workers = 1;
  opts.parallel_kernels = false;
  opts.seed = seed;

  // Two leases' real streams, served in 16-word requests.
  std::vector<std::vector<Word>> streams(2);
  {
    hprng::serve::RngService svc(opts);
    std::vector<hprng::serve::Session> sessions{svc.open_session(),
                                                svc.open_session()};
    std::vector<Word> buf(kWords);
    for (std::size_t r = 0; r < kRequests; ++r) {
      for (std::size_t l = 0; l < 2; ++l) {
        if (sessions[l].fill(buf) != hprng::serve::Status::kOk) {
          return {{"selftest.serve", false, "a self-test fill failed"}};
        }
        streams[l].insert(streams[l].end(), buf.begin(), buf.end());
      }
    }
  }
  const std::size_t n = streams[0].size();
  StreamHash replayed;
  replay(opts, 2, {{0, n}}, 7,
         [&](std::size_t, std::span<const Word> ws) { replayed.add(ws); });

  const auto chain_ok = [&](const std::vector<Word>& s) {
    for (std::size_t i = 1; i < s.size(); ++i) {
      if (!gg_reachable(s[i - 1], s[i], opts.walk_len)) return false;
    }
    return true;
  };
  const auto replay_ok = [&](const std::vector<Word>& s) {
    StreamHash h;
    h.add(s);
    return h == replayed;
  };

  std::vector<CheckResult> out;
  const auto expect = [&](const std::string& name,
                          const std::vector<Word>& s, bool want) {
    const bool chain = chain_ok(s);
    const bool rep = replay_ok(s);
    const bool ok = want ? (chain && rep) : (!chain && !rep);
    out.push_back({"selftest." + name, ok,
                   std::string(want ? "accept" : "reject") +
                       " expected; walk_steps " +
                       (chain ? "accepted" : "rejected") + ", replay " +
                       (rep ? "accepted" : "rejected")});
  };
  expect("intact", streams[0], true);

  std::vector<Word> swapped = streams[0];
  std::swap_ranges(swapped.begin() + 3 * kWords, swapped.begin() + 4 * kWords,
                   swapped.begin() + 4 * kWords);
  expect("swapped_requests", swapped, false);

  std::vector<Word> spliced(streams[0].begin(), streams[0].begin() + n / 2);
  spliced.insert(spliced.end(), streams[1].begin() + n / 2, streams[1].end());
  expect("spliced_leases", spliced, false);

  std::vector<Word> flipped = streams[0];
  flipped[100] ^= Word{1} << 17;
  expect("flipped_bit", flipped, false);

  {
    std::vector<std::vector<Word>> samples = streams;
    const bool clean = count_cross_lease_dups(samples) == 0;
    samples[1][40] = samples[0][200];
    const bool caught = count_cross_lease_dups(samples) > 0;
    out.push_back({"selftest.shared_word", clean && caught,
                   std::string("intact ") + (clean ? "accepted" : "rejected") +
                       ", shared word " + (caught ? "rejected" : "accepted")});
  }
  {
    BitBalance intact, stuck;
    intact.add(streams[0]);
    std::vector<Word> s = streams[0];
    for (Word& w : s) w |= Word{1} << 5;
    stuck.add(s);
    const bool ok = intact.max_abs_z() <= kMaxBitZ &&
                    stuck.max_abs_z() > kMaxBitZ;
    out.push_back({"selftest.stuck_bit", ok,
                   fmt("max |z| intact %.2f, stuck bit %.2f",
                       intact.max_abs_z(), stuck.max_abs_z())});
  }
  return out;
}

}  // namespace perfbench
