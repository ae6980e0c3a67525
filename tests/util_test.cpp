#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hprng::util {
namespace {

TEST(Table, AlignsColumnsAndCounts) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "123456"});
  EXPECT_EQ(t.num_rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("123456"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Strf, FormatsLikePrintf) {
  EXPECT_EQ(strf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strf("%.2f", 1.005), "1.00");
  // Long outputs are not truncated.
  const std::string big = strf("%0128d", 7);
  EXPECT_EQ(big.size(), 128u);
}

TEST(Cli, ParsesFlags) {
  const char* argv[] = {"prog", "--n=100", "--ratio=0.5", "--name=mt19937",
                        "--verbose"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_u64("n", 0), 100u);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
  EXPECT_EQ(cli.get_string("name", ""), "mt19937");
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.get_bool("quiet", false));
  EXPECT_EQ(cli.get_u64("missing", 7), 7u);
  EXPECT_TRUE(cli.has("n"));
  EXPECT_FALSE(cli.has("m"));
}

TEST(ThreadPool, InlineModeRunsEverything) {
  ThreadPool pool(0);
  int counter = 0;
  pool.submit([&] { ++counter; });
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter, 2);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, 1000,
                      [&](std::uint64_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForCallerMayReturnAtOnce) {
  // parallel_for's completion mutex and condition variable live on the
  // caller's stack. Many tiny calls in a row make the caller return (and
  // reuse that stack) the moment the count reaches zero; the last worker
  // must be done with them by then (TSan and glibc's mutex checks catch
  // it otherwise).
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  constexpr int kCalls = 200000;
  for (int c = 0; c < kCalls; ++c) {
    pool.parallel_for(0, 3, [&](std::uint64_t i) { sum.fetch_add(i + 1); });
  }
  EXPECT_EQ(sum.load(), 6u * kCalls);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SubmitFromWorkers) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(WallTimer, MeasuresForwardTime) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace hprng::util
