// Tests for util:: (RNG, Table, Stopwatch, parallel_for).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel_error.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/worker_pool.h"

namespace amdgcnn::util {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(5), b(5), c(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  bool differs = false;
  Rng a2(5);
  for (int i = 0; i < 100; ++i) differs = differs || a2.next_u64() != c.next_u64();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  double mn = 1.0, mx = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
  }
  EXPECT_GE(mn, 0.0);
  EXPECT_LT(mx, 1.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(2);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(7ULL)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 70);
  EXPECT_THROW(rng.uniform_int(0ULL), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(4);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, BernoulliRate) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(6);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0], 2000, 300);
  EXPECT_NEAR(counts[1], 6000, 500);
  EXPECT_NEAR(counts[3], 12000, 600);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), std::invalid_argument);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(7);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(8);
  for (std::size_t k : {std::size_t{3}, std::size_t{50}, std::size_t{99}}) {
    auto s = rng.sample_without_replacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (auto x : s) EXPECT_LT(x, 100u);
  }
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(9);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ = differ || c1.next_u64() != c2.next_u64();
  EXPECT_TRUE(differ);
}

TEST(Table, FormatsAlignedAndCsv) {
  Table t({"name", "auc"});
  t.add_row({"AM-DGCNN", Table::fmt(0.98765, 2)});
  t.add_row({"Vanilla", "0.75"});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("AM-DGCNN"), std::string::npos);
  EXPECT_NE(text.str().find("0.99"), std::string::npos);  // rounded
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "name,auc\nAM-DGCNN,0.99\nVanilla,0.75\n");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a"});
  t.add_row({"x,y"});
  t.add_row({"quote\"inside"});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(), "a\n\"x,y\"\n\"quote\"\"inside\"\n");
}

TEST(Table, RejectsBadRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  const double t0 = w.seconds();
  EXPECT_GE(t0, 0.0);
  double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<double>(i);
  ASSERT_GT(sink, 0.0);  // keep the loop observable
  EXPECT_GE(w.seconds(), t0);
  EXPECT_NEAR(w.millis(), w.seconds() * 1000.0, w.seconds() * 100.0 + 1.0);
}

// ---- parallel_for ------------------------------------------------------------

TEST(ParallelFor, EveryItemRunsExactlyOnceForAnyThreadCount) {
  constexpr std::int64_t kItems = 1000;
  for (const std::int64_t threads : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> runs(kItems);
    parallel_for("test", threads, kItems, [&](std::int64_t i) {
      runs[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (std::int64_t i = 0; i < kItems; ++i)
      ASSERT_EQ(runs[static_cast<std::size_t>(i)].load(), 1)
          << "threads=" << threads << " item " << i;
  }
}

TEST(ParallelFor, SerialPathRethrowsTheRawException) {
  EXPECT_THROW(parallel_for("test", 0, 10,
                            [](std::int64_t i) {
                              if (i == 3) throw std::out_of_range("raw");
                            }),
               std::out_of_range);
  EXPECT_THROW(parallel_for("test", -1, 10, [](std::int64_t) {}),
               std::invalid_argument);
}

TEST(ParallelFor, LowestFailingItemWinsForAnyThreadCount) {
  for (const std::int64_t threads : {1, 2, 4, 8}) {
    try {
      parallel_for("stage", threads, 100, [](std::int64_t i) {
        if (i == 17 || i == 42 || i == 99)
          throw std::out_of_range("boom " + std::to_string(i));
      });
      FAIL() << "expected WorkerError (threads=" << threads << ")";
    } catch (const WorkerError& e) {
      EXPECT_EQ(e.item(), 17) << "threads=" << threads;
      EXPECT_NE(std::string(e.what()).find(
                    "stage: worker failed at item 17: boom 17"),
                std::string::npos)
          << e.what();
      EXPECT_THROW(std::rethrow_if_nested(e), std::out_of_range);
    }
  }
}

TEST(ParallelFor, NestedCallFromAWorkerRunsInline) {
  constexpr std::int64_t kOuter = 8, kInner = 16;
  std::vector<std::atomic<int>> runs(kOuter * kInner);
  std::atomic<bool> same_thread{true};
  parallel_for("outer", 4, kOuter, [&](std::int64_t i) {
    const auto self = std::this_thread::get_id();
    parallel_for("inner", 4, kInner, [&](std::int64_t j) {
      if (std::this_thread::get_id() != self) same_thread = false;
      runs[static_cast<std::size_t>(i * kInner + j)].fetch_add(1);
    });
  });
  EXPECT_TRUE(same_thread);
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ParallelFor, ConcurrentCallersBothGetCorrectResults) {
  constexpr std::int64_t kItems = 500;
  const auto caller = [](std::int64_t seed, bool& ok) {
    ok = true;
    std::vector<std::int64_t> out;
    for (std::int64_t rep = 0; rep < 50; ++rep) {
      out.assign(kItems, -1);
      parallel_for("concurrent", 4, kItems,
                   [&](std::int64_t i) { out[i] = seed * i + rep; });
      for (std::int64_t i = 0; i < kItems; ++i)
        if (out[i] != seed * i + rep) ok = false;
    }
  };
  bool ok1 = false, ok2 = false;
  std::thread t1(caller, 3, std::ref(ok1));
  std::thread t2(caller, 7, std::ref(ok2));
  t1.join();
  t2.join();
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
}

}  // namespace
}  // namespace amdgcnn::util
