// Unit tests for src/support: Status/Result, RNG & samplers, strings,
// stopwatch, thread pool error capture, fault injection, the extension
// accumulator's thresholded drain.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/support/extension_accumulator.h"
#include "src/support/fault_injection.h"
#include "src/support/random.h"
#include "src/support/status.h"
#include "src/support/stopwatch.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace specmine {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::IOError("io").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotFound("nf").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::ParseError("pe").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::OutOfRange("oor").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("int").code(), StatusCode::kInternal);
  Status s = Status::InvalidArgument("threshold must be positive");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "threshold must be positive");
  EXPECT_EQ(s.ToString(), "InvalidArgument: threshold must be positive");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::IOError("x"), Status::IOError("x"));
  EXPECT_FALSE(Status::IOError("x") == Status::IOError("y"));
  EXPECT_FALSE(Status::IOError("x") == Status::NotFound("x"));
}

TEST(ResultTest, HoldsValueOnSuccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsStatusOnFailure) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, TakeValueMovesOut) {
  Result<std::string> r(std::string("payload"));
  ASSERT_TRUE(r.ok());
  std::string v = r.TakeValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(ReturnNotOkMacroTest, PropagatesErrors) {
  auto fails = []() { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    SPECMINE_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(SplitMix64Test, DeterministicAndDistinct) {
  SplitMix64 a(1234567), b(1234567), c(7654321);
  uint64_t a1 = a.Next();
  uint64_t a2 = a.Next();
  EXPECT_EQ(a1, b.Next());
  EXPECT_EQ(a2, b.Next());
  EXPECT_NE(a1, a2);
  EXPECT_NE(a1, c.Next());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(99), b(99), c(100);
  bool all_equal = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next64();
    uint64_t vb = b.Next64();
    uint64_t vc = c.Next64();
    all_equal = all_equal && (va == vb);
    any_diff_c = any_diff_c || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(13), 13u);
  }
}

TEST(RngTest, UniformCoversAllResidues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(21);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyNearP) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  double freq = static_cast<double>(hits) / n;
  EXPECT_NEAR(freq, 0.3, 0.02);
}

TEST(RngTest, PoissonMeanIsClose) {
  Rng rng(11);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.Poisson(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.1 + 0.1) << "mean=" << mean;
  }
}

TEST(RngTest, GeometricMeanIsClose) {
  Rng rng(13);
  const double p = 0.25;
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Geometric(p);
  // Mean of failures-before-success is (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.25);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfSamplerTest, UniformWhenExponentZero) {
  Rng rng(23);
  ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.02);
  }
}

TEST(ZipfSamplerTest, SkewFavoursLowRanks) {
  Rng rng(29);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(ZipfSamplerTest, SingleElement) {
  Rng rng(31);
  ZipfSampler zipf(1, 1.5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(&rng), 0u);
}

TEST(StopwatchTest, ReportsNonNegativeMonotonicTime) {
  Stopwatch sw;
  int64_t a = sw.ElapsedNanos();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  int64_t b = sw.ElapsedNanos();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  sw.Restart();
  EXPECT_LT(sw.ElapsedNanos(), b);
}

TEST(StringsTest, SplitAndTrimDropsEmptyFields) {
  auto out = SplitAndTrim("  a  b   c ", ' ');
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[1], "b");
  EXPECT_EQ(out[2], "c");
  EXPECT_TRUE(SplitAndTrim("", ' ').empty());
  EXPECT_TRUE(SplitAndTrim("   ", ' ').empty());
}

TEST(StringsTest, SplitOnCommas) {
  auto out = SplitAndTrim("x, y,,z", ',');
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "x");
  EXPECT_EQ(out[1], "y");
  EXPECT_EQ(out[2], "z");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("  \t "), "");
  EXPECT_EQ(StripWhitespace("no-op"), "no-op");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("TxManager.begin", "TxManager"));
  EXPECT_FALSE(StartsWith("Tx", "TxManager"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(64);
  Status s = ThreadPool::ParallelFor(4, hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_TRUE(s.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// The regression the fault-tolerance work pins down: an exception escaping
// a task body (a misbehaving user callback on a worker thread) becomes a
// kInternal Status from the fan-out instead of std::terminate.
TEST(ThreadPoolTest, TaskExceptionBecomesInternalStatus) {
  Status s = ThreadPool::ParallelFor(3, 16, [](size_t i) {
    if (i == 7) throw std::runtime_error("sink blew up");
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("sink blew up"), std::string::npos);
}

TEST(ThreadPoolTest, TakeErrorClearsAfterReporting) {
  ThreadPool pool(2);
  Status first = pool.ParallelFor(4, [](size_t i) {
    if (i == 0) throw std::runtime_error("once");
  });
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  Status second = pool.ParallelFor(4, [](size_t) {});
  EXPECT_TRUE(second.ok());  // The earlier error does not leak forward.
}

TEST(ThreadPoolTest, NonExceptionThrowIsStillCaught) {
  Status s = ThreadPool::ParallelFor(2, 4, [](size_t i) {
    if (i == 1) throw 42;  // Not derived from std::exception.
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(FaultInjectionTest, UnarmedSiteIsFree) {
  EXPECT_TRUE(CheckFault("support_test.nowhere").ok());
}

TEST(FaultInjectionTest, CountdownFiresOnTheNthCall) {
  ScopedFault fault("support_test.site", 2, Status::IOError("injected"));
  EXPECT_TRUE(CheckFault("support_test.site").ok());
  EXPECT_TRUE(CheckFault("support_test.site").ok());
  Status hit = CheckFault("support_test.site");
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(hit.code(), StatusCode::kIOError);
  EXPECT_NE(hit.message().find("injected"), std::string::npos);
}

TEST(FaultInjectionTest, DisarmAllRestoresTheFastPath) {
  FaultInjector::Instance().Arm("support_test.other", 0,
                                Status::IOError("boom"));
  FaultInjector::Instance().DisarmAll();
  EXPECT_TRUE(CheckFault("support_test.other").ok());
}

TEST(FaultInjectionTest, ArmedThrowSurfacesThroughThePool) {
  FaultInjector::Instance().ArmThrow("thread_pool.task", 0);
  Status s = ThreadPool::ParallelFor(2, 8, [](size_t) {});
  FaultInjector::Instance().DisarmAll();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

// Drain(out, k) keeps exactly the buckets of Drain(out) with >= k items,
// sorted by event id, and dropped buckets leave no trace in the next epoch.
TEST(ExtensionAccumulatorTest, DrainDropsBucketsBelowTheThreshold) {
  ExtensionAccumulator<int> acc;
  const auto fill = [&acc] {
    acc.Reset(8);
    // Touch order 5, 2, 7, 0: event 5 gets 3 items, 2 gets 1, 7 gets 2,
    // and 0 is touched but left empty.
    for (int i = 0; i < 3; ++i) acc.Bucket(5).push_back(50 + i);
    acc.Bucket(2).push_back(20);
    acc.Bucket(7).push_back(70);
    acc.Bucket(7).push_back(71);
    acc.Bucket(0);
  };
  using Map = ExtensionAccumulator<int>::Map;
  const auto keys = [](const Map& m) {
    std::vector<EventId> out;
    for (const auto& [ev, bucket] : m) out.push_back(ev);
    return out;
  };

  Map all;
  fill();
  acc.Drain(&all);  // Threshold 0 still skips the empty bucket.
  EXPECT_EQ(keys(all), (std::vector<EventId>{2, 5, 7}));

  for (size_t k : {0u, 1u, 2u, 3u, 4u}) {
    Map out;
    fill();
    acc.Drain(&out, k);
    std::vector<EventId> expected;
    for (const auto& [ev, bucket] : all) {
      if (bucket.size() >= k) expected.push_back(ev);
    }
    EXPECT_EQ(keys(out), expected) << "k=" << k;
    for (const auto& [ev, bucket] : out) {
      EXPECT_EQ(bucket, all.at(ev)) << "k=" << k << " ev=" << ev;
    }
    acc.Recycle(std::move(out));
  }

  // A bucket dropped by one drain starts empty in the next epoch.
  Map out;
  fill();
  acc.Drain(&out, 3);
  acc.Reset(8);
  acc.Bucket(2).push_back(21);
  acc.Drain(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.begin()->second, (std::vector<int>{21}));
}

}  // namespace
}  // namespace specmine
