#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/table_printer.h"
#include "util/threadpool.h"

namespace infuserki::util {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, PublishesObsMetrics) {
  obs::Registry& registry = obs::Registry::Get();
  registry.ResetAll();
  constexpr int kTasks = 20;
  {
    // An explicit 2-worker pool: on a single-core host the global pool has
    // one worker and ParallelFor runs inline without ever scheduling.
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < kTasks; ++i) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    ASSERT_EQ(counter.load(), kTasks);
  }
  EXPECT_EQ(registry.GetCounter("threadpool/tasks_scheduled")->Value(),
            static_cast<uint64_t>(kTasks));
  EXPECT_EQ(registry.GetCounter("threadpool/tasks_completed")->Value(),
            static_cast<uint64_t>(kTasks));
  EXPECT_GE(registry.GetGauge("threadpool/queue_depth_max")->Value(), 1.0);
  obs::HistogramStats waits =
      registry.GetHistogram("threadpool/queue_wait_seconds")->Stats();
  EXPECT_EQ(waits.count, static_cast<uint64_t>(kTasks));
  EXPECT_GE(waits.min, 0.0);
  obs::HistogramStats runs =
      registry.GetHistogram("threadpool/task_seconds")->Stats();
  EXPECT_EQ(runs.count, static_cast<uint64_t>(kTasks));

  // ResetAll returns every pool metric to zero for the next measurement.
  registry.ResetAll();
  EXPECT_EQ(registry.GetCounter("threadpool/tasks_scheduled")->Value(), 0u);
  EXPECT_EQ(registry.GetCounter("threadpool/tasks_completed")->Value(), 0u);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("threadpool/queue_depth_max")->Value(), 0.0);
  EXPECT_EQ(
      registry.GetHistogram("threadpool/task_seconds")->Stats().count, 0u);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(200);
  ParallelFor(200, 8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyAndSmallRanges) {
  bool called = false;
  ParallelFor(0, 8, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
  size_t total = 0;
  ParallelFor(3, 8, [&](size_t begin, size_t end) {
    total += end - begin;
  });
  EXPECT_EQ(total, 3u);
}

// ParallelFor waits for its own chunks only: another thread's task that is
// still blocked on the same pool must not hold it up.
TEST(ParallelFor, ReturnsWhileAnotherCallersTaskIsBlocked) {
  ThreadPool& pool = GlobalThreadPool();
  if (pool.num_threads() < 2) GTEST_SKIP() << "needs two pool workers";
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::thread other([&] {
    pool.Schedule([&] {
      started = true;
      while (!release) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  });
  other.join();
  while (!started) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::future<size_t> covered = std::async(std::launch::async, [] {
    std::atomic<size_t> total{0};
    ParallelFor(64, 1, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin);
    });
    return total.load();
  });
  bool returned = covered.wait_for(std::chrono::seconds(10)) ==
                  std::future_status::ready;
  release = true;  // lets a ParallelFor stuck on the blocked task finish
  EXPECT_TRUE(returned) << "ParallelFor waited for an unrelated task";
  EXPECT_EQ(covered.get(), 64u);
  pool.Wait();
}

TEST(TablePrinter, AlignedOutputAndCsv) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22,2\"x\""});
  std::ostringstream os;
  table.Print(os);
  EXPECT_NE(os.str().find("| alpha |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);

  std::string path = ::testing::TempDir() + "/table.csv";
  ASSERT_TRUE(table.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "alpha,1");
  std::getline(in, line);
  // Quoted cell with escaped quotes.
  EXPECT_EQ(line, "b,\"22,2\"\"x\"\"\"");
  std::remove(path.c_str());
}

TEST(TablePrinter, CsvToBadPathFails) {
  TablePrinter table({"x"});
  table.AddRow({"1"});
  EXPECT_FALSE(table.WriteCsv("/nonexistent-dir/x.csv").ok());
}

}  // namespace
}  // namespace infuserki::util
