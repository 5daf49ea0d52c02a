// Unit tests for runtime/thread_pool.h and runtime/parallel_for.h: the
// sharded pool and the deterministic ParallelFor helper.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"

namespace isla {
namespace runtime {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  // Destructor drains the queues before joining.
  // (pool goes out of scope here)
  while (count.load() < 100) std::this_thread::yield();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, AllQueuedTasksRunBeforeShutdown) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ShardedSubmissionPreservesPerShardOrder) {
  // Tasks submitted to one shard run in submission order (FIFO queues, no
  // stealing).
  std::vector<int> seen;
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.SubmitToShard(1, [&, i] { seen.push_back(i); });
    }
  }
  ASSERT_EQ(seen.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(ThreadPool::Shared(), ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared()->num_threads(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (uint32_t par : {1u, 2u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    ASSERT_TRUE(ParallelFor(hits.size(), par, [&](uint64_t i) {
                  hits[i].fetch_add(1);
                  return Status::OK();
                }).ok());
    for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsOk) {
  bool called = false;
  EXPECT_TRUE(ParallelFor(0, 8, [&](uint64_t) {
                called = true;
                return Status::OK();
              }).ok());
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ReportsSmallestFailingIndex) {
  for (uint32_t par : {1u, 4u}) {
    Status s = ParallelFor(100, par, [&](uint64_t i) -> Status {
      if (i == 97 || i == 23 || i == 60) {
        return Status::Internal("fail " + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("fail 23"), std::string::npos) << s;
  }
}

TEST(ParallelFor, SkipsIndicesAboveFirstFailure) {
  // Inline, indices run in order: nothing above the first failure runs,
  // and the returned Status is that failure's.
  std::vector<uint64_t> ran;
  Status s = ParallelFor(64, 1, [&](uint64_t i) -> Status {
    ran.push_back(i);
    if (i == 10 || i == 20) {
      return Status::Internal("fail " + std::to_string(i));
    }
    return Status::OK();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("fail 10"), std::string::npos) << s;
  ASSERT_EQ(ran.size(), 11u);
  EXPECT_EQ(ran.back(), 10u);
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A ParallelFor inside a pool task must not wait on its own queue.
  std::atomic<int> total{0};
  ASSERT_TRUE(ParallelFor(8, 4, [&](uint64_t) {
                return ParallelFor(8, 4, [&](uint64_t) {
                  total.fetch_add(1);
                  return Status::OK();
                });
              }).ok());
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, ParallelismLargerThanPoolStillCompletes) {
  std::atomic<int> total{0};
  ASSERT_TRUE(ParallelFor(1000, 64, [&](uint64_t) {
                total.fetch_add(1);
                return Status::OK();
              }).ok());
  EXPECT_EQ(total.load(), 1000);
}

TEST(EffectiveParallelism, ZeroMeansHardware) {
  EXPECT_GE(EffectiveParallelism(0), 1u);
  EXPECT_EQ(EffectiveParallelism(3), 3u);
}

}  // namespace
}  // namespace runtime
}  // namespace isla
