#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"

namespace isla {
namespace runtime {

namespace {

Status RunShardRange(uint64_t begin, uint64_t end,
                     const std::function<Status(uint64_t)>& body) {
  // Keep going past failures; report the smallest failing index.
  Status first = Status::OK();
  for (uint64_t i = begin; i < end; ++i) {
    Status s = body(i);
    if (!s.ok() && first.ok()) first = std::move(s);
  }
  return first;
}

}  // namespace

unsigned EffectiveParallelism(uint32_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

Status ParallelFor(uint64_t n, uint32_t parallelism,
                   const std::function<Status(uint64_t)>& body) {
  if (n == 0) return Status::OK();
  const unsigned threads =
      static_cast<unsigned>(std::min<uint64_t>(EffectiveParallelism(parallelism), n));
  if (threads <= 1 || ThreadPool::InWorkerThread()) {
    return RunShardRange(0, n, body);
  }

  // Contiguous shards of (nearly) equal size; shard s covers
  // [s*base + min(s, rem), ...) so sizes differ by at most one.
  const uint64_t base = n / threads;
  const uint64_t rem = n % threads;
  std::vector<Status> shard_status(threads, Status::OK());

  std::mutex mu;
  std::condition_variable cv;
  unsigned pending = threads - 1;

  ThreadPool* pool = ThreadPool::Shared();
  for (unsigned s = 1; s < threads; ++s) {
    const uint64_t begin = s * base + std::min<uint64_t>(s, rem);
    const uint64_t end = begin + base + (s < rem ? 1 : 0);
    pool->SubmitToShard(s, [&, s, begin, end] {
      shard_status[s] = RunShardRange(begin, end, body);
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) cv.notify_one();
    });
  }

  // The calling thread takes shard 0 so a 2-way ParallelFor on a 1-worker
  // pool still makes progress.
  shard_status[0] = RunShardRange(0, base + (rem > 0 ? 1 : 0), body);

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }

  for (const Status& s : shard_status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ParallelForUntilFailure(uint64_t n, uint32_t parallelism,
                               const std::function<Status(uint64_t)>& body) {
  std::atomic<uint64_t> first_failed{std::numeric_limits<uint64_t>::max()};
  return ParallelFor(n, parallelism, [&](uint64_t i) -> Status {
    if (first_failed.load(std::memory_order_relaxed) < i) return Status::OK();
    Status s = body(i);
    if (!s.ok()) {
      uint64_t seen = first_failed.load(std::memory_order_relaxed);
      while (i < seen && !first_failed.compare_exchange_weak(
                             seen, i, std::memory_order_relaxed)) {
      }
    }
    return s;
  });
}

}  // namespace runtime
}  // namespace isla
