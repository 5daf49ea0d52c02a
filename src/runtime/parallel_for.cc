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

/// Runs [begin, end) in order and returns the shard's first failure.
/// `first_failed` is the smallest failing index seen by any shard; it only
/// decreases, so once it is below i every later index of the shard would
/// be skipped too.
Status RunShardRange(uint64_t begin, uint64_t end,
                     std::atomic<uint64_t>& first_failed,
                     const std::function<Status(uint64_t)>& body) {
  for (uint64_t i = begin; i < end; ++i) {
    if (first_failed.load(std::memory_order_relaxed) < i) break;
    Status s = body(i);
    if (!s.ok()) {
      uint64_t seen = first_failed.load(std::memory_order_relaxed);
      while (i < seen && !first_failed.compare_exchange_weak(
                             seen, i, std::memory_order_relaxed)) {
      }
      return s;
    }
  }
  return Status::OK();
}

}  // namespace

unsigned EffectiveParallelism(uint32_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

Status ParallelFor(uint64_t n, uint32_t parallelism,
                   const std::function<Status(uint64_t)>& body) {
  if (n == 0) return Status::OK();
  std::atomic<uint64_t> first_failed{std::numeric_limits<uint64_t>::max()};
  const unsigned threads =
      static_cast<unsigned>(std::min<uint64_t>(EffectiveParallelism(parallelism), n));
  if (threads <= 1 || ThreadPool::InWorkerThread()) {
    return RunShardRange(0, n, first_failed, body);
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
      shard_status[s] = RunShardRange(begin, end, first_failed, body);
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) cv.notify_one();
    });
  }

  // The calling thread takes shard 0 so a 2-way ParallelFor on a 1-worker
  // pool still makes progress.
  shard_status[0] =
      RunShardRange(0, base + (rem > 0 ? 1 : 0), first_failed, body);

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }

  for (const Status& s : shard_status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace runtime
}  // namespace isla
