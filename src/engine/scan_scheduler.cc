#include "engine/scan_scheduler.h"

#include <bit>
#include <utility>

#include "storage/table.h"

namespace isla {
namespace engine {

struct ScanScheduler::Flight {
  Result<core::GroupedAggregateResult> result{
      Status::Internal("scan scheduler produced no result")};
  bool landed = false;  // result is final
  bool joined = false;  // at least one caller is waiting on it
};

namespace {

/// Inserts (or refreshes) one LRU entry, evicting the tail past `cap`.
template <typename Lru, typename Index, typename Key, typename Value>
void LruPut(Lru* lru, Index* index, const Key& key, Value value, size_t cap) {
  if (cap == 0) return;
  auto it = index->find(key);
  if (it != index->end()) {
    it->second->second = std::move(value);
    lru->splice(lru->begin(), *lru, it->second);
    return;
  }
  lru->emplace_front(key, std::move(value));
  (*index)[key] = lru->begin();
  if (lru->size() > cap) {
    index->erase(lru->back().first);
    lru->pop_back();
  }
}

/// Looks `key` up and, on a hit, refreshes it and returns its value.
template <typename Lru, typename Index, typename Key>
const typename Lru::value_type::second_type* LruGet(Lru* lru, Index* index,
                                                    const Key& key) {
  auto it = index->find(key);
  if (it == index->end()) return nullptr;
  lru->splice(lru->begin(), *lru, it->second);
  return &it->second->second;
}

/// Rows a standalone execution of the query would have sampled.
uint64_t RowsRequested(const Result<core::GroupedAggregateResult>& r) {
  return r.ok() ? r->scanned_samples + r->pilot_samples : 0;
}

}  // namespace

ScanScheduler::ScanScheduler(ScanSchedulerOptions options)
    : options_(options) {}

ScanScheduler::~ScanScheduler() = default;

ScanSchedulerStats ScanScheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ScanScheduler::ClearCaches() {
  std::lock_guard<std::mutex> lk(mu_);
  pilot_lru_.clear();
  pilot_index_.clear();
  result_lru_.clear();
  result_index_.clear();
}

ScanScheduler::CacheKey ScanScheduler::MakeCacheKey(
    const core::GroupedSpec& spec, const core::IslaOptions& options,
    uint64_t seed_salt, bool pilot) {
  const bool has_pred = spec.predicate != nullptr;
  CacheKey k{};
  k[0] = spec.values->ContentFingerprint();
  k[1] = has_pred ? spec.predicate->ContentFingerprint() : 0;
  k[2] = has_pred ? static_cast<uint64_t>(spec.op) + 1 : 0;
  k[3] = has_pred ? std::bit_cast<uint64_t>(spec.literal) : 0;
  k[4] = spec.keys == nullptr ? 0 : spec.keys->ContentFingerprint();
  k[5] = options.seed;
  k[6] = seed_salt;
  k[7] = options.sigma_pilot_size;
  // The pilot depends on none of the target parameters (it is planned
  // *into* them), so the pilot key zeroes these slots and repeated queries
  // that only move precision reuse one pilot. parallelism is excluded from
  // both keys: per-block RNG streams make answers parallelism-invariant.
  k[8] = pilot ? 0 : std::bit_cast<uint64_t>(options.precision);
  k[9] = pilot ? 0 : std::bit_cast<uint64_t>(options.confidence);
  k[10] = pilot ? 0 : std::bit_cast<uint64_t>(options.sampling_rate_scale);
  k[11] = pilot ? 1 : 2;
  return k;
}

Result<core::GroupedAggregateResult> ScanScheduler::Execute(
    const core::GroupedSpec& spec, const core::IslaOptions& options,
    uint64_t seed_salt) {
  ISLA_RETURN_NOT_OK(options.Validate());
  ISLA_RETURN_NOT_OK(core::ValidateGroupedSpec(spec));
  if (spec.want_sketch || spec.summary.top_k != 0) {
    return Status::InvalidArgument(
        "the scan scheduler serves plain grouped aggregates; sketch and "
        "top-k queries run on the grouped engine directly");
  }
  const CacheKey key = MakeCacheKey(spec, options, seed_salt,
                                    /*pilot=*/false);

  std::shared_ptr<Flight> flight;
  {
    std::unique_lock<std::mutex> lk(mu_);
    ++stats_.queries;
    if (options_.enable_result_cache) {
      if (const auto* hit = LruGet(&result_lru_, &result_index_, key)) {
        ++stats_.result_cache_hits;
        stats_.rows_requested += hit->scanned_samples + hit->pilot_samples;
        return *hit;
      }
      ++stats_.result_cache_misses;
    }
    // Single-flight: the cache insert and the in-flight erase below happen
    // under this same lock, so a key is always either cached, in flight,
    // or absent — never run twice concurrently.
    auto [it, leader] = in_flight_.try_emplace(key);
    if (!leader) {
      std::shared_ptr<Flight> joined = it->second;
      if (!joined->joined) ++stats_.shared_batches;
      joined->joined = true;
      ++stats_.batched_queries;
      landed_.wait(lk, [&] { return joined->landed; });
      stats_.rows_requested += RowsRequested(joined->result);
      return joined->result;
    }
    flight = it->second = std::make_shared<Flight>();
  }

  uint64_t rows_gathered = 0;
  Result<core::GroupedAggregateResult> result =
      Run(spec, options, seed_salt, &rows_gathered);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (result.ok() && options_.enable_result_cache) {
      LruPut(&result_lru_, &result_index_, key, *result,
             options_.cache_capacity);
    }
    flight->result = result;
    flight->landed = true;
    in_flight_.erase(key);
    stats_.rows_gathered += rows_gathered;
    stats_.rows_requested += RowsRequested(result);
  }
  landed_.notify_all();
  return result;
}

Result<core::GroupedAggregateResult> ScanScheduler::Run(
    const core::GroupedSpec& spec, const core::IslaOptions& options,
    uint64_t seed_salt, uint64_t* rows_gathered) {
  const core::GroupByEngine engine(options, &scratch_pool_);
  const CacheKey pilot_key = MakeCacheKey(spec, options, seed_salt,
                                          /*pilot=*/true);
  core::GroupedPilot pilot;
  bool cached = false;
  if (options_.enable_pilot_cache) {
    std::lock_guard<std::mutex> lk(mu_);
    if (const auto* hit = LruGet(&pilot_lru_, &pilot_index_, pilot_key)) {
      pilot = *hit;
      cached = true;
      ++stats_.pilot_cache_hits;
    } else {
      ++stats_.pilot_cache_misses;
    }
  }
  if (!cached) {
    ISLA_ASSIGN_OR_RETURN(pilot, engine.Pilot(spec, seed_salt));
    *rows_gathered += pilot.pilot_samples;
    if (options_.enable_pilot_cache) {
      std::lock_guard<std::mutex> lk(mu_);
      LruPut(&pilot_lru_, &pilot_index_, pilot_key, pilot,
             options_.cache_capacity);
    }
  }
  ISLA_ASSIGN_OR_RETURN(core::GroupedAggregateResult result,
                        engine.AggregateWithPilot(spec, pilot, seed_salt));
  *rows_gathered += result.scanned_samples;
  return result;
}

}  // namespace engine
}  // namespace isla
