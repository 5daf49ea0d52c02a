#include "stats/sketch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "runtime/kernels/kernels.h"

namespace isla {
namespace stats {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Sign-aware bit image whose unsigned order matches IEEE totalOrder on
/// non-NaN doubles (so -0.0 < +0.0).
uint64_t OrderedBits(double v) {
  const uint64_t bits = BitsOf(v);
  const uint64_t sign = uint64_t{1} << 63;
  return (bits & sign) != 0 ? ~bits : bits | sign;
}

/// Strict weak order on non-NaN doubles with a bit-pattern tie break, so
/// equal-comparing values (±0.0, the only numerically-equal distinct bit
/// patterns) always sort the same way regardless of std::sort internals —
/// the sketch state must be a pure function of the insertion sequence.
bool ValueLess(double a, double b) {
  if (a < b) return true;
  if (b < a) return false;
  return OrderedBits(a) < OrderedBits(b);
}

constexpr size_t kMinCapacity = 2;
constexpr size_t kMaxCapacity = 65536;
constexpr size_t kMaxLevels = 64;

}  // namespace

QuantileSketch::QuantileSketch(size_t capacity)
    : capacity_(std::clamp(capacity, kMinCapacity, kMaxCapacity)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void QuantileSketch::Add(double v) {
  if (std::isnan(v)) return;  // SQL rule: NaN never participates
  ++count_;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
  if (levels_.empty()) {
    levels_.emplace_back();
    levels_[0].reserve(capacity_);
    parities_.push_back(0);
  }
  levels_[0].push_back(v);
  if (levels_[0].size() >= capacity_) CompactLevel(0);
}

void QuantileSketch::CompactLevel(size_t l) {
  std::vector<double>& buf = levels_[l];
  std::sort(buf.begin(), buf.end(), ValueLess);
  const size_t even = buf.size() & ~size_t{1};
  if (even == 0) return;
  const size_t offset = parities_[l];
  parities_[l] ^= 1;
  // In-place survivor pass over the even prefix; any odd element out
  // (buf[even], only possible after a merge) is untouched — the kernel
  // writes stay below index even/2.
  const size_t kept = runtime::kernels::Ops().compact_stride2(
      buf.data(), even, offset, buf.data());
  const bool leftover = even < buf.size();
  const double leftover_val = leftover ? buf[even] : 0.0;
  if (l + 1 >= levels_.size()) {
    levels_.emplace_back();
    parities_.push_back(0);
  }
  std::vector<double>& up = levels_[l + 1];
  up.insert(up.end(), levels_[l].begin(), levels_[l].begin() + kept);
  levels_[l].clear();
  if (leftover) levels_[l].push_back(leftover_val);
  // Promoting every other element of a sorted run of weight-w items
  // shifts any rank by at most w.
  error_weight_ += uint64_t{1} << l;
  if (up.size() >= capacity_ && l + 1 < kMaxLevels) CompactLevel(l + 1);
}

void QuantileSketch::Compress() {
  for (size_t l = 0; l < levels_.size(); ++l) {
    if (levels_[l].size() >= capacity_) CompactLevel(l);
  }
}

Status QuantileSketch::Merge(const QuantileSketch& other) {
  if (capacity_ != other.capacity_) {
    return Status::InvalidArgument("quantile sketch capacity mismatch");
  }
  if (other.count_ == 0) return Status::OK();
  count_ += other.count_;
  error_weight_ += other.error_weight_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  while (levels_.size() < other.levels_.size()) {
    levels_.emplace_back();
    parities_.push_back(0);
  }
  for (size_t l = 0; l < other.levels_.size(); ++l) {
    levels_[l].insert(levels_[l].end(), other.levels_[l].begin(),
                      other.levels_[l].end());
  }
  Compress();
  return Status::OK();
}

double QuantileSketch::RankErrorFraction() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(error_weight_) / static_cast<double>(count_);
}

double QuantileSketch::RankErrorBound(uint64_t n, size_t capacity) {
  const uint64_t k1 = std::clamp(capacity, kMinCapacity, kMaxCapacity) - 1;
  uint64_t levels = 0;  // levels l with (k−1)·2^l ≤ n
  for (uint64_t w = k1; w <= n; w <<= 1) {
    ++levels;
    if (w > n / 2) break;  // the next level is out of reach (and no overflow)
  }
  return static_cast<double>(levels) / static_cast<double>(k1);
}

double QuantileSketch::Query(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::vector<std::pair<double, uint64_t>> items;
  size_t total = 0;
  for (const std::vector<double>& lv : levels_) total += lv.size();
  items.reserve(total);
  for (size_t l = 0; l < levels_.size(); ++l) {
    for (double v : levels_[l]) items.emplace_back(v, uint64_t{1} << l);
  }
  std::sort(items.begin(), items.end(),
            [](const std::pair<double, uint64_t>& a,
               const std::pair<double, uint64_t>& b) {
              return ValueLess(a.first, b.first);
            });
  const double target = q * static_cast<double>(count_);
  uint64_t cum = 0;
  for (const auto& [v, w] : items) {
    cum += w;
    if (static_cast<double>(cum) > target) return v;
  }
  return items.back().first;
}

std::vector<double> QuantileSketch::Histogram(size_t bins) const {
  std::vector<double> out(bins, 0.0);
  if (bins == 0 || count_ == 0) return out;
  const double lo = min_;
  const double width = max_ - min_;
  for (size_t l = 0; l < levels_.size(); ++l) {
    const double w = static_cast<double>(uint64_t{1} << l);
    for (double v : levels_[l]) {
      size_t b = 0;
      if (width > 0.0) {
        // f is NaN for inf-valued v on an infinite range: bin 0, never a
        // float-to-int cast of a non-finite value.
        const double f = (v - lo) / width * static_cast<double>(bins);
        if (f >= 0.0) b = std::min(bins - 1, static_cast<size_t>(f));
      }
      out[b] += w;
    }
  }
  return out;
}

Result<QuantileSketch> QuantileSketch::FromParts(
    size_t capacity, uint64_t count, double min_v, double max_v,
    uint64_t error_weight, std::vector<std::vector<double>> levels,
    std::vector<uint8_t> parities) {
  if (capacity < kMinCapacity || capacity > kMaxCapacity) {
    return Status::InvalidArgument("sketch capacity out of range");
  }
  if (levels.size() > kMaxLevels || levels.size() != parities.size()) {
    return Status::InvalidArgument("sketch level shape invalid");
  }
  uint64_t weight = 0;
  for (size_t l = 0; l < levels.size(); ++l) {
    if (levels[l].size() >= capacity) {
      return Status::InvalidArgument("sketch level over capacity");
    }
    if (parities[l] > 1) {
      return Status::InvalidArgument("sketch parity not 0/1");
    }
    for (double v : levels[l]) {
      if (std::isnan(v)) {
        return Status::InvalidArgument("sketch holds NaN");
      }
    }
    weight += static_cast<uint64_t>(levels[l].size()) << l;
  }
  if (weight != count) {
    return Status::InvalidArgument("sketch weight/count mismatch");
  }
  QuantileSketch s(capacity);
  s.count_ = count;
  s.min_ = min_v;
  s.max_ = max_v;
  s.error_weight_ = error_weight;
  s.levels_ = std::move(levels);
  s.parities_ = std::move(parities);
  return s;
}

}  // namespace stats
}  // namespace isla
