#include "storage/block.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>

#include "runtime/kernels/kernels.h"
#include "storage/file_block.h"
#include "util/rng.h"

namespace isla {
namespace storage {

namespace {

/// Process-unique block ids, hashed so default fingerprints are spread over
/// the full 64-bit space like the content-derived ones. Never 0 (the hash
/// of a fixed tag and a distinct counter collides with 0 with probability
/// 2^-64 per block; the explicit coercion removes even that).
uint64_t NextUniqueFingerprint() {
  static std::atomic<uint64_t> counter{0};
  uint64_t h = SplitMix64::Hash(
      0xb10c1dULL, counter.fetch_add(1, std::memory_order_relaxed));
  return h == 0 ? 1 : h;
}

}  // namespace

Block::Block() : unique_fingerprint_(NextUniqueFingerprint()) {}

uint64_t Block::DataFingerprint() const {
  uint64_t cached = data_fingerprint_.load(std::memory_order_acquire);
  if (cached != 0) return cached;
  uint64_t fp = ComputeDataFingerprint();
  if (fp == 0) fp = 1;
  // Racing const readers compute the same value (blocks are immutable), so
  // a plain store is fine — last writer wins with an identical result.
  data_fingerprint_.store(fp, std::memory_order_release);
  return fp;
}

uint64_t Block::ComputeDataFingerprint() const {
  const uint64_t rows = size();
  uint32_t crc = kCrc32Init;
  std::vector<double> chunk;
  constexpr uint64_t kChunkRows = 65536;
  for (uint64_t start = 0; start < rows; start += kChunkRows) {
    const uint64_t count = std::min(kChunkRows, rows - start);
    if (!ReadRange(start, count, &chunk).ok()) return 0;
    crc = Crc32Update(crc, chunk.data(), chunk.size() * sizeof(double));
  }
  return SplitMix64::Hash(rows, Crc32Finalize(crc));
}

Status Block::ReadRange(uint64_t start, uint64_t count,
                        std::vector<double>* out) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  if (start > size() || count > size() - start) {
    return Status::OutOfRange("ReadRange past end of block");
  }
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) out->push_back(ValueAt(start + i));
  return Status::OK();
}

Status Block::GatherAt(std::span<const uint64_t> indices, double* out) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  const uint64_t n = size();
  for (uint64_t index : indices) {
    if (index >= n) return Status::OutOfRange("GatherAt index past end");
  }
  for (size_t i = 0; i < indices.size(); ++i) out[i] = ValueAt(indices[i]);
  return Status::OK();
}

Status GatherInto(const Block& block, std::span<const uint64_t> indices,
                  double* out) {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  const std::span<const double> view = block.ContiguousView();
  if (view.empty()) return block.GatherAt(indices, out);
  // Resident path through the kernel dispatch table: one vectorized range
  // check over the whole batch (preserving the no-partial-output contract),
  // then the gather.
  const auto& kernels = runtime::kernels::Ops();
  if (!kernels.indices_in_range(indices.data(), indices.size(),
                                view.size())) {
    return Status::OutOfRange("GatherAt index past end");
  }
  kernels.gather_f64(view.data(), indices.data(), indices.size(), out);
  return Status::OK();
}

Status GatherRowsAt(std::span<const Block* const> columns,
                    std::span<const uint64_t> indices,
                    std::vector<std::vector<double>>* out) {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  out->resize(columns.size());
  uint64_t rows = 0;
  bool have_rows = false;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c] == nullptr) {
      (*out)[c].clear();
      continue;
    }
    if (!have_rows) {
      rows = columns[c]->size();
      have_rows = true;
    } else if (columns[c]->size() != rows) {
      return Status::FailedPrecondition(
          "GatherRowsAt blocks are not row-aligned");
    }
    (*out)[c].resize(indices.size());
    ISLA_RETURN_NOT_OK(GatherInto(*columns[c], indices, (*out)[c].data()));
  }
  return Status::OK();
}

MemoryBlock::MemoryBlock(std::vector<double> values)
    : values_(std::move(values)) {}

double MemoryBlock::ValueAt(uint64_t index) const {
  if (index >= values_.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return values_[index];
}

Status MemoryBlock::ReadRange(uint64_t start, uint64_t count,
                              std::vector<double>* out) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  if (start > values_.size() || count > values_.size() - start) {
    return Status::OutOfRange("ReadRange past end of block");
  }
  out->assign(values_.begin() + static_cast<ptrdiff_t>(start),
              values_.begin() + static_cast<ptrdiff_t>(start + count));
  return Status::OK();
}

Status MemoryBlock::GatherAt(std::span<const uint64_t> indices,
                             double* out) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  const auto& kernels = runtime::kernels::Ops();
  if (!kernels.indices_in_range(indices.data(), indices.size(),
                                values_.size())) {
    return Status::OutOfRange("GatherAt index past end");
  }
  kernels.gather_f64(values_.data(), indices.data(), indices.size(), out);
  return Status::OK();
}

std::string MemoryBlock::DebugString() const {
  std::ostringstream os;
  os << "memory[" << values_.size() << "]";
  return os.str();
}

GeneratorBlock::GeneratorBlock(
    std::shared_ptr<const stats::Distribution> dist, uint64_t size,
    uint64_t seed)
    : dist_(std::move(dist)), size_(size), seed_(seed) {
  // Rows are a pure function of (distribution params, size, seed), so the
  // content identity is too — when the distribution exposes its parameter
  // fingerprint. Computed once here; blocks are immutable.
  uint64_t dist_fp = dist_ == nullptr ? 0 : dist_->Fingerprint();
  if (dist_fp == 0) {
    content_fingerprint_ = 0;
  } else {
    uint64_t h = SplitMix64::Hash(0x9e4ULL, dist_fp);
    h = SplitMix64::Hash(h, size_);
    h = SplitMix64::Hash(h, seed_);
    content_fingerprint_ = h == 0 ? 1 : h;
  }
}

uint64_t GeneratorBlock::ContentFingerprint() const {
  return content_fingerprint_ != 0 ? content_fingerprint_
                                   : Block::ContentFingerprint();
}

double GeneratorBlock::ValueAt(uint64_t index) const {
  if (index >= size_) return std::numeric_limits<double>::quiet_NaN();
  return dist_->Sample(seed_, index);
}

Status GeneratorBlock::GatherAt(std::span<const uint64_t> indices,
                                double* out) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  for (uint64_t index : indices) {
    if (index >= size_) return Status::OutOfRange("GatherAt index past end");
  }
  const stats::Distribution& dist = *dist_;
  for (size_t i = 0; i < indices.size(); ++i) {
    out[i] = dist.Sample(seed_, indices[i]);
  }
  return Status::OK();
}

std::string GeneratorBlock::DebugString() const {
  std::ostringstream os;
  os << "gen[" << size_ << " " << dist_->Name() << " seed=" << seed_ << "]";
  return os.str();
}

}  // namespace storage
}  // namespace isla
