#ifndef ISLA_STORAGE_TABLE_H_
#define ISLA_STORAGE_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/block.h"

namespace isla {
namespace storage {

/// A column is an ordered list of blocks — the paper's block set B. The
/// per-block sizes |B_j| drive both sampling allocation and the
/// summarization weights (§II-C).
class Column {
 public:
  explicit Column(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Appends a block shard. Null or empty blocks are rejected.
  Status AppendBlock(BlockPtr block);

  const std::vector<BlockPtr>& blocks() const { return blocks_; }
  size_t num_blocks() const { return blocks_.size(); }

  /// Total rows across blocks (the paper's M).
  uint64_t num_rows() const { return num_rows_; }

  /// Content identity of the whole column: the per-block fingerprints
  /// chained in block order (block structure included by construction).
  /// Equal fingerprints mean bit-identical rows in the same block layout,
  /// so the scan scheduler may cache pilots/results under the fingerprint
  /// and serve every holder from one entry. Never 0.
  uint64_t ContentFingerprint() const;

 private:
  std::string name_;
  std::vector<BlockPtr> blocks_;
  uint64_t num_rows_ = 0;
};

/// A named collection of columns. Columns may have different row counts
/// (they model independent attributes, not a row store).
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Creates an empty column; fails with AlreadyExists on duplicates.
  Status AddColumn(const std::string& column_name);

  /// Appends a block to an existing column.
  Status AppendBlock(const std::string& column_name, BlockPtr block);

  /// Looks up a column; fails with NotFound.
  Result<const Column*> GetColumn(const std::string& column_name) const;

  /// Names of all columns, in insertion order.
  std::vector<std::string> ColumnNames() const;

 private:
  std::string name_;
  std::vector<std::string> order_;
  std::map<std::string, Column> columns_;
};

/// An in-process catalog mapping table names to tables, the target of the
/// mini-SQL front end (src/engine).
class Catalog {
 public:
  /// Registers a table; fails with AlreadyExists on duplicate names.
  Status AddTable(std::shared_ptr<Table> table);

  /// Looks up a table; fails with NotFound.
  Result<std::shared_ptr<const Table>> GetTable(const std::string& name) const;

  /// Removes a table; fails with NotFound. Outstanding shared_ptrs stay
  /// valid (blocks are reference-counted).
  Status DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, std::shared_ptr<Table>> tables_;
};

}  // namespace storage
}  // namespace isla

#endif  // ISLA_STORAGE_TABLE_H_
