// Query-friendly view of an FPGA fabric for floorplanning.
//
// The fabric is a grid of heterogeneous columns x clock-region rows (see
// arch/device.hpp). Because every row of a column contributes the same
// resources, the resources of any axis-aligned rectangle are
//   height * sum_{c in [col0, col0+width)} units(c)
// which this class answers in O(#kinds) via per-kind column prefix sums.
#pragma once

#include "arch/device.hpp"

namespace resched {

class Fabric {
 public:
  explicit Fabric(const FpgaDevice& device);

  std::size_t Rows() const { return rows_; }
  std::size_t Columns() const { return num_columns_; }
  const ResourceModel& Model() const { return model_; }

  /// Resources contributed by columns [col0, col0 + width) in ONE row.
  ResourceVec RowSlice(std::size_t col0, std::size_t width) const;

  /// Resources of the rectangle spanning `width` columns and `height` rows.
  ResourceVec RectResources(std::size_t col0, std::size_t width,
                            std::size_t height) const;

  /// Whole-fabric capacity.
  const ResourceVec& Capacity() const { return capacity_; }

  /// Per-row column prefix sums of kind `kind`: element c is the units
  /// of that kind in columns [0, c) of one row (Columns() + 1 values).
  const std::int64_t* KindPrefix(std::size_t kind) const {
    return prefix_[kind].data();
  }

 private:
  // Owned copy: Fabric outlives any (possibly temporary) device it was
  // built from.
  ResourceModel model_;
  std::size_t rows_ = 0;
  std::size_t num_columns_ = 0;
  // prefix_[k][c] = units of kind k in columns [0, c)
  std::vector<std::vector<std::int64_t>> prefix_;
  ResourceVec capacity_;
};

}  // namespace resched
