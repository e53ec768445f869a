/**
 * @file
 * gemmlowp-style matrix packing/unpacking (the paper's Section 5.3,
 * first PIM target).
 *
 * gemmlowp executes its fixed-size inner GEMM kernel over matrix chunks
 * that were *packed*: reordered so the kernel streams both operands
 * sequentially.  The LHS is stored as row panels of `panel` rows laid
 * out depth-major; the RHS as column panels of `panel` columns laid out
 * depth-major.  After the kernel runs, the panelized result is
 * *unpacked* back to row-major.  Packing/unpacking is pure data
 * reorganization — index arithmetic plus copies — with a cache-hostile
 * source access pattern on large matrices.
 */

#ifndef PIM_ML_PACK_H
#define PIM_ML_PACK_H

#include <cstdint>

#include "core/execution_context.h"
#include "workloads/ml/tensor.h"

namespace pim::ml {

/** Panel geometry shared by packing and the GEMM kernel. */
struct PackBlocking
{
    static constexpr int kPanel = 8; ///< Kernel micro-tile edge.
};

/**
 * A packed operand: ceil(dim/panel) panels, each panel * depth bytes,
 * depth-major within the panel.  Padding lanes hold zero.
 */
class PackedMatrix
{
  public:
    /**
     * @param outer rows (LHS) or columns (RHS) of the source
     * @param depth the shared GEMM K dimension
     */
    PackedMatrix(int outer, int depth);

    int outer() const { return outer_; }
    int depth() const { return depth_; }
    int panels() const { return panels_; }

    /** Value of (outer index, depth index); padding reads as zero. */
    std::uint8_t At(int o, int k) const;

    /** Storage index of (outer index, depth index). */
    std::size_t StorageIndex(int o, int k) const;

    pim::SimBuffer<std::uint8_t> &storage() { return storage_; }
    const pim::SimBuffer<std::uint8_t> &storage() const
    {
        return storage_;
    }

  private:
    int outer_;
    int depth_;
    int panels_;
    pim::SimBuffer<std::uint8_t> storage_;
};

/**
 * A panelized int32 result: kPanel x kPanel blocks stored contiguously,
 * block-row-major — the layout the GEMM kernel writes before unpacking.
 */
class PackedResult
{
  public:
    PackedResult(int rows, int cols);

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    int block_rows() const { return block_rows_; }
    int block_cols() const { return block_cols_; }

    void Set(int r, int c, std::int32_t v);
    std::size_t StorageIndex(int r, int c) const;

    pim::SimBuffer<std::int32_t> &storage() { return storage_; }
    const pim::SimBuffer<std::int32_t> &storage() const
    {
        return storage_;
    }

  private:
    int rows_;
    int cols_;
    int block_rows_;
    int block_cols_;
    pim::SimBuffer<std::int32_t> storage_;
};

/** Pack the LHS (row panels, depth-major); instrumented. */
void PackLhs(const Matrix<std::uint8_t> &src, PackedMatrix &dst,
             core::ExecutionContext &ctx);

/** Pack the RHS (column panels, depth-major); instrumented. */
void PackRhs(const Matrix<std::uint8_t> &src, PackedMatrix &dst,
             core::ExecutionContext &ctx);

/** Unpack the panelized result back to row-major; instrumented. */
void UnpackResult(const PackedResult &src, Matrix<std::int32_t> &dst,
                  core::ExecutionContext &ctx);

} // namespace pim::ml

#endif // PIM_ML_PACK_H
