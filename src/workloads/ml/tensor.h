/**
 * @file
 * Minimal matrix container for the quantized-inference stack.
 *
 * TensorFlow Mobile lowers Conv2D/MatMul layers to 2-D GEMM on
 * gemmlowp's quantized matrices; everything in this workload operates
 * on row-major matrices of float / uint8 / int32.
 */

#ifndef PIM_ML_TENSOR_H
#define PIM_ML_TENSOR_H

#include <cstdint>

#include "common/buffer.h"
#include "common/logging.h"
#include "common/rng.h"

namespace pim::ml {

/** Row-major matrix backed by a SimBuffer. */
template <typename T>
class Matrix
{
  public:
    Matrix() : rows_(0), cols_(0) {}

    Matrix(int rows, int cols, T fill = T())
        : rows_(rows), cols_(cols),
          data_(static_cast<std::size_t>(rows) * cols, fill)
    {
        PIM_ASSERT(rows > 0 && cols > 0, "matrix must be non-empty");
    }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    Bytes size_bytes() const { return data_.size_bytes(); }

    T &
    At(int r, int c)
    {
        return data_[Index(r, c)];
    }
    T
    At(int r, int c) const
    {
        return data_[Index(r, c)];
    }

    /** Row @p r as a pointer (bounds-checked once for the whole row). */
    T *Row(int r) { return data_.data() + Index(r, 0); }
    const T *Row(int r) const { return data_.data() + Index(r, 0); }

    Address
    SimAddr(int r, int c) const
    {
        return data_.SimAddr(Index(r, c));
    }

    pim::SimBuffer<T> &buffer() { return data_; }
    const pim::SimBuffer<T> &buffer() const { return data_; }

    /** Fill with deterministic pseudo-random content. */
    void
    Randomize(Rng &rng)
    {
        for (auto &v : data_) {
            if constexpr (std::is_floating_point_v<T>) {
                v = static_cast<T>(rng.NextDouble() * 2.0 - 1.0);
            } else {
                v = static_cast<T>(rng.Next64());
            }
        }
    }

  private:
    std::size_t
    Index(int r, int c) const
    {
        PIM_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                   "(%d,%d) out of %dx%d", r, c, rows_, cols_);
        return static_cast<std::size_t>(r) * cols_ + c;
    }

    int rows_;
    int cols_;
    pim::SimBuffer<T> data_;
};

} // namespace pim::ml

#endif // PIM_ML_TENSOR_H
