#pragma once

#include <cstddef>
#include <vector>

#include "src/common/status.h"

namespace llamatune {

/// \brief Dense row-major matrix of doubles over flat contiguous
/// storage.
///
/// The shared math-core type: the GP Gram/Cholesky hot path, the
/// surrogate prediction batches, and the DDPG actor/critic networks all
/// run over it. Rows are contiguous, so row-wise kernels and
/// triangular-solve inner loops stream linearly through memory instead
/// of chasing per-row allocations.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows),
        cols_(cols),
        stride_(cols),
        row_capacity_(rows),
        data_(static_cast<size_t>(rows) * cols, fill) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& at(int r, int c) {
    return data_[static_cast<size_t>(r) * stride_ + c];
  }
  double at(int r, int c) const {
    return data_[static_cast<size_t>(r) * stride_ + c];
  }

  /// Direct pointer to the start of row `r` (contiguous `cols()`
  /// doubles).
  double* Row(int r) {
    return data_.data() + static_cast<size_t>(r) * stride_;
  }
  const double* Row(int r) const {
    return data_.data() + static_cast<size_t>(r) * stride_;
  }

  /// Raw backing storage. Rows are packed back-to-back (stride ==
  /// cols) until the column count changes — true for every freshly
  /// constructed matrix and for one grown only by AppendRow. After a
  /// column growth or shrink the pitch may exceed cols().
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// y = M x  (x has cols() entries; y has rows() entries).
  std::vector<double> Apply(const std::vector<double>& x) const;

  /// y = M^T x (x has rows() entries; y has cols() entries). Each
  /// y[c] is summed over ascending rows.
  std::vector<double> ApplyTransposed(const std::vector<double>& x) const;

  /// y[c] = sum_r M(r, c)^2, summed over ascending rows (cols()
  /// entries).
  std::vector<double> ColumnSumsOfSquares() const;

  /// Resizes to (rows, cols) keeping the overlapping top-left block;
  /// new cells are set to `fill`. Capacity grows geometrically and per
  /// dimension: the row capacity doubles only when `rows` overflows it,
  /// the pitch only when `cols` does. So the GP's per-observation
  /// growth of its cached squares (Gram geometry, Cholesky factor) and
  /// of its n-column transposed training buffers costs amortized
  /// O(new cells), and memory stays O(rows x cols): at most 4x the
  /// largest rows times the largest cols requested (2x when only one
  /// dimension ever grew).
  void ResizePreserve(int rows, int cols, double fill = 0.0);

  /// Appends one row (cols() doubles) to the bottom; construct with
  /// the intended column count first. Zero-column matrices are fine
  /// (the append only bumps rows()). Amortized O(cols); only the row
  /// capacity grows, so on a matrix grown only this way rows stay
  /// packed and memory stays within 2x of rows x cols.
  void AppendRow(const double* row);

 private:
  /// Re-layouts into a buffer with at least (rows, cols) logical cells.
  /// Each dimension that overflows grows to max(requested, 2 x
  /// current); a dimension that still fits keeps its capacity.
  void Grow(int rows, int cols, double fill);

  int rows_ = 0;
  int cols_ = 0;
  int stride_ = 0;        // row pitch in doubles (>= cols_)
  int row_capacity_ = 0;  // allocated rows
  std::vector<double> data_;
};

/// \name Flat dense linear algebra (the model-fitting hot path)
/// @{

/// In-place Cholesky factorization of the symmetric positive-definite
/// matrix in `a`: on success `a` holds the lower-triangular L with
/// A = L L^T (upper triangle zeroed). Fails without touching the
/// caller's semantics if A is not positive definite — the buffer is
/// partially overwritten and must be rebuilt before a retry.
Status CholeskyFactorInPlace(Matrix* a);

/// Rank-extends a cached Cholesky factor by one row/column in O(n^2):
/// given the n x n factor L of A and `row` = [A(n,0..n-1), A(n,n)]
/// (n+1 entries — the new matrix row), grows `l` to the (n+1) x (n+1)
/// factor of the extended matrix. The arithmetic matches what a full
/// CholeskyFactorInPlace of the extended matrix would compute for the
/// new row bit-for-bit, so incremental and from-scratch fits agree
/// exactly. Fails (leaving `l` unchanged) when the extension is not
/// positive definite.
Status CholeskyExtend(Matrix* l, const double* row);

/// Solves L z = b (forward substitution) for lower-triangular L.
/// `b` and `z` may alias.
void TriangularSolveLower(const Matrix& l, const double* b, double* z);

/// Solves L^T z = b (backward substitution) for lower-triangular L.
/// `b` and `z` may alias.
void TriangularSolveLowerTransposed(const Matrix& l, const double* b,
                                    double* z);

/// Solves L Z = B for all columns of B at once, in place (B is n x m;
/// each column is an independent right-hand side). One pass over L
/// serves every column — this is what lets acquisition scoring solve
/// all candidate k_star columns against the cached factor in a single
/// sweep. Rows go in groups of four and columns in register tiles of
/// 12 (tails of 8, 4 and 1), so a tile is loaded and stored once per
/// group rather than once per solved row. Column c of the result is
/// bit-for-bit what TriangularSolveLower would produce for column c
/// alone.
void TriangularSolveLowerMulti(const Matrix& l, Matrix* b);

/// Lower triangle of the weighted Gram matrix B diag(w) B^T, read from
/// the transposed `bt` (n x m, row i holds B's column i):
///   out(u, v) = sum_i (bt(i, u) * bt(i, v)) * w[i]   for v <= u,
/// each summed over ascending i from +0.0 — bit-for-bit the naive
/// triple loop. `out` must be m x m; its upper triangle is left as is.
/// Computed in 4 x 4 register tiles, one lane per column v; the tile
/// rows are spread over up to `num_threads` executors of the global
/// pool (1 = serial inline), which cannot change any bit.
void WeightedGramLower(const Matrix& bt, const double* w, Matrix* out,
                       int num_threads);

/// @}

}  // namespace llamatune
