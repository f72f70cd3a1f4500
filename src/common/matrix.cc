#include "src/common/matrix.h"

#include <algorithm>
#include <cmath>

namespace llamatune {

std::vector<double> Matrix::Apply(const std::vector<double>& x) const {
  std::vector<double> y(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = Row(r);
    for (int c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> Matrix::ApplyTransposed(const std::vector<double>& x) const {
  std::vector<double> y(cols_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    const double* row = Row(r);
    for (int c = 0; c < cols_; ++c) y[c] += row[c] * x[r];
  }
  return y;
}

void Matrix::Grow(int rows, int cols, double fill) {
  // Only the dimension that overflows grows: a row append keeps the
  // pitch and a column growth keeps the row capacity, so capacity stays
  // within a constant factor of rows x cols.
  int new_stride = cols > stride_ ? std::max(cols, 2 * stride_) : stride_;
  int new_row_capacity =
      rows > row_capacity_ ? std::max(rows, 2 * row_capacity_) : row_capacity_;
  std::vector<double> next(
      static_cast<size_t>(new_row_capacity) * new_stride, fill);
  int copy_rows = std::min(rows, rows_);
  int copy_cols = std::min(cols, cols_);
  for (int r = 0; r < copy_rows; ++r) {
    std::copy_n(data_.data() + static_cast<size_t>(r) * stride_, copy_cols,
                next.data() + static_cast<size_t>(r) * new_stride);
  }
  data_ = std::move(next);
  stride_ = new_stride;
  row_capacity_ = new_row_capacity;
  rows_ = rows;
  cols_ = cols;
}

void Matrix::ResizePreserve(int rows, int cols, double fill) {
  if (cols <= stride_ && rows <= row_capacity_) {
    // In place: fill the newly exposed cells (stale capacity may hold
    // garbage from a previous larger shape).
    int keep_rows = std::min(rows, rows_);
    if (cols > cols_) {
      for (int r = 0; r < keep_rows; ++r) {
        std::fill(Row(r) + cols_, Row(r) + cols, fill);
      }
    }
    for (int r = keep_rows; r < rows; ++r) {
      std::fill(Row(r), Row(r) + cols, fill);
    }
    rows_ = rows;
    cols_ = cols;
    return;
  }
  Grow(rows, cols, fill);
}

void Matrix::AppendRow(const double* row) {
  if (rows_ == row_capacity_) Grow(rows_ + 1, cols_, 0.0);
  else ++rows_;
  std::copy_n(row, cols_, Row(rows_ - 1));
}

Status CholeskyFactorInPlace(Matrix* a) {
  // Blocked right-looking variant: panels of four columns are factored
  // sequentially, then the trailing block receives one fused rank-4
  // update with contiguous (copied-column) inner loops — one pass over
  // the trailing matrix per panel instead of four, and no dot-product
  // latency chain. Every element still receives its subtractions in
  // ascending-column order (the fused update subtracts the four terms
  // sequentially), so the result is bit-for-bit identical to the
  // sequential formulation used by CholeskyExtend.
  int n = a->rows();
  constexpr int kPanel = 4;
  std::vector<double> panel(static_cast<size_t>(kPanel) * n, 0.0);
  for (int j = 0; j < n; j += kPanel) {
    int jb = std::min(kPanel, n - j);
    // Factor the panel columns j..j+jb-1.
    for (int c = 0; c < jb; ++c) {
      int col = j + c;
      // Apply the updates owed by the panel's earlier columns.
      for (int c2 = 0; c2 < c; ++c2) {
        const double* v2 = &panel[static_cast<size_t>(c2) * n];
        double v2_col = v2[col];
        for (int i = col; i < n; ++i) a->Row(i)[col] -= v2[i] * v2_col;
      }
      double diag = a->at(col, col);
      if (diag <= 0.0 || !std::isfinite(diag)) {
        return Status::Internal("Cholesky: matrix not positive definite");
      }
      double l_jj = std::sqrt(diag);
      a->at(col, col) = l_jj;
      double* v = &panel[static_cast<size_t>(c) * n];
      v[col] = l_jj;
      for (int i = col + 1; i < n; ++i) {
        double scaled = a->Row(i)[j + c] / l_jj;
        a->Row(i)[col] = scaled;
        v[i] = scaled;
      }
    }
    // Fused trailing update for columns >= j+jb.
    const double* __restrict__ v0 = &panel[0];
    const double* __restrict__ v1 = &panel[static_cast<size_t>(1) * n];
    const double* __restrict__ v2 = &panel[static_cast<size_t>(2) * n];
    const double* __restrict__ v3 = &panel[static_cast<size_t>(3) * n];
    for (int i = j + jb; i < n; ++i) {
      double* __restrict__ row_i = a->Row(i);
      if (jb == kPanel) {
        double l0 = v0[i], l1 = v1[i], l2 = v2[i], l3 = v3[i];
        for (int k = j + jb; k <= i; ++k) {
          double x = row_i[k];
          x -= l0 * v0[k];
          x -= l1 * v1[k];
          x -= l2 * v2[k];
          x -= l3 * v3[k];
          row_i[k] = x;
        }
      } else {
        for (int c = 0; c < jb; ++c) {
          const double* vc = &panel[static_cast<size_t>(c) * n];
          double l_ic = vc[i];
          for (int k = j + jb; k <= i; ++k) row_i[k] -= l_ic * vc[k];
        }
      }
    }
  }
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < j; ++i) a->at(i, j) = 0.0;  // zero upper triangle
  }
  return Status::OK();
}

Status CholeskyExtend(Matrix* l, const double* row) {
  int n = l->rows();
  // Solve L l_new = row[0..n-1], then the new diagonal — exactly the
  // arithmetic CholeskyFactorInPlace performs for its last row, in the
  // same accumulation order, so extension is bit-for-bit a suffix of a
  // full factorization.
  std::vector<double> l_new(n + 1, 0.0);
  for (int j = 0; j < n; ++j) {
    const double* row_j = l->Row(j);
    double acc = row[j];
    for (int k = 0; k < j; ++k) acc -= l_new[k] * row_j[k];
    l_new[j] = acc / row_j[j];
  }
  double diag = row[n];
  for (int k = 0; k < n; ++k) diag -= l_new[k] * l_new[k];
  if (diag <= 0.0 || !std::isfinite(diag)) {
    return Status::Internal("CholeskyExtend: extension not positive definite");
  }
  l_new[n] = std::sqrt(diag);
  l->ResizePreserve(n + 1, n + 1, 0.0);
  std::copy_n(l_new.data(), n + 1, l->Row(n));
  return Status::OK();
}

void TriangularSolveLower(const Matrix& l, const double* b, double* z) {
  int n = l.rows();
  for (int i = 0; i < n; ++i) {
    const double* row_i = l.Row(i);
    double acc = b[i];
    for (int k = 0; k < i; ++k) acc -= row_i[k] * z[k];
    z[i] = acc / row_i[i];
  }
}

void TriangularSolveLowerTransposed(const Matrix& l, const double* b,
                                    double* z) {
  int n = l.rows();
  for (int i = n - 1; i >= 0; --i) {
    double acc = b[i];
    for (int k = i + 1; k < n; ++k) acc -= l.at(k, i) * z[k];
    z[i] = acc / l.at(i, i);
  }
}

void TriangularSolveLowerMulti(const Matrix& l, Matrix* b) {
  // Rows are processed in groups of four: the shared prefix (columns
  // before the group) reads each solved row once and updates all four
  // group rows in a single fused, vectorizable pass — a 4x cut in
  // cache traffic over the row-at-a-time form. Each output element
  // still receives its subtractions in ascending-k order followed by
  // one division, so per-column results are bit-for-bit what
  // TriangularSolveLower produces.
  int n = l.rows();
  int m = b->cols();
  constexpr int kGroup = 4;
  for (int g = 0; g < n; g += kGroup) {
    int gb = std::min(kGroup, n - g);
    if (gb == kGroup) {
      double* __restrict__ r0 = b->Row(g);
      double* __restrict__ r1 = b->Row(g + 1);
      double* __restrict__ r2 = b->Row(g + 2);
      double* __restrict__ r3 = b->Row(g + 3);
      for (int k = 0; k < g; ++k) {
        const double* __restrict__ b_k = b->Row(k);
        double l0 = l.at(g, k);
        double l1 = l.at(g + 1, k);
        double l2 = l.at(g + 2, k);
        double l3 = l.at(g + 3, k);
        for (int c = 0; c < m; ++c) {
          double x = b_k[c];
          r0[c] -= l0 * x;
          r1[c] -= l1 * x;
          r2[c] -= l2 * x;
          r3[c] -= l3 * x;
        }
      }
    } else {
      for (int r = 0; r < gb; ++r) {
        double* __restrict__ b_r = b->Row(g + r);
        for (int k = 0; k < g; ++k) {
          double l_rk = l.at(g + r, k);
          const double* __restrict__ b_k = b->Row(k);
          for (int c = 0; c < m; ++c) b_r[c] -= l_rk * b_k[c];
        }
      }
    }
    // Finish the group: intra-group subtractions and divisions in row
    // order (row g+1 uses the just-finalized row g, and so on).
    for (int r = 0; r < gb; ++r) {
      int i = g + r;
      double* __restrict__ b_i = b->Row(i);
      for (int k = g; k < i; ++k) {
        double l_ik = l.at(i, k);
        const double* __restrict__ b_k = b->Row(k);
        for (int c = 0; c < m; ++c) b_i[c] -= l_ik * b_k[c];
      }
      double divisor = l.at(i, i);
      for (int c = 0; c < m; ++c) b_i[c] /= divisor;
    }
  }
}

}  // namespace llamatune
