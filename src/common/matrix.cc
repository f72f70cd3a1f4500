#include "src/common/matrix.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/lanes.h"
#include "src/common/thread_pool.h"

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
  // Rows in ascending order, columns side by side in lanes: each y[c]
  // is the serial sum over r.
  std::vector<double> y(cols_, 0.0);
  double* out = y.data();
  for (int r = 0; r < rows_; ++r) {
    const double* row = Row(r);
    int c = 0;
    for (; c + 4 <= cols_; c += 4) {
      *AsLanes(out + c) += *AsLanes(row + c) * x[r];
    }
    for (; c < cols_; ++c) out[c] += row[c] * x[r];
  }
  return y;
}

std::vector<double> Matrix::ColumnSumsOfSquares() const {
  std::vector<double> y(cols_, 0.0);
  double* out = y.data();
  for (int r = 0; r < rows_; ++r) {
    const double* row = Row(r);
    int c = 0;
    for (; c + 4 <= cols_; c += 4) {
      const Lanes v = *AsLanes(row + c);
      *AsLanes(out + c) += v * v;
    }
    for (; c < cols_; ++c) out[c] += row[c] * row[c];
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

namespace {

// Loads and stores of one tile column: four lanes, or one double in the
// narrow column tail.
inline void LoadCell(const double* p, Lanes* v) { *v = *AsLanes(p); }
inline void LoadCell(const double* p, double* v) { *v = *p; }
inline void StoreCell(double* p, const Lanes& v) { *AsLanes(p) = v; }
inline void StoreCell(double* p, double v) { *p = v; }

// Calls f(std::integral_constant<int, 0>{}) ... f(<N - 1>{}): the tile
// loops are unrolled at compile time, so a tile's lanes live in
// registers at any optimisation level.
template <typename F, int... Is>
inline void UnrollImpl(F&& f, std::integer_sequence<int, Is...>) {
  (f(std::integral_constant<int, Is>{}), ...);
}
template <int N, typename F>
inline void Unroll(F&& f) {
  UnrollImpl(f, std::make_integer_sequence<int, N>{});
}

// Solves rows [g, g + R) of L Z = B for the columns [c, c + V * width)
// (Goto & van de Geijn's register blocking): the R x V block of lanes
// stays in registers across the whole shared prefix k in [0, g), then
// takes the intra-group subtractions and the divisions there too, and
// is stored once. Every element still sees b - l_0 x_0 - l_1 x_1 - ...
// in ascending k followed by one division, as TriangularSolveLower
// computes it.
template <typename T, int R, int V>
void SolveTile(const Matrix& l, Matrix* b, int g, int c) {
  constexpr int kW = sizeof(T) / sizeof(double);
  const double* l_rows[R];
  T acc[R][V];
  Unroll<R>([&](auto r) {
    l_rows[r] = l.Row(g + r);
    const double* b_r = b->Row(g + r) + c;
    Unroll<V>([&](auto j) { LoadCell(b_r + j * kW, &acc[r][j]); });
  });
  for (int k = 0; k < g; ++k) {
    const double* b_k = b->Row(k) + c;
    T x[V];
    Unroll<V>([&](auto j) { LoadCell(b_k + j * kW, &x[j]); });
    Unroll<R>([&](auto r) {
      const double l_rk = l_rows[r][k];
      Unroll<V>([&](auto j) { acc[r][j] -= l_rk * x[j]; });
    });
  }
  // Row g + r uses the rows of the group finished before it.
  Unroll<R>([&](auto r) {
    Unroll<r>([&](auto k) {
      const double l_rk = l_rows[r][g + k];
      Unroll<V>([&](auto j) { acc[r][j] -= l_rk * acc[k][j]; });
    });
    const double divisor = l_rows[r][g + r];
    Unroll<V>([&](auto j) { acc[r][j] /= divisor; });
  });
  Unroll<R>([&](auto r) {
    double* b_r = b->Row(g + r) + c;
    Unroll<V>([&](auto j) { StoreCell(b_r + j * kW, acc[r][j]); });
  });
}

// All columns of rows [g, g + R): 12-wide tiles, then 8-, 4- and
// 1-wide tails.
template <int R>
void SolveGroup(const Matrix& l, Matrix* b, int g) {
  int m = b->cols();
  int c = 0;
  for (; c + 12 <= m; c += 12) SolveTile<Lanes, R, 3>(l, b, g, c);
  if (c + 8 <= m) {
    SolveTile<Lanes, R, 2>(l, b, g, c);
    c += 8;
  }
  if (c + 4 <= m) {
    SolveTile<Lanes, R, 1>(l, b, g, c);
    c += 4;
  }
  for (; c < m; ++c) SolveTile<double, R, 1>(l, b, g, c);
}

// Rows [u0, u0 + H) x columns [v0, v0 + 4) of WeightedGramLower: one
// lane per column, summed over ascending i.
template <int H>
void GramTile(const Matrix& bt, const double* w, int u0, int v0,
              Matrix* out) {
  Lanes acc[H];
  Unroll<H>([&](auto r) { acc[r] = Lanes{}; });
  for (int i = 0; i < bt.rows(); ++i) {
    const double* row = bt.Row(i);
    const Lanes x = *AsLanes(row + v0);
    Unroll<H>([&](auto r) { acc[r] += row[u0 + r] * x * w[i]; });
  }
  for (int r = 0; r < H; ++r) {
    double* out_row = out->Row(u0 + r);
    for (int j = 0; j < 4 && v0 + j <= u0 + r; ++j) out_row[v0 + j] = acc[r][j];
  }
}

}  // namespace

void TriangularSolveLowerMulti(const Matrix& l, Matrix* b) {
  // Rows go in groups of four, columns in register tiles: each solved
  // row is read once per tile and each output element is loaded and
  // stored once, instead of once per k.
  int n = l.rows();
  int g = 0;
  for (; g + 4 <= n; g += 4) SolveGroup<4>(l, b, g);
  // The last 1-3 rows.
  static constexpr void (*kTail[])(const Matrix&, Matrix*, int) = {
      SolveGroup<1>, SolveGroup<2>, SolveGroup<3>};
  if (g < n) kTail[n - g - 1](l, b, g);
}

void WeightedGramLower(const Matrix& bt, const double* w, Matrix* out,
                       int num_threads) {
  int m = bt.cols();
  int tile_rows = (m + 3) / 4;
  // Full-width tiles of 1-4 rows (only the last tile row is shorter).
  static constexpr void (*kTiles[])(const Matrix&, const double*, int, int,
                                    Matrix*) = {GramTile<1>, GramTile<2>,
                                                GramTile<3>, GramTile<4>};
  ThreadPool::Global().ParallelFor(
      tile_rows,
      [&](int t) {
        int u0 = 4 * t;
        int h = std::min(4, m - u0);
        for (int v0 = 0; v0 <= u0; v0 += 4) {
          if (v0 + 4 > m) {
            // The last diagonal tile is narrower than a lane vector:
            // one scalar sum per element, in the same order.
            for (int u = u0; u < m; ++u) {
              for (int v = v0; v <= u; ++v) {
                double acc = 0.0;
                for (int i = 0; i < bt.rows(); ++i) {
                  acc += bt.at(i, u) * bt.at(i, v) * w[i];
                }
                out->at(u, v) = acc;
              }
            }
            continue;
          }
          kTiles[h - 1](bt, w, u0, v0, out);
        }
      },
      num_threads);
}

}  // namespace llamatune
