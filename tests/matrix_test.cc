#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "src/common/matrix.h"
#include "src/common/rng.h"

namespace llamatune {
namespace {

TEST(MatrixTest, FlatRowMajorAccess) {
  Matrix m(2, 3, 0.0);
  m.at(0, 0) = 1.0;
  m.at(0, 2) = 2.0;
  m.at(1, 1) = 3.0;
  EXPECT_EQ(m.data(), (std::vector<double>{1, 0, 2, 0, 3, 0}));
  EXPECT_EQ(m.Row(1)[1], 3.0);
}

TEST(MatrixTest, ApplyAndTranspose) {
  Matrix m(2, 3);
  // [[1,2,3],[4,5,6]]
  for (int c = 0; c < 3; ++c) {
    m.at(0, c) = c + 1.0;
    m.at(1, c) = c + 4.0;
  }
  EXPECT_EQ(m.Apply({1.0, 1.0, 1.0}), (std::vector<double>{6.0, 15.0}));
  EXPECT_EQ(m.ApplyTransposed({1.0, 1.0}),
            (std::vector<double>{5.0, 7.0, 9.0}));
}

TEST(MatrixTest, ResizePreserveKeepsTopLeftBlock) {
  Matrix m(2, 2);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 2.0;
  m.at(1, 0) = 3.0;
  m.at(1, 1) = 4.0;
  m.ResizePreserve(3, 3, -1.0);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.at(0, 0), 1.0);
  EXPECT_EQ(m.at(0, 1), 2.0);
  EXPECT_EQ(m.at(1, 0), 3.0);
  EXPECT_EQ(m.at(1, 1), 4.0);
  EXPECT_EQ(m.at(0, 2), -1.0);
  EXPECT_EQ(m.at(2, 2), -1.0);
  m.ResizePreserve(2, 2);
  EXPECT_EQ(m.at(1, 1), 4.0);
}

TEST(MatrixTest, AppendRowGrowsWithoutMovingCells) {
  Matrix m(1, 2);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 2.0;
  double row[] = {3.0, 4.0};
  m.AppendRow(row);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.at(1, 0), 3.0);
  EXPECT_EQ(m.at(1, 1), 4.0);
}

// Growth is per dimension: capacity stays within a constant factor of
// the shape reached, however that shape was grown.
TEST(MatrixCapacityTest, AppendRowKeepsRowsPacked) {
  constexpr int kRows = 300;
  constexpr int kCols = 16;
  Matrix m(0, kCols);
  std::vector<double> row(kCols);
  for (int i = 0; i < kRows; ++i) {
    for (int c = 0; c < kCols; ++c) row[c] = i * kCols + c;
    m.AppendRow(row.data());
  }
  for (int i = 0; i + 1 < kRows; ++i) {
    ASSERT_EQ(m.Row(i + 1) - m.Row(i), kCols) << "row " << i;
  }
  EXPECT_LE(m.data().size(), static_cast<size_t>(2 * kRows * kCols));
  for (int k = 0; k < kRows * kCols; ++k) {
    ASSERT_EQ(m.data()[k], static_cast<double>(k)) << "cell " << k;
  }
}

TEST(MatrixCapacityTest, ColumnGrowthKeepsRowCapacity) {
  // The transposed training buffer's pattern: fixed rows, one more
  // column per observation.
  constexpr int kRows = 16;
  constexpr int kMaxCols = 300;
  Matrix m;
  for (int n = 1; n <= kMaxCols; ++n) {
    m.ResizePreserve(kRows, n, 0.0);
    for (int r = 0; r < kRows; ++r) m.at(r, n - 1) = r * kMaxCols + n;
  }
  EXPECT_LE(m.data().size(), static_cast<size_t>(2 * kRows * kMaxCols));
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kMaxCols; ++c) {
      ASSERT_EQ(m.at(r, c), r * kMaxCols + c + 1.0) << r << "," << c;
    }
  }
}

TEST(MatrixCapacityTest, SquareGrowthStaysQuadratic) {
  // The Gram/Cholesky pattern: one more row and column per observation.
  constexpr int kN = 300;
  Matrix m;
  for (int n = 1; n <= kN; ++n) m.ResizePreserve(n, n, 1.0);
  EXPECT_LE(m.data().size(), static_cast<size_t>(4 * kN * kN));
}

// Every visible cell of `m` against the oracle (oracle_cols columns,
// one inner vector per row).
::testing::AssertionResult MatchesOracle(
    const Matrix& m, const std::vector<std::vector<double>>& oracle,
    int oracle_cols) {
  if (m.rows() != static_cast<int>(oracle.size()) ||
      m.cols() != oracle_cols) {
    return ::testing::AssertionFailure()
           << "shape " << m.rows() << "x" << m.cols() << ", want "
           << oracle.size() << "x" << oracle_cols;
  }
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      if (m.at(r, c) != oracle[r][c]) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c << ") = " << m.at(r, c)
               << ", want " << oracle[r][c];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(MatrixContentsTest, RandomGrowShrinkSequenceMatchesOracle) {
  // Grows and shrinks each dimension independently so every relayout
  // path runs: in place, rows reallocated with the pitch kept, pitch
  // widened with the row capacity kept, and both at once. Fill values
  // differ per call, so a newly exposed cell holding a stale value
  // (from an earlier, larger shape) or the wrong fill is caught.
  constexpr int kMaxDim = 96;
  constexpr int kSteps = 3000;
  Rng rng(2024);
  Matrix m;
  std::vector<std::vector<double>> oracle;
  int cols = 0;
  auto next_size = [&](int current) -> int {
    switch (rng.UniformInt(0, 2)) {
      case 0:  // grow
        return std::min<int>(kMaxDim, current + rng.UniformInt(1, 24));
      case 1:  // shrink
        return static_cast<int>(rng.UniformInt(0, current));
      default:  // keep
        return current;
    }
  };
  int row_only_reallocs = 0;
  int col_only_reallocs = 0;
  std::ptrdiff_t prev_pitch = 0;
  size_t prev_size = 0;
  for (int step = 0; step < kSteps; ++step) {
    if (rng.Bernoulli(0.4)) {
      std::vector<double> row(cols);
      for (double& v : row) v = rng.Gaussian();
      m.AppendRow(row.data());
      oracle.push_back(row);
    } else {
      int rows = next_size(static_cast<int>(oracle.size()));
      int new_cols = next_size(cols);
      double fill = rng.Uniform(-1.0, 1.0);
      m.ResizePreserve(rows, new_cols, fill);
      oracle.resize(rows, std::vector<double>(new_cols, fill));
      for (auto& row : oracle) row.resize(new_cols, fill);
      cols = new_cols;
    }
    // Overwrite one visible cell so capacity left behind by a later
    // shrink holds values that differ from any fill.
    if (!oracle.empty() && cols > 0) {
      int r = static_cast<int>(rng.UniformInt(0, oracle.size() - 1));
      int c = static_cast<int>(rng.UniformInt(0, cols - 1));
      m.at(r, c) = oracle[r][c] = rng.Gaussian();
    }
    ASSERT_TRUE(MatchesOracle(m, oracle, cols)) << "after step " << step;
    if (m.rows() >= 2) {
      std::ptrdiff_t pitch = m.Row(1) - m.Row(0);
      size_t size = m.data().size();
      if (prev_pitch > 0 && pitch > 0) {
        if (pitch == prev_pitch && size > prev_size) ++row_only_reallocs;
        if (pitch > prev_pitch && size / pitch == prev_size / prev_pitch) {
          ++col_only_reallocs;
        }
      }
      prev_pitch = pitch;
      prev_size = size;
    }
  }
  EXPECT_GT(row_only_reallocs, 0);
  EXPECT_GT(col_only_reallocs, 0);
}

TEST(FlatCholeskyTest, FactorsKnownMatrix) {
  // A = [[4,2],[2,3]] => L = [[2,0],[1,sqrt(2)]]
  Matrix a(2, 2);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 3.0;
  ASSERT_TRUE(CholeskyFactorInPlace(&a).ok());
  EXPECT_NEAR(a.at(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(a.at(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(a.at(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_EQ(a.at(0, 1), 0.0);
}

TEST(FlatCholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 1.0;
  EXPECT_FALSE(CholeskyFactorInPlace(&a).ok());
}

// Builds a random SPD matrix A = B B^T + n I.
Matrix RandomSpd(int n, Rng* rng) {
  Matrix b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b.at(i, j) = rng->Gaussian();
  }
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) acc += b.at(i, k) * b.at(j, k);
      a.at(i, j) = acc;
    }
    a.at(i, i) += n;
  }
  return a;
}

TEST(FlatCholeskyTest, ExtendMatchesFullFactorizationBitForBit) {
  Rng rng(11);
  int n = 12;
  Matrix a = RandomSpd(n, &rng);

  // Full factorization of the whole matrix.
  Matrix full = a;
  ASSERT_TRUE(CholeskyFactorInPlace(&full).ok());

  // Factor the leading 6x6 block, then extend row by row.
  int start = 6;
  Matrix inc(start, start);
  for (int i = 0; i < start; ++i) {
    for (int j = 0; j < start; ++j) inc.at(i, j) = a.at(i, j);
  }
  ASSERT_TRUE(CholeskyFactorInPlace(&inc).ok());
  std::vector<double> row;
  for (int r = start; r < n; ++r) {
    row.assign(a.Row(r), a.Row(r) + r + 1);
    ASSERT_TRUE(CholeskyExtend(&inc, row.data()).ok());
  }

  ASSERT_EQ(inc.rows(), n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      // Incremental extension is bit-for-bit a suffix of the full
      // factorization — exact equality, not approximate.
      EXPECT_EQ(inc.at(i, j), full.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(FlatCholeskyTest, ExtendRejectsIndefiniteExtension) {
  Matrix l(1, 1);
  l.at(0, 0) = 1.0;  // A = [1]
  // Extended matrix [[1, 2], [2, 1]] is indefinite.
  double row[] = {2.0, 1.0};
  EXPECT_FALSE(CholeskyExtend(&l, row).ok());
  EXPECT_EQ(l.rows(), 1);  // untouched on failure
}

TEST(FlatSolveTest, RoundTripSolvesSystem) {
  Rng rng(7);
  int n = 9;
  Matrix a = RandomSpd(n, &rng);
  Matrix l = a;
  ASSERT_TRUE(CholeskyFactorInPlace(&l).ok());
  std::vector<double> b(n);
  for (int i = 0; i < n; ++i) b[i] = rng.Gaussian();
  std::vector<double> z(n, 0.0), x(n, 0.0);
  TriangularSolveLower(l, b.data(), z.data());
  TriangularSolveLowerTransposed(l, z.data(), x.data());
  // Check A x == b.
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < n; ++j) acc += a.at(i, j) * x[j];
    EXPECT_NEAR(acc, b[i], 1e-9);
  }
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every column of the tiled multi-solve against the one-column solve,
// over row counts with n mod 4 = 0..3 (the last group of rows is
// narrower) and every column count from 1 to 25 (one or two 12-wide
// tiles followed by each 8-, 4- and 1-wide tail) plus the 128-column
// candidate block and a 400-column FITC panel.
TEST(FlatSolveTest, MultiRhsMatchesSingleSolvesBitForBit) {
  std::vector<int> row_counts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 31};
  std::vector<int> col_counts;
  for (int m = 1; m <= 25; ++m) col_counts.push_back(m);
  col_counts.push_back(128);
  col_counts.push_back(400);
  Rng rng(3);
  for (int n : row_counts) {
    Matrix l = RandomSpd(n, &rng);
    ASSERT_TRUE(CholeskyFactorInPlace(&l).ok());
    for (int m : col_counts) {
      Matrix rhs(n, m);
      for (int i = 0; i < n; ++i) {
        for (int c = 0; c < m; ++c) rhs.at(i, c) = rng.Gaussian();
      }
      Matrix multi = rhs;
      TriangularSolveLowerMulti(l, &multi);
      std::vector<double> column(n), solved(n);
      for (int c = 0; c < m; ++c) {
        for (int i = 0; i < n; ++i) column[i] = rhs.at(i, c);
        TriangularSolveLower(l, column.data(), solved.data());
        for (int i = 0; i < n; ++i) {
          ASSERT_TRUE(SameBits(multi.at(i, c), solved[i]))
              << "n " << n << " m " << m << " col " << c << " row " << i;
        }
      }
    }
  }
}

// The tiled weighted Gram kernel against the naive triple loop, at
// column counts around the 4-wide tiles and row counts from one to a
// FITC-sized panel, serial and on the pool.
TEST(WeightedGramTest, MatchesNaiveTripleLoopBitForBit) {
  Rng rng(5);
  for (int n : {1, 7, 400}) {
    for (int m : {1, 3, 4, 5, 20, 63, 64, 65}) {
      Matrix bt(n, m);
      std::vector<double> w(n);
      for (int i = 0; i < n; ++i) {
        for (int u = 0; u < m; ++u) bt.at(i, u) = rng.Gaussian();
        w[i] = 0.1 + rng.Uniform();
      }
      for (int threads : {1, 0}) {
        constexpr double kUntouched = 7.5;
        Matrix out(m, m, kUntouched);
        WeightedGramLower(bt, w.data(), &out, threads);
        for (int u = 0; u < m; ++u) {
          for (int v = 0; v < m; ++v) {
            if (v > u) {
              ASSERT_EQ(out.at(u, v), kUntouched) << "upper (" << u << ","
                                                  << v << ")";
              continue;
            }
            double acc = 0.0;
            for (int i = 0; i < n; ++i) acc += bt.at(i, u) * bt.at(i, v) * w[i];
            ASSERT_TRUE(SameBits(out.at(u, v), acc))
                << "n " << n << " m " << m << " threads " << threads << " ("
                << u << "," << v << ")";
          }
        }
      }
    }
  }
}

// The lane-wise column reductions against plain per-column loops, with
// column counts on and off the 4-wide lanes.
TEST(MatrixTest, ColumnReductionsMatchPerColumnLoopsBitForBit) {
  Rng rng(9);
  for (int rows : {1, 5, 33}) {
    for (int cols = 1; cols <= 13; ++cols) {
      Matrix a(rows, cols);
      std::vector<double> x(rows);
      for (int r = 0; r < rows; ++r) {
        x[r] = rng.Gaussian();
        for (int c = 0; c < cols; ++c) a.at(r, c) = rng.Gaussian();
      }
      std::vector<double> dot = a.ApplyTransposed(x);
      std::vector<double> squares = a.ColumnSumsOfSquares();
      ASSERT_EQ(dot.size(), static_cast<size_t>(cols));
      ASSERT_EQ(squares.size(), static_cast<size_t>(cols));
      for (int c = 0; c < cols; ++c) {
        double dot_c = 0.0, squares_c = 0.0;
        for (int r = 0; r < rows; ++r) {
          dot_c += a.at(r, c) * x[r];
          squares_c += a.at(r, c) * a.at(r, c);
        }
        ASSERT_TRUE(SameBits(dot[c], dot_c)) << rows << "x" << cols << " " << c;
        ASSERT_TRUE(SameBits(squares[c], squares_c))
            << rows << "x" << cols << " " << c;
      }
    }
  }
}

}  // namespace
}  // namespace llamatune
