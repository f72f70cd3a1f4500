#pragma once

namespace llamatune {

/// Four doubles side by side (GCC/Clang vector extension; no
/// intrinsics, so it builds on every target and lowers to one AVX
/// register where available). Each lane is an independent IEEE double:
/// an element-wise `a - s * b` (a scalar operand is broadcast) rounds
/// exactly as the scalar expression does, since contraction is off. So
/// lanes only ever compute independent outputs side by side and never
/// reassociate a sum.
typedef double Lanes __attribute__((vector_size(4 * sizeof(double))));

/// Lanes as a view of four consecutive doubles of a `double` array: no
/// alignment beyond a double's, and allowed to alias the array.
typedef double LanesView __attribute__((vector_size(4 * sizeof(double)),
                                        aligned(sizeof(double)), may_alias));

/// The four doubles p[0..4) as lanes, for loads (`Lanes v = *AsLanes(p)`)
/// and stores (`*AsLanes(p) = v`). Pointers, not values, cross the call,
/// so no vector is passed by value on targets without AVX.
inline const LanesView* AsLanes(const double* p) {
  return reinterpret_cast<const LanesView*>(p);
}
inline LanesView* AsLanes(double* p) { return reinterpret_cast<LanesView*>(p); }

}  // namespace llamatune
