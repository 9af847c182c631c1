// Independent references for the checked outputs. Nothing here calls into
// simdcv beyond Mat storage: each result is recomputed from its definition
// (round-half-even with saturation, integer Reflect101 stencils, a
// double-precision Gaussian) so a kernel and its check never share code.
#pragma once

#include <cstdint>

#include "simdcv.hpp"

namespace perfbench::ref {

using simdcv::Mat;

/// convertTo F32 -> S16: clamp(nearbyint(x)) to [-32768, 32767], NaN -> 0.
Mat convertF32S16(const Mat& src);

/// 7x7-style separable Gaussian (ksize, sigma) on U8 with Reflect101 border,
/// computed in double and rounded to the nearest U8.
Mat gaussianU8(const Mat& src, int ksize, double sigma);

/// 3x3 Sobel x derivative to S16, Reflect101 border, in integers.
Mat sobelDxS16(const Mat& src);

/// Binary edge map: (|dx| + |dy|) of the 3x3 Sobel pair saturated to 255,
/// then 255 where it exceeds `thresh`, else 0.
Mat edgeU8(const Mat& src, int thresh);

/// Binary U8 threshold: 255 where src > thresh, else 0.
Mat thresholdU8(const Mat& src, int thresh);

struct Diff {
  std::uint64_t beyond = 0;  ///< elements outside the tolerance
  std::uint64_t off_by_one = 0;  ///< U8 elements differing by exactly 1
};

/// Element-wise comparison of two Mats of equal geometry; `lsb` is the
/// allowed absolute difference (0 = bit-identical). Shape or type
/// mismatches count every element as beyond.
Diff compare(const Mat& got, const Mat& want, int lsb = 0);

}  // namespace perfbench::ref
