#include "reference.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace perfbench::ref {

using simdcv::Depth;

namespace {

int reflect101(int i, int n) {
  if (n == 1) return 0;
  while (i < 0 || i >= n) i = i < 0 ? -i : 2 * n - 2 - i;
  return i;
}

// Sobel 3x3 gradients of row y: gx and gy as exact integers.
void sobelRow(const Mat& src, int y, std::vector<int>& gx, std::vector<int>& gy) {
  const int w = src.cols(), h = src.rows();
  const std::uint8_t* r0 = src.ptr<std::uint8_t>(reflect101(y - 1, h));
  const std::uint8_t* r1 = src.ptr<std::uint8_t>(y);
  const std::uint8_t* r2 = src.ptr<std::uint8_t>(reflect101(y + 1, h));
  for (int x = 0; x < w; ++x) {
    const int xl = reflect101(x - 1, w), xr = reflect101(x + 1, w);
    gx[static_cast<std::size_t>(x)] = (r0[xr] - r0[xl]) + 2 * (r1[xr] - r1[xl]) + (r2[xr] - r2[xl]);
    gy[static_cast<std::size_t>(x)] = (r2[xl] + 2 * r2[x] + r2[xr]) - (r0[xl] + 2 * r0[x] + r0[xr]);
  }
}

}  // namespace

Mat convertF32S16(const Mat& src) {
  Mat dst(src.rows(), src.cols(), simdcv::S16C1);
  for (int y = 0; y < src.rows(); ++y) {
    const float* s = src.ptr<float>(y);
    std::int16_t* d = dst.ptr<std::int16_t>(y);
    for (int x = 0; x < src.cols(); ++x) {
      const double v = std::isnan(s[x]) ? 0.0 : std::nearbyint(static_cast<double>(s[x]));
      d[x] = static_cast<std::int16_t>(v < -32768.0 ? -32768.0 : v > 32767.0 ? 32767.0 : v);
    }
  }
  return dst;
}

Mat gaussianU8(const Mat& src, int ksize, double sigma) {
  const int w = src.cols(), h = src.rows(), r = ksize / 2;
  std::vector<double> k(static_cast<std::size_t>(ksize));
  double sum = 0;
  for (int i = 0; i < ksize; ++i) {
    k[static_cast<std::size_t>(i)] = std::exp(-double((i - r) * (i - r)) / (2 * sigma * sigma));
    sum += k[static_cast<std::size_t>(i)];
  }
  for (double& v : k) v /= sum;

  std::vector<double> horiz(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
  std::vector<int> xi(static_cast<std::size_t>(w) * static_cast<std::size_t>(ksize));
  for (int x = 0; x < w; ++x)
    for (int j = 0; j < ksize; ++j)
      xi[static_cast<std::size_t>(x * ksize + j)] = reflect101(x + j - r, w);
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* s = src.ptr<std::uint8_t>(y);
    double* o = &horiz[static_cast<std::size_t>(y) * static_cast<std::size_t>(w)];
    for (int x = 0; x < w; ++x) {
      double acc = 0;
      for (int j = 0; j < ksize; ++j)
        acc += k[static_cast<std::size_t>(j)] * s[xi[static_cast<std::size_t>(x * ksize + j)]];
      o[x] = acc;
    }
  }
  Mat dst(h, w, simdcv::U8C1);
  std::vector<double> acc(static_cast<std::size_t>(w));
  for (int y = 0; y < h; ++y) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int j = 0; j < ksize; ++j) {
      const double* row = &horiz[static_cast<std::size_t>(reflect101(y + j - r, h)) * static_cast<std::size_t>(w)];
      const double kj = k[static_cast<std::size_t>(j)];
      for (int x = 0; x < w; ++x) acc[static_cast<std::size_t>(x)] += kj * row[x];
    }
    std::uint8_t* d = dst.ptr<std::uint8_t>(y);
    for (int x = 0; x < w; ++x) {
      const double v = std::floor(acc[static_cast<std::size_t>(x)] + 0.5);
      d[x] = static_cast<std::uint8_t>(v < 0 ? 0 : v > 255 ? 255 : v);
    }
  }
  return dst;
}

Mat sobelDxS16(const Mat& src) {
  Mat dst(src.rows(), src.cols(), simdcv::S16C1);
  std::vector<int> gx(static_cast<std::size_t>(src.cols())), gy(gx.size());
  for (int y = 0; y < src.rows(); ++y) {
    sobelRow(src, y, gx, gy);
    std::int16_t* d = dst.ptr<std::int16_t>(y);
    for (int x = 0; x < src.cols(); ++x) d[x] = static_cast<std::int16_t>(gx[static_cast<std::size_t>(x)]);
  }
  return dst;
}

Mat edgeU8(const Mat& src, int thresh) {
  Mat dst(src.rows(), src.cols(), simdcv::U8C1);
  std::vector<int> gx(static_cast<std::size_t>(src.cols())), gy(gx.size());
  for (int y = 0; y < src.rows(); ++y) {
    sobelRow(src, y, gx, gy);
    std::uint8_t* d = dst.ptr<std::uint8_t>(y);
    for (int x = 0; x < src.cols(); ++x) {
      int m = std::abs(gx[static_cast<std::size_t>(x)]) + std::abs(gy[static_cast<std::size_t>(x)]);
      if (m > 255) m = 255;
      d[x] = m > thresh ? 255 : 0;
    }
  }
  return dst;
}

Mat thresholdU8(const Mat& src, int thresh) {
  Mat dst(src.rows(), src.cols(), simdcv::U8C1);
  for (int y = 0; y < src.rows(); ++y) {
    const std::uint8_t* s = src.ptr<std::uint8_t>(y);
    std::uint8_t* d = dst.ptr<std::uint8_t>(y);
    for (int x = 0; x < src.cols(); ++x) d[x] = s[x] > thresh ? 255 : 0;
  }
  return dst;
}

Diff compare(const Mat& got, const Mat& want, int lsb) {
  Diff d;
  if (got.rows() != want.rows() || got.cols() != want.cols() ||
      got.type().depth != want.type().depth ||
      got.channels() != want.channels()) {
    d.beyond = want.total() ? want.total() : 1;
    return d;
  }
  const std::size_t rowBytes = static_cast<std::size_t>(got.cols()) * got.elemSize();
  for (int y = 0; y < got.rows(); ++y) {
    if (std::memcmp(got.ptr<std::uint8_t>(y), want.ptr<std::uint8_t>(y), rowBytes) == 0)
      continue;
    const std::size_t n = static_cast<std::size_t>(got.cols()) * static_cast<std::size_t>(got.channels());
    for (std::size_t x = 0; x < n; ++x) {
      long diff = 0;
      switch (got.depth()) {
        case Depth::U8: diff = long(got.ptr<std::uint8_t>(y)[x]) - want.ptr<std::uint8_t>(y)[x]; break;
        case Depth::S16: diff = long(got.ptr<std::int16_t>(y)[x]) - want.ptr<std::int16_t>(y)[x]; break;
        case Depth::F32: {
          const float a = got.ptr<float>(y)[x], b = want.ptr<float>(y)[x];
          diff = std::memcmp(&a, &b, sizeof a) == 0 ? 0 : 1 + lsb;
          break;
        }
        default: {
          const std::size_t es = got.elemSize1();
          diff = std::memcmp(got.ptr<std::uint8_t>(y) + x * es,
                             want.ptr<std::uint8_t>(y) + x * es, es) == 0 ? 0 : 1 + lsb;
        }
      }
      const long ad = std::labs(diff);
      if (ad > lsb) ++d.beyond;
      else if (ad == 1) ++d.off_by_one;
    }
  }
  return d;
}

}  // namespace perfbench::ref
