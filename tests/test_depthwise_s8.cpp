// Exactness of every int8 depthwise plane instance (src/tensor/depthwise.h)
// against a naive int32 loop: memcmp, not a tolerance. Each instance is a
// separate test case; one this build or CPU cannot run skips with its name,
// so a host without AVX-512 says so instead of passing silently.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "tensor/depthwise.h"
#include "tensor/rng.h"

namespace nb {
namespace {

struct Plane {
  int64_t h, w, k, s, pad;
  int64_t oh() const { return (h + 2 * pad - k) / s + 1; }
  int64_t ow() const { return (w + 2 * pad - k) / s + 1; }
};

// out[oy, ox] = sum over in-bounds taps of ker * (img - 128).
std::vector<int32_t> naive(const Plane& p, const std::vector<uint8_t>& img,
                           const std::vector<int8_t>& ker) {
  std::vector<int32_t> out(static_cast<size_t>(p.oh() * p.ow()));
  for (int64_t oy = 0; oy < p.oh(); ++oy) {
    for (int64_t ox = 0; ox < p.ow(); ++ox) {
      int32_t acc = 0;
      for (int64_t ki = 0; ki < p.k; ++ki) {
        for (int64_t kj = 0; kj < p.k; ++kj) {
          const int64_t iy = oy * p.s + ki - p.pad;
          const int64_t ix = ox * p.s + kj - p.pad;
          if (iy < 0 || iy >= p.h || ix < 0 || ix >= p.w) continue;
          acc += ker[static_cast<size_t>(ki * p.k + kj)] *
                 (img[static_cast<size_t>(iy * p.w + ix)] - 128);
        }
      }
      out[static_cast<size_t>(oy * p.ow() + ox)] = acc;
    }
  }
  return out;
}

int find_instance(const std::string& name) {
  for (int i = 0; i < depthwise_s8_instance_count(); ++i) {
    if (name == depthwise_s8_instance_name(i)) return i;
  }
  return -1;
}

// Fill modes: uniform, or biased to the extremes (bytes 0/255, weights
// -128/127) where a saturating or narrow accumulator would show.
void fill(Rng& rng, bool extremes, std::vector<uint8_t>& img,
          std::vector<int8_t>& ker) {
  for (uint8_t& b : img) {
    b = extremes ? (rng.bernoulli(0.5f) ? 255 : 0)
                 : static_cast<uint8_t>(rng.randint(256));
  }
  for (int8_t& v : ker) {
    v = extremes ? (rng.bernoulli(0.5f) ? 127 : -128)
                 : static_cast<int8_t>(rng.randint(256) - 128);
  }
}

// Runs instance `i` on the plane and compares it with the naive loop. The
// output sits between guard words: no instance may store outside the plane.
void expect_exact(int i, const Plane& p, const std::vector<uint8_t>& img,
                  const std::vector<int8_t>& ker) {
  constexpr int64_t kGuard = 32;
  constexpr int32_t kCanary = 0x5a5a5a5a;
  const int64_t n = p.oh() * p.ow();
  std::vector<int32_t> buf(static_cast<size_t>(n + 2 * kGuard), kCanary);
  depthwise_s8_run_instance(i, img.data(), ker.data(), buf.data() + kGuard,
                            p.h, p.w, p.oh(), p.ow(), p.k, p.s, p.pad);
  const std::vector<int32_t> want = naive(p, img, ker);
  const std::string where = std::string(depthwise_s8_instance_name(i)) +
                            " h=" + std::to_string(p.h) +
                            " w=" + std::to_string(p.w) +
                            " k=" + std::to_string(p.k) +
                            " s=" + std::to_string(p.s) +
                            " pad=" + std::to_string(p.pad);
  EXPECT_EQ(std::memcmp(buf.data() + kGuard, want.data(),
                        static_cast<size_t>(n) * sizeof(int32_t)),
            0)
      << where;
  for (int64_t g = 0; g < kGuard; ++g) {
    ASSERT_EQ(buf[static_cast<size_t>(g)], kCanary) << where << " (front)";
    ASSERT_EQ(buf[static_cast<size_t>(kGuard + n + g)], kCanary)
        << where << " (back)";
  }
}

class DepthwiseS8Instance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    index_ = find_instance(GetParam());
    if (index_ < 0) {
      GTEST_SKIP() << GetParam() << " is not runnable on this build/CPU";
    }
  }
  int index_ = -1;
};

TEST_P(DepthwiseS8Instance, MatchesNaiveOnMcunetR96Planes) {
  // Every depthwise plane of MCUNet r96 (synthetic flat export), uniform
  // and extreme values.
  const Plane planes[] = {{48, 48, 3, 1, 1}, {48, 48, 5, 2, 2},
                          {24, 24, 3, 2, 1}, {12, 12, 3, 1, 1},
                          {12, 12, 7, 2, 3}, {6, 6, 7, 1, 3},
                          {6, 6, 5, 1, 2},   {6, 6, 3, 2, 1}};
  Rng rng(2026, 13);
  for (const Plane& p : planes) {
    for (bool extremes : {false, true}) {
      std::vector<uint8_t> img(static_cast<size_t>(p.h * p.w));
      std::vector<int8_t> ker(static_cast<size_t>(p.k * p.k));
      fill(rng, extremes, img, ker);
      expect_exact(index_, p, img, ker);
    }
  }
}

TEST_P(DepthwiseS8Instance, MatchesNaiveOnRandomizedPlanes) {
  // k in {1,3,5,7}, s in {1,2,3}, pad 0..k-1, non-square planes 1x1..50x50,
  // including kernels wider than the plane (only h + 2*pad >= k is needed).
  Rng rng(4711, 13);
  const int64_t kernels[] = {1, 3, 5, 7};
  int run = 0;
  while (run < 400) {
    Plane p;
    p.k = kernels[rng.randint(4)];
    p.s = 1 + rng.randint(3);
    p.pad = rng.randint(p.k);
    // Half the planes tiny (<= 8) so wide kernels and packed rows show up.
    const int64_t span = rng.bernoulli(0.5f) ? 8 : 50;
    p.h = 1 + rng.randint(span);
    p.w = 1 + rng.randint(span);
    if (p.h + 2 * p.pad < p.k || p.w + 2 * p.pad < p.k) continue;
    std::vector<uint8_t> img(static_cast<size_t>(p.h * p.w));
    std::vector<int8_t> ker(static_cast<size_t>(p.k * p.k));
    fill(rng, run % 4 == 3, img, ker);
    expect_exact(index_, p, img, ker);
    if (HasFatalFailure()) return;
    ++run;
  }
}

TEST_P(DepthwiseS8Instance, MatchesNaiveOnWideKernelsAndStrides) {
  // Past the model shapes: kernels of more than 64 taps and more than 16
  // tap runs (k >= 9), even kernels, and strides up to 5.
  Rng rng(9, 13);
  for (const int64_t k : {2, 8, 9, 11, 15}) {
    for (const int64_t s : {1, 2, 4, 5}) {
      const Plane p{k + 9, k + 4, k, s, k / 2};
      std::vector<uint8_t> img(static_cast<size_t>(p.h * p.w));
      std::vector<int8_t> ker(static_cast<size_t>(p.k * p.k));
      fill(rng, s == 4, img, ker);
      expect_exact(index_, p, img, ker);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllInstances, DepthwiseS8Instance,
    ::testing::Values("dw-s8-generic", "dw-s8-avx2", "dw-s8-avx512"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DepthwiseS8Dispatch, InstancesAreNamedGenericFirstDispatchedLast) {
  const int n = depthwise_s8_instance_count();
  ASSERT_GE(n, 1);
  EXPECT_STREQ(depthwise_s8_instance_name(0), "dw-s8-generic");
  EXPECT_STREQ(depthwise_s8_instance_name(n - 1), depthwise_s8_kernel_name());
}

TEST(DepthwiseS8Dispatch, AvxVnniHostDispatchesTheAvx512Instance) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (!(__builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vbmi") &&
        __builtin_cpu_supports("avx512vnni") &&
        __builtin_cpu_supports("avx512vl"))) {
    GTEST_SKIP() << "CPU lacks avx512bw/vbmi/vnni/vl; dispatched "
                 << depthwise_s8_kernel_name();
  }
  EXPECT_STREQ(depthwise_s8_kernel_name(), "dw-s8-avx512");
#else
  GTEST_SKIP() << "not an x86-64 GCC/Clang build; dispatched "
               << depthwise_s8_kernel_name();
#endif
}

}  // namespace
}  // namespace nb
