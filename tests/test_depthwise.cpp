// Exactness of every float depthwise_planes instance (src/tensor/depthwise.h)
// against a naive loop: memcmp, not a tolerance. Each instance is a separate
// test case; one this build or CPU cannot run skips with its name, so a host
// without AVX-512 says so instead of passing silently.
//
// The naive loop adds one rounded product per in-bounds tap after the bias,
// in ascending (ki, kj) — the contract every instance keeps. This file is
// built with -ffp-contract=off -fno-tree-vectorize (tests/CMakeLists.txt) so
// that on a -march=native build the oracle itself is neither fused into
// FMAs nor vectorized into a +0.0f-padded sum.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/depthwise.h"
#include "tensor/rng.h"

namespace nb {
namespace {

struct Shape {
  int64_t h, w, k, s, pad;
  int64_t oh() const { return (h + 2 * pad - k) / s + 1; }
  int64_t ow() const { return (w + 2 * pad - k) / s + 1; }
};

// The platform's default NaN, the one inf - inf produces. Every NaN a sum
// can create then carries the same bits, so NaN inputs test propagation
// without testing which operand's payload an add keeps when both are NaN
// (a compiler's operand-order choice, not part of the contract).
float default_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

// Sentinel outside every buffer: a read of it poisons an output with a
// payload no computation produces, a write over it is caught directly.
float guard_value() {
  const uint32_t bits = 0x7fa5a5a5u;  // a NaN with a distinctive payload
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

constexpr int64_t kGuard = 37;

// A buffer of `n` floats between kGuard sentinels on both sides.
struct Guarded {
  explicit Guarded(int64_t n)
      : n(n), buf(static_cast<size_t>(n + 2 * kGuard), guard_value()) {}
  float* data() { return buf.data() + kGuard; }
  const float* data() const { return buf.data() + kGuard; }
  bool guards_intact() const {
    const float gv = guard_value();
    for (int64_t g = 0; g < kGuard; ++g) {
      if (std::memcmp(&buf[static_cast<size_t>(g)], &gv, 4) != 0 ||
          std::memcmp(&buf[static_cast<size_t>(kGuard + n + g)], &gv, 4) !=
              0) {
        return false;
      }
    }
    return true;
  }
  int64_t n;
  std::vector<float> buf;
};

struct Case {
  Shape shape;
  int64_t planes = 1;  // planes in the buffer
  int64_t p0 = 0, p1 = 1;
  DwPlaneMap map;
  int bias_mode = 0;  // 0: none, 1: random, 2: -0.0
  bool specials = false;
};

// Planes [p0, p1): bias, then every in-bounds tap in ascending (ki, kj).
std::vector<float> naive(const Case& c, const std::vector<float>& img,
                         const std::vector<float>& ker,
                         const std::vector<float>& bias,
                         const std::vector<float>& out_init) {
  const Shape& p = c.shape;
  std::vector<float> out = out_init;
  for (int64_t pl = c.p0; pl < c.p1; ++pl) {
    const int64_t ch = c.map.channel(pl);
    for (int64_t oy = 0; oy < p.oh(); ++oy) {
      for (int64_t ox = 0; ox < p.ow(); ++ox) {
        float acc = bias.empty() ? 0.0f : bias[static_cast<size_t>(ch)];
        for (int64_t ki = 0; ki < p.k; ++ki) {
          for (int64_t kj = 0; kj < p.k; ++kj) {
            const int64_t iy = oy * p.s + ki - p.pad;
            const int64_t ix = ox * p.s + kj - p.pad;
            if (iy < 0 || iy >= p.h || ix < 0 || ix >= p.w) continue;
            const float prod =
                ker[static_cast<size_t>(ch * p.k * p.k + ki * p.k + kj)] *
                img[static_cast<size_t>((pl * p.h + iy) * p.w + ix)];
            acc = acc + prod;
          }
        }
        out[static_cast<size_t>((pl * p.oh() + oy) * p.ow() + ox)] = acc;
      }
    }
  }
  return out;
}

int find_instance(const std::string& name) {
  for (int i = 0; i < depthwise_instance_count(); ++i) {
    if (name == depthwise_instance_name(i)) return i;
  }
  return -1;
}

std::string describe(int i, const Case& c) {
  const Shape& p = c.shape;
  return std::string(depthwise_instance_name(i)) + " h=" +
         std::to_string(p.h) + " w=" + std::to_string(p.w) +
         " k=" + std::to_string(p.k) + " s=" + std::to_string(p.s) +
         " pad=" + std::to_string(p.pad) + " planes=[" +
         std::to_string(c.p0) + "," + std::to_string(c.p1) + ") of " +
         std::to_string(c.planes) + " map=(" +
         std::to_string(c.map.per_channel) + "," +
         std::to_string(c.map.channels) + ") bias=" +
         std::to_string(c.bias_mode) + (c.specials ? " specials" : "");
}

// Runs instance `i` on the case and memcmps the whole output buffer —
// planes outside [p0, p1) included, which must keep their prior contents —
// against the naive loop; no buffer's guard words may change.
void expect_exact(int i, const Case& c, Rng& rng) {
  const Shape& p = c.shape;
  const int64_t in_hw = p.h * p.w, out_hw = p.oh() * p.ow();
  const int64_t kk = p.k * p.k;
  Guarded img(c.planes * in_hw), ker(c.map.channels * kk),
      bias(c.bias_mode == 0 ? 0 : c.map.channels), out(c.planes * out_hw);
  const float nan = default_nan();
  const float inf = std::numeric_limits<float>::infinity();
  for (int64_t t = 0; t < img.n; ++t) {
    float v = rng.uniform(-2.0f, 2.0f);
    if (c.specials) {
      const int64_t r = rng.randint(40);
      if (r == 0) v = inf;
      if (r == 1) v = -inf;
      if (r == 2) v = nan;
      if (r == 3) v = -0.0f;
    }
    img.data()[t] = v;
  }
  for (int64_t t = 0; t < ker.n; ++t) {
    ker.data()[t] = rng.uniform(-1.0f, 1.0f);
    if (c.specials && rng.randint(20) == 0) ker.data()[t] = 0.0f;
  }
  for (int64_t t = 0; t < bias.n; ++t) {
    bias.data()[t] = c.bias_mode == 2 ? -0.0f : rng.uniform(-0.5f, 0.5f);
  }
  for (int64_t t = 0; t < out.n; ++t) out.data()[t] = rng.uniform(5.0f, 6.0f);

  const auto vec = [](const Guarded& g) {
    return std::vector<float>(g.data(), g.data() + g.n);
  };
  const std::vector<float> want =
      naive(c, vec(img), vec(ker), vec(bias), vec(out));
  depthwise_run_instance(i, img.data(), ker.data(),
                         c.bias_mode == 0 ? nullptr : bias.data(), out.data(),
                         c.p0, c.p1, c.map, p.h, p.w, p.oh(), p.ow(), p.k, p.s,
                         p.pad);
  const std::string where = describe(i, c);
  EXPECT_EQ(std::memcmp(out.data(), want.data(),
                        static_cast<size_t>(out.n) * sizeof(float)),
            0)
      << where;
  for (const Guarded* g : {&img, &ker, &bias, &out}) {
    ASSERT_TRUE(g->guards_intact()) << where;
  }
}

class DepthwiseInstance : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    index_ = find_instance(GetParam());
    if (index_ < 0) {
      GTEST_SKIP() << GetParam() << " is not runnable on this build/CPU";
    }
  }
  int index_ = -1;
};

TEST_P(DepthwiseInstance, MatchesNaiveOnServingShapes) {
  // Every depthwise layer shape of the synthetic MobileNetV2-w0.35 r32
  // export (the serving benchmark's model) at batch 8, in the
  // serving runtime's batch-interleaved layout (ch = pl / 8), and the same
  // planes in NCHW order (ch = pl % c).
  struct Layer {
    int64_t c;
    Shape shape;
  };
  const Layer layers[] = {
      {8, {16, 16, 3, 1, 1}},  {48, {16, 16, 3, 2, 1}},
      {48, {8, 8, 3, 1, 1}},   {48, {8, 8, 3, 2, 1}},
      {48, {4, 4, 3, 1, 1}},   {48, {4, 4, 3, 2, 1}},
      {144, {2, 2, 3, 1, 1}},  {192, {2, 2, 3, 1, 1}},
      {192, {2, 2, 3, 2, 1}},  {336, {1, 1, 3, 1, 1}}};
  Rng rng(32, 8);
  for (const Layer& l : layers) {
    for (const bool interleaved : {true, false}) {
      Case c;
      c.shape = l.shape;
      c.planes = 8 * l.c;
      c.p0 = 0;
      c.p1 = c.planes;
      c.map = interleaved ? DwPlaneMap{8, l.c} : DwPlaneMap{1, l.c};
      c.bias_mode = interleaved ? 0 : 1;
      expect_exact(index_, c, rng);
      if (HasFatalFailure()) return;
    }
  }
}

TEST_P(DepthwiseInstance, MatchesNaiveOnRandomizedPlanes) {
  // k in {1,3,5,7}, s in {1,2,3}, pad 0..k-1, non-square planes 1x1..50x50
  // including kernels wider than the plane; 1..40 planes per call (tails
  // below and between multiples of 16), sub-ranges of a larger buffer, both
  // channel maps, no / random / -0.0 bias, and +-inf / NaN / -0 inputs.
  Rng rng(4711, 14);
  const int64_t kernels[] = {1, 3, 5, 7};
  int run = 0;
  while (run < 300) {
    Case c;
    Shape& p = c.shape;
    p.k = kernels[rng.randint(4)];
    p.s = 1 + rng.randint(3);
    p.pad = rng.randint(p.k);
    // Most planes tiny (<= 8) so wide kernels and all-border planes show.
    const int64_t span = rng.randint(4) == 0 ? 50 : 8;
    p.h = 1 + rng.randint(span);
    p.w = 1 + rng.randint(span);
    if (p.h + 2 * p.pad < p.k || p.w + 2 * p.pad < p.k) continue;
    const int64_t count = 1 + rng.randint(40);
    const int64_t lead = rng.randint(3) == 0 ? rng.randint(5) : 0;
    const int64_t trail = rng.randint(3) == 0 ? rng.randint(5) : 0;
    c.planes = lead + count + trail;
    c.p0 = lead;
    c.p1 = lead + count;
    if (rng.bernoulli(0.5f)) {
      const int64_t batch = 1 + rng.randint(8);
      c.map = DwPlaneMap{batch, (c.planes + batch - 1) / batch};
    } else {
      const int64_t channels = 1 + rng.randint(12);
      c.map = DwPlaneMap{1, channels};
    }
    c.bias_mode = static_cast<int>(rng.randint(3));
    c.specials = run % 4 == 3;
    expect_exact(index_, c, rng);
    if (HasFatalFailure()) return;
    ++run;
  }
}

TEST_P(DepthwiseInstance, SignedZeroBiasSurvivesAllBorderOutputs) {
  // A 1x1 plane under a k3 pad-1 kernel: eight taps are skipped and the
  // output is -0.0 + ker * x, which stays -0.0 whenever the product is
  // -0.0 (-0 inputs are among the specials).
  Rng rng(5, 14);
  for (const int64_t planes : {1, 15, 16, 17, 33}) {
    Case c;
    c.shape = {1, 1, 3, 1, 1};
    c.planes = planes;
    c.p1 = planes;
    c.map = DwPlaneMap{1, planes};
    c.bias_mode = 2;
    c.specials = true;
    expect_exact(index_, c, rng);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllInstances, DepthwiseInstance,
    ::testing::Values("dw-f32-generic", "dw-f32-avx512"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DepthwiseDispatch, InstancesAreNamedGenericFirstDispatchedLast) {
  const int n = depthwise_instance_count();
  ASSERT_GE(n, 1);
  EXPECT_STREQ(depthwise_instance_name(0), "dw-f32-generic");
  EXPECT_STREQ(depthwise_instance_name(n - 1), depthwise_kernel_name());
}

TEST(DepthwiseDispatch, Avx512fHostDispatchesTheAvx512Instance) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (!__builtin_cpu_supports("avx512f")) {
    GTEST_SKIP() << "CPU lacks avx512f; dispatched "
                 << depthwise_kernel_name();
  }
  EXPECT_STREQ(depthwise_kernel_name(), "dw-f32-avx512");
#else
  GTEST_SKIP() << "not an x86-64 GCC/Clang build; dispatched "
               << depthwise_kernel_name();
#endif
}

TEST(DepthwiseDispatch, SinglePlaneEntryMatchesPlanesEntry) {
  // depthwise_plane stays the single-plane oracle: one plane through it and
  // through the dispatched depthwise_planes agree bit for bit.
  const Shape p{13, 9, 5, 2, 2};
  Rng rng(77, 14);
  std::vector<float> img(static_cast<size_t>(p.h * p.w));
  std::vector<float> ker(static_cast<size_t>(p.k * p.k));
  for (float& v : img) v = rng.uniform(-1.0f, 1.0f);
  for (float& v : ker) v = rng.uniform(-1.0f, 1.0f);
  const float bias = 0.25f;
  std::vector<float> a(static_cast<size_t>(p.oh() * p.ow()));
  std::vector<float> b(a.size());
  depthwise_plane(img.data(), ker.data(), a.data(), p.h, p.w, p.oh(), p.ow(),
                  p.k, p.s, p.pad, bias);
  depthwise_planes(img.data(), ker.data(), &bias, b.data(), 0, 1,
                   DwPlaneMap{1, 1}, p.h, p.w, p.oh(), p.ow(), p.k, p.s,
                   p.pad);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

}  // namespace
}  // namespace nb
