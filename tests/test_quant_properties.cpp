// Property-style sweeps for the quantization primitives: error bounds and
// orderings that must hold for any tensor, bit width, and channel layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "quant/quantize.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace nb::quant {
namespace {

class BitWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitWidthSweep, ErrorBoundedByHalfScale) {
  const int bits = GetParam();
  Rng rng(100 + bits, 1);
  Tensor t({512});
  fill_uniform(t, rng, -2.0f, 2.0f);
  const Tensor original = t.clone();
  const float scale = scale_from_absmax(2.0f, bits);
  fake_quant_(t, scale, bits);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(t.data()[i] - original.data()[i]),
              0.5f * scale + 1e-6f);
  }
}

TEST_P(BitWidthSweep, GridValuesAreMultiplesOfScale) {
  const int bits = GetParam();
  Rng rng(200 + bits, 1);
  Tensor t({256});
  fill_uniform(t, rng, -1.0f, 1.0f);
  const float scale = scale_from_absmax(1.0f, bits);
  fake_quant_(t, scale, bits);
  for (int64_t i = 0; i < t.numel(); ++i) {
    const float level = t.data()[i] / scale;
    EXPECT_NEAR(level, std::round(level), 1e-3f);
    EXPECT_LE(std::fabs(level),
              static_cast<float>(qmax_for_bits(bits)) + 0.5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, BitWidthSweep,
                         ::testing::Values(2, 4, 6, 8, 12, 16));

TEST(QuantProperties, PerChannelNeverWorseThanPerTensor) {
  // Give each output channel a very different magnitude: a single
  // per-tensor scale must waste grid range on the small channels.
  Rng rng(11, 1);
  Tensor w({6, 4, 3, 3});
  for (int64_t o = 0; o < 6; ++o) {
    const float magnitude = std::pow(4.0f, static_cast<float>(o) - 3.0f);
    for (int64_t i = 0; i < 36; ++i) {
      w.data()[o * 36 + i] = rng.uniform(-magnitude, magnitude);
    }
  }
  const Tensor original = w.clone();

  Tensor per_tensor = w.clone();
  fake_quant_(per_tensor, scale_from_absmax(per_tensor.abs_max(), 8), 8);

  Tensor per_channel = w.clone();
  const std::vector<float> absmax = per_channel_absmax(per_channel);
  std::vector<float> scales;
  for (float m : absmax) scales.push_back(scale_from_absmax(m, 8));
  fake_quant_per_channel_(per_channel, scales, 8);

  EXPECT_LE(quantization_mse(original, per_channel),
            quantization_mse(original, per_tensor));
  // And strictly better given the engineered magnitude spread.
  EXPECT_LT(quantization_mse(original, per_channel),
            0.5f * quantization_mse(original, per_tensor) + 1e-12f);
}

TEST(QuantProperties, ObserverPercentileMonotoneInFraction) {
  ActObserver obs;
  Rng rng(13, 1);
  Tensor t({8192});
  fill_normal(t, rng, 0.0f, 1.0f);
  obs.observe(t);
  float prev = 0.0f;
  for (float f : {0.5f, 0.9f, 0.99f, 0.999f, 1.0f}) {
    const float v = obs.percentile_absmax(f);
    EXPECT_GE(v, prev - 1e-6f);
    prev = v;
  }
}

TEST(QuantProperties, ObserverScaleInvariantToBatching) {
  // Observing one big batch or the same values split into chunks must give
  // identical min-max statistics (histograms may rebin, absmax never).
  Rng rng(17, 1);
  Tensor all({4096});
  fill_normal(all, rng, 0.0f, 2.0f);
  ActObserver one;
  one.observe(all);
  ActObserver chunked;
  for (int64_t c = 0; c < 4; ++c) {
    chunked.observe(all.narrow0(c * 1024, (c + 1) * 1024));
  }
  EXPECT_FLOAT_EQ(one.absmax(), chunked.absmax());
  EXPECT_EQ(one.samples(), chunked.samples());
}

TEST(QuantProperties, OffsetU8LevelsMatchPortableExpressionBitwise) {
  // quantize_levels_u8 dispatches to an AVX2 instance on x86 that MUST be
  // byte-identical to the portable expression
  //   clamp(round(x / scale), -q, q) + 128
  // including round's half-away-from-zero ties (the SIMD round instruction
  // ties to even and is repaired) and the clamp on saturating magnitudes.
  // The sweep stresses exact tie points (k + 0.5) * scale with pow2 scales
  // (where x/scale reproduces k + 0.5 exactly), denormal-scale products,
  // signed zeros, and buffer lengths around the 16-wide vector step.
  for (const int bits : {2, 4, 8}) {
    const int64_t q = (int64_t{1} << (bits - 1)) - 1;
    for (const float scale : {0.25f, 1.0f / 64.0f, 0.0375f, 3.1f}) {
      std::vector<float> src;
      for (int64_t k = -2 * q; k <= 2 * q; ++k) {
        src.push_back((static_cast<float>(k) + 0.5f) * scale);
        src.push_back(static_cast<float>(k) * scale);
      }
      src.push_back(0.0f);
      src.push_back(-0.0f);
      src.push_back(1e30f);
      src.push_back(-1e30f);
      Rng rng(1234 + bits, 7);
      for (int64_t i = 0; i < 97; ++i) {
        src.push_back((rng.uniform() * 2.0f - 1.0f) * 4.0f *
                      static_cast<float>(q) * scale);
      }
      // Lengths around the vector width: full 16-blocks plus every tail.
      for (size_t n = src.size() - 19; n <= src.size(); ++n) {
        std::vector<uint8_t> got(n, 0xAA);
        quantize_levels_u8(src.data(), got.data(), static_cast<int64_t>(n),
                           scale, bits);
        for (size_t i = 0; i < n; ++i) {
          const float level = std::round(src[i] / scale);
          const float clamped =
              std::clamp(level, -static_cast<float>(q), static_cast<float>(q));
          const auto want =
              static_cast<uint8_t>(static_cast<int32_t>(clamped) + 128);
          ASSERT_EQ(got[i], want)
              << "x=" << src[i] << " scale=" << scale << " bits=" << bits
              << " i=" << i << " n=" << n;
        }
      }
    }
  }
}

TEST(QuantProperties, FakeQuantBufferMatchesScalarExpressionBitwise) {
  // fake_quant_buffer dispatches to an AVX2 instance on x86 that must be
  // memcmp-equal to the portable expression
  //   clamp(round(x / scale), -q, q) * scale
  // for EVERY float: signed zeros (round(-0.3) is -0.0, which a masked
  // +-1 tie repair would turn into +0.0), NaNs of any payload (std::clamp
  // lets NaN through), +-inf (clamped to +-q), denormals, and exact ties.
  // The sweep covers every 997th bit pattern of the 2^32 plus the tie
  // points, at pow2 and non-pow2 scales.
  std::vector<float> src;
  for (uint64_t b = 0; b < (uint64_t{1} << 32); b += 997) {
    const auto bits32 = static_cast<uint32_t>(b);
    float f;
    std::memcpy(&f, &bits32, sizeof(f));
    src.push_back(f);
  }
  for (const float f :
       {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(), -1e-30f}) {
    src.push_back(f);
  }
  for (const int bits : {2, 4, 8, 16}) {
    const int64_t q = qmax_for_bits(bits);
    const float qf = static_cast<float>(q);
    for (const float scale : {1.0f / 64.0f, 0.0375f, 3.1f, 1e-8f}) {
      std::vector<float> in = src;
      for (int64_t k = -q - 2; k <= q + 2; k += std::max<int64_t>(1, q / 64)) {
        in.push_back((static_cast<float>(k) + 0.5f) * scale);
        in.push_back(-(static_cast<float>(k) + 0.5f) * scale);
      }
      std::vector<float> got = in;
      fake_quant_buffer(got.data(), static_cast<int64_t>(got.size()), scale,
                        bits);
      std::vector<float> want(in.size());
      for (size_t i = 0; i < in.size(); ++i) {
        want[i] = std::clamp(std::round(in[i] / scale), -qf, qf) * scale;
      }
      if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) ==
          0) {
        continue;
      }
      for (size_t i = 0; i < in.size(); ++i) {
        ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
            << "x=" << in[i] << " got=" << got[i] << " want=" << want[i]
            << " scale=" << scale << " bits=" << bits << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace nb::quant
