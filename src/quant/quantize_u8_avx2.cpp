// AVX2 instances of quantize_levels_u8 and fake_quant_buffer (see
// quantize.h). Compiled with -mavx2 only; quantize.cpp selects them at
// runtime via __builtin_cpu_supports so the library still runs on pre-AVX2
// machines.
//
// Both must be BIT-IDENTICAL to the scalar expressions
//
//   dst[i]  = u8(int(clamp(round(src[i] / scale), -q, q)) + 128)
//   data[i] = clamp(round(data[i] / scale), -q, q) * scale
//
// because the int8 plan, the QModel oracle and the float reference all
// derive their agreement from this one rounding. Both share level8()
// below. Its subtleties:
//
//   * the division stays a division (vdivps) — multiplying by the
//     reciprocal rounds differently;
//   * std::round rounds halves AWAY from zero, vroundps rounds them to
//     even. Ties are repaired exactly: with t the quotient and r its
//     nearest-even rounding, d = t - r is computed without error (|d| <=
//     0.5, so Sterbenz / small-magnitude cases apply), and d == +-0.5
//     flags a tie. A tie rounds away iff nearest-even pulled it toward
//     zero, i.e. d == +0.5 with t > 0 (bump +1) or d == -0.5 with t < 0
//     (bump -1). For the float output the bump is SELECTED (blendv): adding
//     a masked +-1 adds 0.0 to every other lane, which turns round(-0.3) =
//     -0 into +0. The u8 output converts to an integer straight away, where
//     -0 and +0 are one level, so it keeps the cheaper masked add (blendv
//     costs the int8 backend a measurable share of its single-stream
//     throughput);
//   * the clamp is min(q, max(-q, r)): x86 min/max return their SECOND
//     operand when either is NaN, so a NaN level passes through both the
//     way std::clamp lets it through. +-inf quotients never flag a tie
//     (d is NaN) and clamp to +-q, as in the scalar path.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include <immintrin.h>

namespace nb::quant::detail {

namespace {

struct LevelConsts {
  explicit LevelConsts(float scale, float q)
      : scale(_mm256_set1_ps(scale)),
        q(_mm256_set1_ps(q)),
        nq(_mm256_set1_ps(-q)) {}
  __m256 scale, q, nq;
  __m256 half = _mm256_set1_ps(0.5f);
  __m256 nhalf = _mm256_set1_ps(-0.5f);
  __m256 one = _mm256_set1_ps(1.0f);
  __m256 zero = _mm256_setzero_ps();
};

// clamp(round(x / scale), -q, q) for eight floats, std::round semantics;
// kSignedZero keeps the sign of a zero level as well.
template <bool kSignedZero>
inline __m256 level8(__m256 x, const LevelConsts& k) {
  const __m256 t = _mm256_div_ps(x, k.scale);
  __m256 r = _mm256_round_ps(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256 d = _mm256_sub_ps(t, r);
  const __m256 up = _mm256_and_ps(_mm256_cmp_ps(d, k.half, _CMP_EQ_OQ),
                                  _mm256_cmp_ps(t, k.zero, _CMP_GT_OQ));
  const __m256 dn = _mm256_and_ps(_mm256_cmp_ps(d, k.nhalf, _CMP_EQ_OQ),
                                  _mm256_cmp_ps(t, k.zero, _CMP_LT_OQ));
  if (kSignedZero) {
    r = _mm256_blendv_ps(r, _mm256_add_ps(r, k.one), up);
    r = _mm256_blendv_ps(r, _mm256_sub_ps(r, k.one), dn);
  } else {
    r = _mm256_add_ps(r, _mm256_and_ps(up, k.one));
    r = _mm256_sub_ps(r, _mm256_and_ps(dn, k.one));
  }
  return _mm256_min_ps(k.q, _mm256_max_ps(k.nq, r));
}

}  // namespace

void quantize_levels_u8_avx2(const float* src, uint8_t* dst, int64_t n,
                             float scale, float q) {
  const LevelConsts k(scale, q);
  const __m256i voff = _mm256_set1_epi32(128);
  const auto bytes8 = [&](const float* p) {
    return _mm256_add_epi32(
        _mm256_cvtps_epi32(level8<false>(_mm256_loadu_ps(p), k)), voff);
  };
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i lo = bytes8(src + i);
    const __m256i hi = bytes8(src + i + 8);
    // packus interleaves 128-bit lanes; permute restores element order.
    const __m256i w16 = _mm256_permute4x64_epi64(
        _mm256_packus_epi32(lo, hi), _MM_SHUFFLE(3, 1, 2, 0));
    const __m128i bytes =
        _mm_packus_epi16(_mm256_castsi256_si128(w16),
                         _mm256_extracti128_si256(w16, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), bytes);
  }
  for (; i < n; ++i) {
    // Scalar tail, same expression as the portable path.
    const float level = std::clamp(std::round(src[i] / scale), -q, q);
    dst[i] = static_cast<uint8_t>(static_cast<int32_t>(level) + 128);
  }
}

void fake_quant_buffer_avx2(float* data, int64_t n, float scale, float q) {
  const LevelConsts k(scale, q);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 level = level8<true>(_mm256_loadu_ps(data + i), k);
    _mm256_storeu_ps(data + i, _mm256_mul_ps(level, k.scale));
  }
  for (; i < n; ++i) {
    data[i] = std::clamp(std::round(data[i] / scale), -q, q) * scale;
  }
}

}  // namespace nb::quant::detail
