// AVX-512F instance of depthwise_planes (see depthwise.h), selected at
// runtime by depthwise.cpp. It vectorizes ACROSS planes instead of along a
// row: the planes of a tiny-resolution network are 1x1 to 16x16, too narrow
// for a row vector, but a layer has dozens to hundreds of them.
//
// 1. Stage. Sixteen planes are gathered into the thread's
//    ScratchSlot::kDepthwiseLanes as [h*w][16] floats (lane j = plane
//    q0 + j), their kernels as [k*k][16] and their biases as one vector.
//    Lanes past the last plane are masked off and read as zeros.
// 2. Compute. Every lane shares one (oy, ox), so the control flow is the
//    scalar loop's own: the same interior/edge split, the same skipped
//    out-of-bounds taps (the same narrowed tap ranges). Each output starts at the bias and adds taps in
//    ascending (ki, kj), one rounded vmulps then one rounded vaddps per
//    tap (this file is built with -ffp-contract=off). That is exactly the
//    scalar dw_plane's arithmetic in every lane, so each output is bitwise
//    equal to depthwise_plane's, at any grouping of planes or lane position.
// 3. Store. The 16-lane result of one (oy, ox) is scattered back to its 16
//    planes.
#include <algorithm>
#include <cstdint>
#include <limits>

#include <immintrin.h>

#include "tensor/depthwise.h"
#include "tensor/scratch.h"

namespace nb::detail {

namespace {

constexpr int64_t kLanes = 16;

inline __m512 tap(__m512 acc, const float* kv, const float* sv) {
  return _mm512_add_ps(acc, _mm512_mul_ps(_mm512_load_ps(kv),
                                          _mm512_load_ps(sv)));
}

// One group of <= 16 staged planes. `st` is the [h*w][16] input, `kt` the
// [k*k][16] kernel; output (oy, ox) of lane j lands at
// obase + j*oh*ow + oy*ow + ox (the offsets live in `oidx`).
template <int K>
void planes16(const float* st, const float* kt, __m512 vb, float* obase,
              __m512i oidx, __mmask16 m, int64_t h, int64_t w, int64_t oh,
              int64_t ow, int64_t krt, int64_t s, int64_t pad) {
  const int64_t k = K > 0 ? K : krt;
  // Same interior bounds as the scalar dw_plane (see depthwise.cpp).
  const int64_t ox_lo = std::min(ow, (pad + s - 1) / s);
  const int64_t interior_end = w - k + pad >= 0 ? (w - k + pad) / s + 1 : 0;
  const int64_t ox_hi = std::max(ox_lo, std::min(ow, interior_end));
  for (int64_t oy = 0; oy < oh; ++oy) {
    const int64_t iy0 = oy * s - pad;
    const int64_t ki_lo = std::max<int64_t>(0, -iy0);
    const int64_t ki_hi = std::min<int64_t>(k, h - iy0);
    float* orow = obase + oy * ow;
    const auto edge = [&](int64_t ox) {
      const int64_t ix0 = ox * s - pad;
      const int64_t kj_lo = std::max<int64_t>(0, -ix0);
      const int64_t kj_hi = std::min<int64_t>(k, w - ix0);
      __m512 acc = vb;
      for (int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const float* srow = st + (iy0 + ki) * w * kLanes;
        const float* krow = kt + ki * k * kLanes;
        for (int64_t kj = kj_lo; kj < kj_hi; ++kj) {
          acc = tap(acc, krow + kj * kLanes, srow + (ix0 + kj) * kLanes);
        }
      }
      _mm512_mask_i32scatter_ps(orow + ox, m, oidx, acc, 4);
    };
    for (int64_t ox = 0; ox < ox_lo; ++ox) edge(ox);
    for (int64_t ox = ox_hi; ox < ow; ++ox) edge(ox);
    for (int64_t ox = ox_lo; ox < ox_hi; ++ox) {
      const int64_t ix0 = ox * s - pad;
      __m512 acc = vb;
      for (int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const float* srow = st + ((iy0 + ki) * w + ix0) * kLanes;
        const float* krow = kt + ki * k * kLanes;
        for (int64_t kj = 0; kj < (K > 0 ? K : krt); ++kj) {
          acc = tap(acc, krow + kj * kLanes, srow + kj * kLanes);
        }
      }
      _mm512_mask_i32scatter_ps(orow + ox, m, oidx, acc, 4);
    }
  }
}

using Planes16Fn = void (*)(const float*, const float*, __m512, float*,
                            __m512i, __mmask16, int64_t, int64_t, int64_t,
                            int64_t, int64_t, int64_t, int64_t);

Planes16Fn planes16_for(int64_t k) {
  switch (k) {
    case 3:
      return &planes16<3>;
    case 5:
      return &planes16<5>;
    case 7:
      return &planes16<7>;
    default:
      return &planes16<0>;
  }
}

}  // namespace

bool depthwise_planes_avx512(const float* img, const float* ker,
                             const float* bias, float* out, int64_t p0,
                             int64_t p1, DwPlaneMap map, int64_t h, int64_t w,
                             int64_t oh, int64_t ow, int64_t k, int64_t s,
                             int64_t pad) {
  const int64_t in_hw = h * w;
  const int64_t out_hw = oh * ow;
  const int64_t kk = k * k;
  // Gather/scatter offsets are 32-bit lane indices.
  constexpr int64_t kMaxIndex = std::numeric_limits<int32_t>::max();
  if ((kLanes - 1) * std::max(in_hw, out_hw) > kMaxIndex ||
      map.channels * kk > kMaxIndex) {
    return false;
  }
  if (p1 <= p0) return true;

  // [ kernel taps (kk*16) | input planes (in_hw*16) ], 64-byte aligned.
  float* scratch = scratch_acquire(
      ScratchSlot::kDepthwiseLanes,
      static_cast<size_t>((kk + in_hw) * kLanes + kLanes));
  const auto aligned = reinterpret_cast<uintptr_t>(scratch);
  float* kt = scratch + ((64 - aligned % 64) % 64) / sizeof(float);
  float* st = kt + kk * kLanes;

  const __m512i lane = _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6,
                                        5, 4, 3, 2, 1, 0);
  const __m512i in_idx =
      _mm512_mullo_epi32(lane, _mm512_set1_epi32(static_cast<int32_t>(in_hw)));
  const __m512i out_idx = _mm512_mullo_epi32(
      lane, _mm512_set1_epi32(static_cast<int32_t>(out_hw)));
  const __m512 zero = _mm512_setzero_ps();
  const Planes16Fn run = planes16_for(k);

  // Channel of plane p0 and its position within that channel's run; both
  // advance plane by plane, so the map costs no division per lane.
  int64_t cur_ch = map.channel(p0);
  int64_t cur_pos = p0 % map.per_channel;
  for (int64_t q0 = p0; q0 < p1; q0 += kLanes) {
    const int64_t count = std::min(kLanes, p1 - q0);
    const auto m = static_cast<__mmask16>((1u << count) - 1);
    alignas(64) int32_t ch[kLanes] = {};
    for (int64_t j = 0; j < count; ++j) {
      ch[j] = static_cast<int32_t>(cur_ch);
      if (++cur_pos == map.per_channel) {
        cur_pos = 0;
        if (++cur_ch == map.channels) cur_ch = 0;
      }
    }
    const __m512i vch = _mm512_load_si512(ch);
    const __m512 vb = bias == nullptr
                          ? zero
                          : _mm512_mask_i32gather_ps(zero, m, vch, bias, 4);
    const __m512i ker_idx =
        _mm512_mullo_epi32(vch, _mm512_set1_epi32(static_cast<int32_t>(kk)));
    for (int64_t t = 0; t < kk; ++t) {
      _mm512_store_ps(kt + t * kLanes,
                      _mm512_mask_i32gather_ps(zero, m, ker_idx, ker + t, 4));
    }
    const float* src = img + q0 * in_hw;
    for (int64_t t = 0; t < in_hw; ++t) {
      _mm512_store_ps(st + t * kLanes,
                      _mm512_mask_i32gather_ps(zero, m, in_idx, src + t, 4));
    }
    run(st, kt, vb, out + q0 * out_hw, out_idx, m, h, w, oh, ow, k, s, pad);
  }
  return true;
}

}  // namespace nb::detail
