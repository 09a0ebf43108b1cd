#include "tensor/depthwise.h"

#include <algorithm>
#include <vector>

namespace nb {

namespace detail {
#if defined(NB_DW_AVX512)
bool depthwise_planes_avx512(const float* img, const float* ker,
                             const float* bias, float* out, int64_t p0,
                             int64_t p1, DwPlaneMap map, int64_t h, int64_t w,
                             int64_t oh, int64_t ow, int64_t k, int64_t s,
                             int64_t pad);
#endif
#if defined(NB_DW_S8_AVX2)
void depthwise_plane_s8_avx2(const uint8_t* img, const int8_t* ker,
                             int32_t* out, int64_t h, int64_t w, int64_t oh,
                             int64_t ow, int64_t k, int64_t pad);
#endif
#if defined(NB_DW_S8_AVX512)
void depthwise_plane_s8_avx512(const uint8_t* img, const int8_t* ker,
                               int32_t* out, int64_t h, int64_t w, int64_t oh,
                               int64_t ow, int64_t k, int64_t s, int64_t pad);
#endif
}  // namespace detail

namespace {

// K is a compile-time constant for the common kernels so the tap loops fully
// unroll; KRT carries the runtime size for the generic instantiation (K==0).
template <int K>
void dw_plane(const float* img, const float* ker, float* out, int64_t h,
              int64_t w, int64_t oh, int64_t ow, int64_t krt, int64_t s,
              int64_t pad, float bias) {
  const int64_t k = K > 0 ? K : krt;
  // Output columns whose every horizontal tap is in bounds. The last such
  // column satisfies ox*s - pad + k - 1 <= w - 1; the numerator can be
  // negative (kernel wider than the plane), where C++ division truncates
  // toward zero instead of flooring, so guard it explicitly.
  const int64_t ox_lo = std::min(ow, (pad + s - 1) / s);
  const int64_t interior_end = w - k + pad >= 0 ? (w - k + pad) / s + 1 : 0;
  const int64_t ox_hi = std::max(ox_lo, std::min(ow, interior_end));
  for (int64_t oy = 0; oy < oh; ++oy) {
    const int64_t iy0 = oy * s - pad;
    const int64_t ki_lo = std::max<int64_t>(0, -iy0);
    const int64_t ki_hi = std::min<int64_t>(k, h - iy0);
    float* orow = out + oy * ow;
    // Border output: the out-of-bounds taps are skipped by narrowing the
    // column range, not by a per-tap branch. A conditional add is one that
    // vectorizers if-convert into `acc += in_bounds ? prod : +0.0f`, and
    // adding +0.0f turns a -0.0f sum into +0.0f.
    const auto edge = [&](int64_t ox) {
      const int64_t ix0 = ox * s - pad;
      const int64_t kj_lo = std::max<int64_t>(0, -ix0);
      const int64_t kj_hi = std::min<int64_t>(k, w - ix0);
      float acc = bias;
      for (int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const float* srow = img + (iy0 + ki) * w;
        const float* krow = ker + ki * k;
        for (int64_t kj = kj_lo; kj < kj_hi; ++kj) {
          acc += krow[kj] * srow[ix0 + kj];
        }
      }
      orow[ox] = acc;
    };
    for (int64_t ox = 0; ox < ox_lo; ++ox) edge(ox);
    for (int64_t ox = ox_hi; ox < ow; ++ox) edge(ox);
    // Interior fast path: every tap in bounds, no per-tap branches.
    const float* base = img + iy0 * w - pad;
    for (int64_t ox = ox_lo; ox < ox_hi; ++ox) {
      const float* spix = base + ox * s;
      float acc = bias;
      for (int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const float* srow = spix + ki * w;
        const float* krow = ker + ki * k;
        for (int64_t kj = 0; kj < (K > 0 ? K : krt); ++kj) {
          acc += krow[kj] * srow[kj];
        }
      }
      orow[ox] = acc;
    }
  }
}

// Integer twin of dw_plane for the int8 path: same interior/edge split,
// int32 accumulation of ker * (img - 128), skipped taps contribute nothing
// (offset level 0). Max |acc| is k*k * 127 * 255 — nowhere near int32.
template <int K>
void dw_plane_s8(const uint8_t* img, const int8_t* ker, int32_t* out,
                 int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t krt,
                 int64_t s, int64_t pad) {
  const int64_t k = K > 0 ? K : krt;
  const int64_t ox_lo = std::min(ow, (pad + s - 1) / s);
  const int64_t interior_end = w - k + pad >= 0 ? (w - k + pad) / s + 1 : 0;
  const int64_t ox_hi = std::max(ox_lo, std::min(ow, interior_end));
  for (int64_t oy = 0; oy < oh; ++oy) {
    const int64_t iy0 = oy * s - pad;
    const int64_t ki_lo = std::max<int64_t>(0, -iy0);
    const int64_t ki_hi = std::min<int64_t>(k, h - iy0);
    int32_t* orow = out + oy * ow;
    const auto edge = [&](int64_t ox) {
      int32_t acc = 0;
      for (int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const uint8_t* srow = img + (iy0 + ki) * w;
        const int8_t* krow = ker + ki * k;
        for (int64_t kj = 0; kj < k; ++kj) {
          const int64_t ix = ox * s - pad + kj;
          if (ix >= 0 && ix < w) acc += krow[kj] * (srow[ix] - 128);
        }
      }
      orow[ox] = acc;
    };
    for (int64_t ox = 0; ox < ox_lo; ++ox) edge(ox);
    for (int64_t ox = ox_hi; ox < ow; ++ox) edge(ox);
    const uint8_t* base = img + iy0 * w - pad;
    for (int64_t ox = ox_lo; ox < ox_hi; ++ox) {
      const uint8_t* spix = base + ox * s;
      int32_t acc = 0;
      for (int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const uint8_t* srow = spix + ki * w;
        const int8_t* krow = ker + ki * k;
        for (int64_t kj = 0; kj < (K > 0 ? K : krt); ++kj) {
          acc += krow[kj] * (srow[kj] - 128);
        }
      }
      orow[ox] = acc;
    }
  }
}

using DwFn = void (*)(const float*, const float*, const float*, float*,
                     int64_t, int64_t, DwPlaneMap, int64_t, int64_t, int64_t,
                     int64_t, int64_t, int64_t, int64_t);

void dw_generic(const float* img, const float* ker, const float* bias,
                float* out, int64_t p0, int64_t p1, DwPlaneMap map, int64_t h,
                int64_t w, int64_t oh, int64_t ow, int64_t k, int64_t s,
                int64_t pad) {
  for (int64_t pl = p0; pl < p1; ++pl) {
    const int64_t ch = map.channel(pl);
    depthwise_plane(img + pl * h * w, ker + ch * k * k, out + pl * oh * ow, h,
                    w, oh, ow, k, s, pad, bias == nullptr ? 0.0f : bias[ch]);
  }
}

#if defined(NB_DW_AVX512)
// The AVX-512 kernel declines (returns false) only on planes too large for
// its 32-bit gather offsets; those run the generic loop.
void dw_avx512(const float* img, const float* ker, const float* bias,
               float* out, int64_t p0, int64_t p1, DwPlaneMap map, int64_t h,
               int64_t w, int64_t oh, int64_t ow, int64_t k, int64_t s,
               int64_t pad) {
  if (!detail::depthwise_planes_avx512(img, ker, bias, out, p0, p1, map, h, w,
                                       oh, ow, k, s, pad)) {
    dw_generic(img, ker, bias, out, p0, p1, map, h, w, oh, ow, k, s, pad);
  }
}
#endif

struct DwInstance {
  const char* name;
  DwFn fn;
};

// Same convention as the int8 list below: every instance this build and
// CPU can run, slowest first, all bitwise equal; the dispatcher takes the
// last one.
const std::vector<DwInstance>& dw_instances() {
  static const std::vector<DwInstance> list = [] {
    std::vector<DwInstance> v;
    v.push_back({"dw-f32-generic", &dw_generic});
#if defined(NB_DW_AVX512)
    if (__builtin_cpu_supports("avx512f")) {
      v.push_back({"dw-f32-avx512", &dw_avx512});
    }
#endif
    return v;
  }();
  return list;
}

const DwInstance& dw_active() {
  static const DwInstance& active = dw_instances().back();
  return active;
}

using DwS8Fn = void (*)(const uint8_t*, const int8_t*, int32_t*, int64_t,
                        int64_t, int64_t, int64_t, int64_t, int64_t, int64_t);

void dw_s8_generic(const uint8_t* img, const int8_t* ker, int32_t* out,
                   int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t k,
                   int64_t s, int64_t pad) {
  switch (k) {
    case 3:
      dw_plane_s8<3>(img, ker, out, h, w, oh, ow, k, s, pad);
      break;
    case 5:
      dw_plane_s8<5>(img, ker, out, h, w, oh, ow, k, s, pad);
      break;
    default:
      dw_plane_s8<0>(img, ker, out, h, w, oh, ow, k, s, pad);
      break;
  }
}

#if defined(NB_DW_S8_AVX2)
// Stride-1 planes with at least 16 interior columns take the 16-wide AVX2
// interior; every other plane runs the generic loops, whose templated edge
// loop is faster than the AVX2 file's scalar one when no vector fits.
void dw_s8_avx2(const uint8_t* img, const int8_t* ker, int32_t* out,
                int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t k,
                int64_t s, int64_t pad) {
  const int64_t ox_lo = std::min(ow, pad);
  const int64_t interior_end = w - k + pad >= 0 ? w - k + pad + 1 : 0;
  const int64_t interior = std::min(ow, interior_end) - ox_lo;
  if (s == 1 && interior >= 16) {
    detail::depthwise_plane_s8_avx2(img, ker, out, h, w, oh, ow, k, pad);
  } else {
    dw_s8_generic(img, ker, out, h, w, oh, ow, k, s, pad);
  }
}
#endif

struct DwS8Instance {
  const char* name;
  DwS8Fn fn;
};

// Every instance this build and CPU can run, slowest first. The integer
// arithmetic is exact in all of them, so the choice is a pure performance
// decision: the dispatcher takes the last one.
const std::vector<DwS8Instance>& dw_s8_instances() {
  static const std::vector<DwS8Instance> list = [] {
    std::vector<DwS8Instance> v;
    v.push_back({"dw-s8-generic", &dw_s8_generic});
#if defined(NB_DW_S8_AVX2)
    if (__builtin_cpu_supports("avx2")) {
      v.push_back({"dw-s8-avx2", &dw_s8_avx2});
    }
#endif
#if defined(NB_DW_S8_AVX512)
    if (__builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vbmi") &&
        __builtin_cpu_supports("avx512vnni") &&
        __builtin_cpu_supports("avx512vl")) {
      v.push_back({"dw-s8-avx512", &detail::depthwise_plane_s8_avx512});
    }
#endif
    return v;
  }();
  return list;
}

const DwS8Instance& dw_s8_active() {
  static const DwS8Instance& active = dw_s8_instances().back();
  return active;
}

}  // namespace

void depthwise_plane(const float* img, const float* ker, float* out,
                     int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t k,
                     int64_t s, int64_t pad, float bias) {
  switch (k) {
    case 3:
      dw_plane<3>(img, ker, out, h, w, oh, ow, k, s, pad, bias);
      break;
    case 5:
      dw_plane<5>(img, ker, out, h, w, oh, ow, k, s, pad, bias);
      break;
    default:
      dw_plane<0>(img, ker, out, h, w, oh, ow, k, s, pad, bias);
      break;
  }
}

void depthwise_planes(const float* img, const float* ker, const float* bias,
                      float* out, int64_t p0, int64_t p1, DwPlaneMap map,
                      int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t k,
                      int64_t s, int64_t pad) {
  dw_active().fn(img, ker, bias, out, p0, p1, map, h, w, oh, ow, k, s, pad);
}

const char* depthwise_kernel_name() { return dw_active().name; }

int depthwise_instance_count() {
  return static_cast<int>(dw_instances().size());
}

const char* depthwise_instance_name(int i) {
  return dw_instances()[static_cast<size_t>(i)].name;
}

void depthwise_run_instance(int i, const float* img, const float* ker,
                            const float* bias, float* out, int64_t p0,
                            int64_t p1, DwPlaneMap map, int64_t h, int64_t w,
                            int64_t oh, int64_t ow, int64_t k, int64_t s,
                            int64_t pad) {
  dw_instances()[static_cast<size_t>(i)].fn(img, ker, bias, out, p0, p1, map,
                                            h, w, oh, ow, k, s, pad);
}

void depthwise_plane_s8(const uint8_t* img, const int8_t* ker, int32_t* out,
                        int64_t h, int64_t w, int64_t oh, int64_t ow,
                        int64_t k, int64_t s, int64_t pad) {
  dw_s8_active().fn(img, ker, out, h, w, oh, ow, k, s, pad);
}

const char* depthwise_s8_kernel_name() { return dw_s8_active().name; }

int depthwise_s8_instance_count() {
  return static_cast<int>(dw_s8_instances().size());
}

const char* depthwise_s8_instance_name(int i) {
  return dw_s8_instances()[static_cast<size_t>(i)].name;
}

void depthwise_s8_run_instance(int i, const uint8_t* img, const int8_t* ker,
                               int32_t* out, int64_t h, int64_t w, int64_t oh,
                               int64_t ow, int64_t k, int64_t s, int64_t pad) {
  dw_s8_instances()[static_cast<size_t>(i)].fn(img, ker, out, h, w, oh, ow, k,
                                               s, pad);
}

}  // namespace nb
