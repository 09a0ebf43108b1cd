// AVX-512 (BW + VBMI + VNNI) instance of the int8 depthwise plane, selected
// at runtime by depthwise.cpp. It handles every stride, kernel and padding
// with one branch-free inner loop:
//
// 1. Stage. The plane is copied into a scratch buffer that already holds
//    its zero padding: out-of-bounds bytes are 128, offset level 0. The
//    columns are split into `s` phases (column j*s + r goes to phase r, at
//    position j). Kernel tap (ki, kj) of output (oy, ox) then reads phase
//    kj % s, row oy*s + ki, position ox + kj / s. So per kernel row and
//    phase, one output reads ceil(k/s) consecutive staged bytes, and every
//    output is an interior output.
// 2. Multiply. Each run of up to 4 consecutive taps is one "quad": a
//    `vpermb` gathers the 4 staged bytes of 16 outputs into 16 dwords, and
//    one `vpdpbusd` multiplies them (u8) by the broadcast 4-tap kernel dword
//    (s8, zero beyond the run) and adds into i32 lanes. Output planes
//    narrower than 16 columns pack several output rows into one vector.
// 3. Offset. The uniform -128 of the offset-u8 encoding is subtracted once
//    per vector as 128 * sum(ker). Padding taps read 128, so they add
//    ker * 128 - ker * 128 = 0, the same as the skipped taps of the scalar
//    path.
//
// Exact: all arithmetic is integer, vpdpbusd does not saturate, and the
// accumulator is bounded by k*k * 255 * 128 < 2^31 for every k < 256. The
// output is the scalar path's by arithmetic identity.
#include <algorithm>
#include <cstdint>
#include <cstring>

#include <immintrin.h>

#include "tensor/scratch.h"

namespace nb::detail {

namespace {

// Lanes [lo, hi) of a 64-lane mask, clamped to the vector.
__mmask64 lane_range(int64_t lo, int64_t hi) {
  lo = std::clamp<int64_t>(lo, 0, 64);
  hi = std::clamp<int64_t>(hi, 0, 64);
  if (hi <= lo) return 0;
  const uint64_t below_hi = hi == 64 ? ~uint64_t{0} : (uint64_t{1} << hi) - 1;
  return below_hi & ~((uint64_t{1} << lo) - 1);
}

// vpermb. GCC 12's _mm512_permutexvar_epi8 feeds the builtin a
// self-initialized "undefined" vector, which trips -Wmaybe-uninitialized;
// the all-lanes zero-masked form compiles to the same instruction.
inline __m512i permb(__m512i idx, __m512i v) {
  return _mm512_maskz_permutexvar_epi8(~__mmask64{0}, idx, v);
}

struct alignas(64) ByteTable {
  uint8_t v[64];
};

// vpermb index of a single output row: lane 4*i + t reads byte i + t, i.e.
// output i's t-th tap of the quad.
constexpr ByteTable kQuadIndex = [] {
  ByteTable t{};
  for (int l = 0; l < 64; ++l) t.v[l] = static_cast<uint8_t>(l / 4 + l % 4);
  return t;
}();

// The shape-only half of a plane's setup is where each quad's bytes sit in
// the staged plane and which kernel taps fill its dword. All planes of a
// layer share it, so it lives at the head of the thread's scratch buffer,
// after the shape it was built for, and is rebuilt only when that changes
// (scratch.h guarantees a slot keeps its contents). Rebuilding it per plane
// made the 192 planes of 6x6 k3 s2 slower than the generic loop.
struct ShapeKey {
  int64_t k, s, wq, hp;
};

// Scratch layout, in bytes: ShapeKey (64) | staged offset per quad (int64,
// vecs*16) | kernel tap index mod 64 per quad byte (vecs*64) | per vec and
// chunk, the byte lanes whose tap lies in that chunk (u64, vecs*chunks) |
// kernel dwords (int32, vecs*16) | staged phases + 64 bytes of slack for
// the full-width loads of the last rows.
struct Scratch {
  int64_t* off;
  uint8_t* tap;
  uint64_t* in_chunk;
  int32_t* dword;
  uint8_t* stage;
};

void build_taps(const Scratch& sc, int64_t k, int64_t s, int64_t wq,
                int64_t hp, int64_t phases, int64_t vecs, int64_t chunks) {
  std::memset(sc.tap, 0, static_cast<size_t>(vecs * 64));
  std::memset(sc.in_chunk, 0, static_cast<size_t>(vecs * chunks * 8));
  int64_t q = 0;
  for (int64_t ki = 0; ki < k; ++ki) {
    for (int64_t r = 0; r < phases; ++r) {
      // Phase r of kernel row ki holds taps kj = r + i*s, i < taps.
      const int64_t taps = (k - r + s - 1) / s;
      for (int64_t i0 = 0; i0 < taps; i0 += 4, ++q) {
        sc.off[q] = r * hp * wq + ki * wq + i0;
        for (int64_t t = 0; t < std::min<int64_t>(4, taps - i0); ++t) {
          const int64_t kt = ki * k + r + (i0 + t) * s;
          const int64_t lane = (q % 16) * 4 + t;
          sc.tap[(q / 16) * 64 + lane] = static_cast<uint8_t>(kt % 64);
          sc.in_chunk[(q / 16) * chunks + kt / 64] |= uint64_t{1} << lane;
        }
      }
    }
  }
}

}  // namespace

void depthwise_plane_s8_avx512(const uint8_t* img, const int8_t* ker,
                               int32_t* out, int64_t h, int64_t w, int64_t oh,
                               int64_t ow, int64_t k, int64_t s, int64_t pad) {
  if (oh <= 0 || ow <= 0) return;
  const int64_t phases = std::min(s, k);  // phases r >= k hold no taps
  const int64_t hp = (oh - 1) * s + k;    // padded rows the outputs read
  const int64_t wq = ow + (k - 1) / s;    // positions per phase row
  const int64_t phase_bytes = hp * wq;

  int64_t quads_per_krow = 0;
  for (int64_t r = 0; r < phases; ++r) {
    quads_per_krow += ((k - r + s - 1) / s + 3) / 4;
  }
  const int64_t quads = k * quads_per_krow;
  const int64_t vecs = (quads + 15) / 16;
  const int64_t chunks = (k * k + 63) / 64;
  const int64_t bytes = 64 + vecs * (128 + 64 + 8 * chunks + 64) +
                        phases * phase_bytes + 64;
  uint8_t* base = reinterpret_cast<uint8_t*>(
      scratch_acquire(ScratchSlot::kDepthwiseStage,
                      static_cast<size_t>(bytes + 3) / 4));
  Scratch sc;
  sc.off = reinterpret_cast<int64_t*>(base + 64);
  sc.tap = base + 64 + vecs * 128;
  sc.in_chunk = reinterpret_cast<uint64_t*>(sc.tap + vecs * 64);
  sc.dword = reinterpret_cast<int32_t*>(sc.in_chunk + vecs * chunks);
  sc.stage = reinterpret_cast<uint8_t*>(sc.dword + vecs * 16);
  const ShapeKey key{k, s, wq, hp};
  ShapeKey built;  // a fresh buffer holds zeros, which no shape matches
  std::memcpy(&built, base, sizeof built);
  if (std::memcmp(&built, &key, sizeof key) != 0) {
    build_taps(sc, k, s, wq, hp, phases, vecs, chunks);
    std::memcpy(base, &key, sizeof key);
  }

  // Kernel dwords: one masked vpermb per 16 quads and kernel chunk gathers
  // each quad's taps (lanes without a tap stay zero). sum(ker) comes from a
  // vpdpbusd of the kernel against bytes of 1.
  __m512i ksum = _mm512_setzero_si512();
  for (int64_t c = 0; c < chunks; ++c) {
    const __m512i kc = _mm512_maskz_loadu_epi8(
        lane_range(0, k * k - 64 * c), ker + 64 * c);
    ksum = _mm512_dpbusd_epi32(ksum, _mm512_set1_epi8(1), kc);
    for (int64_t v = 0; v < vecs; ++v) {
      int32_t* dst = sc.dword + 16 * v;
      const __m512i prev =
          c == 0 ? _mm512_setzero_si512() : _mm512_loadu_si512(dst);
      _mm512_storeu_si512(
          dst, _mm512_mask_permutexvar_epi8(
                   prev, sc.in_chunk[v * chunks + c],
                   _mm512_loadu_si512(sc.tap + 64 * v), kc));
    }
  }

  // Stage: phase r, row y, position j = padded byte (y, j*s + r).
  {
    const __m512i fill = _mm512_set1_epi8(static_cast<char>(128));
    // Phase positions one 64-byte load feeds: lane l*s for l < per_load.
    const int64_t per_load = std::max<int64_t>(1, 64 / s);
    // Lane l reads byte l*s. Built in 16-bit lanes holding bytes 2i and
    // 2i+1: 2i*s*257 + (s << 8) puts 2i*s low and (2i+1)*s high. Lanes past
    // per_load wrap, but they are never stored.
    const __m512i gather = _mm512_add_epi16(
        _mm512_mullo_epi16(
            _mm512_set_epi16(31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20,
                             19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7,
                             6, 5, 4, 3, 2, 1, 0),
            _mm512_set1_epi16(static_cast<int16_t>(2 * s * 257))),
        _mm512_set1_epi16(static_cast<int16_t>(s << 8)));
    for (int64_t r = 0; r < phases; ++r) {
      uint8_t* dst = sc.stage + r * phase_bytes;
      for (int64_t j0 = 0; j0 < wq; j0 += per_load) {
        const int64_t x0 = j0 * s + r - pad;  // input column of lane 0
        const __mmask64 in_row = lane_range(-x0, w - x0);
        const __mmask64 store = lane_range(0, std::min(per_load, wq - j0));
        for (int64_t y = 0; y < hp; ++y) {
          // Rows outside the plane load nothing and store all fill. Masked
          // lanes are never read, so x0 < 0 or a load running past the
          // row's end touches no byte outside it.
          const int64_t iy = y - pad;
          const bool inside = iy >= 0 && iy < h;
          const __m512i v = _mm512_mask_loadu_epi8(
              fill, inside ? in_row : 0, img + (inside ? iy * w + x0 : 0));
          _mm512_mask_storeu_epi8(dst + y * wq + j0, store,
                                  permb(gather, v));
        }
      }
    }
  }

  // Multiply. A block is 16 output lanes: a row segment when ow >= 16,
  // otherwise `rows` whole output rows (consecutive in `out`) whose staged
  // bytes sit `step` apart and must fit one 64-byte load.
  const int64_t step = s * wq;  // staged distance between output rows
  int64_t rows = 1;
  __m512i idx = _mm512_load_si512(kQuadIndex.v);
  if (ow < 16) {
    rows = std::min({16 / ow, (61 - ow) / step + 1, oh});
    const __m512i skip = _mm512_set1_epi8(static_cast<char>(step - ow));
    for (int64_t a = 1; a < rows; ++a) {
      idx = _mm512_mask_add_epi8(idx, ~__mmask64{0} << (4 * a * ow), idx,
                                 skip);
    }
  }
  // Lane sum through memory: GCC 12's _mm512_reduce_add_epi32 trips the
  // same -Wmaybe-uninitialized as its vpermb intrinsic.
  alignas(64) int32_t ksum_lanes[16];
  _mm512_store_si512(ksum_lanes, ksum);
  int32_t ksum_total = 0;
  for (const int32_t v : ksum_lanes) ksum_total += v;
  const __m512i offset = _mm512_set1_epi32(128 * ksum_total);
  const int64_t* off = sc.off;
  const int32_t* dword = sc.dword;
  // Blocks store all 16 lanes in ascending output order: a lane past the
  // block's outputs lands on an output that a later block rewrites, so
  // only a block running past the plane's end needs a mask. (A masked store
  // per block made the 48x48 planes about 1.5x slower.)
  const int32_t* out_end = out + oh * ow;
  const auto block = [&](const uint8_t* src, int32_t* dst) {
    // Two accumulators halve the vpdpbusd dependency chain.
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    int64_t q = 0;
    for (; q + 2 <= quads; q += 2) {
      acc0 = _mm512_dpbusd_epi32(
          acc0, permb(idx, _mm512_loadu_si512(src + off[q])),
          _mm512_set1_epi32(dword[q]));
      acc1 = _mm512_dpbusd_epi32(
          acc1, permb(idx, _mm512_loadu_si512(src + off[q + 1])),
          _mm512_set1_epi32(dword[q + 1]));
    }
    if (q < quads) {
      acc0 = _mm512_dpbusd_epi32(
          acc0, permb(idx, _mm512_loadu_si512(src + off[q])),
          _mm512_set1_epi32(dword[q]));
    }
    const __m512i res =
        _mm512_sub_epi32(_mm512_add_epi32(acc0, acc1), offset);
    if (out_end - dst >= 16) {
      _mm512_storeu_si512(dst, res);
    } else {
      _mm512_mask_storeu_epi32(
          dst, static_cast<__mmask16>(lane_range(0, out_end - dst)), res);
    }
  };
  if (ow < 16) {
    for (int64_t oy = 0; oy < oh; oy += rows) {
      block(sc.stage + oy * step, out + oy * ow);
    }
  } else {
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ox += 16) {
        block(sc.stage + oy * step + ox, out + oy * ow + ox);
      }
    }
  }
}

}  // namespace nb::detail
