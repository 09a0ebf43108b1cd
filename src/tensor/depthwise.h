// Direct depthwise convolution of (H,W) planes — no im2col, no GEMM.
// Shared by Conv2d's depthwise fast path and the FlatModel inference
// runtime. Taps accumulate in ascending (ki, kj) order after the bias, one
// rounded multiply then one rounded add per tap (depthwise.cpp and
// depthwise_avx512.cpp are built with -ffp-contract=off so no build fuses
// them into FMAs), the same order for border
// and interior outputs, so splitting a plane changes nothing numerically
// and results are bitwise identical to the naive loop.
#pragma once

#include <cstdint>

namespace nb {

/// out[oh, ow] = bias + sum_{ki,kj} ker[ki,kj] * img[oy*s+ki-pad, ox*s+kj-pad]
/// with zero padding. `ker` is a k*k row-major kernel. Kernel sizes 3 and 5
/// dispatch to fully unrolled tap loops.
void depthwise_plane(const float* img, const float* ker, float* out,
                     int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t k,
                     int64_t s, int64_t pad, float bias);

/// Which channel each plane of a plane-major buffer belongs to: plane pl is
/// channel (pl / per_channel) % channels. per_channel = batch covers the
/// serving runtime's batch-interleaved [C, N*H*W] layout (ch = pl / n);
/// per_channel = 1 covers NCHW (ch = pl % c).
struct DwPlaneMap {
  int64_t per_channel = 1;
  int64_t channels = 1;
  int64_t channel(int64_t pl) const { return (pl / per_channel) % channels; }
};

/// Planes [p0, p1) of a plane-major buffer at once: plane pl reads the
/// (h, w) plane at img + pl*h*w and writes the (oh, ow) plane at
/// out + pl*oh*ow with the kernel ker + ch*k*k and bias bias[ch] (0 when
/// `bias` is null), ch = map.channel(pl). Every output is bitwise equal to
/// depthwise_plane's for that plane. Runtime-dispatched: the AVX-512
/// instance puts 16 planes in the lanes of one vector, staged in the
/// thread's ScratchSlot::kDepthwiseLanes.
void depthwise_planes(const float* img, const float* ker, const float* bias,
                      float* out, int64_t p0, int64_t p1, DwPlaneMap map,
                      int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t k,
                      int64_t s, int64_t pad);

/// Name of the depthwise_planes instance chosen at runtime
/// ("dw-f32-avx512" or "dw-f32-generic").
const char* depthwise_kernel_name();

/// Test hooks: every compiled depthwise_planes instance this CPU can
/// execute, generic (depthwise_plane per plane) first and the dispatched
/// one last.
int depthwise_instance_count();
const char* depthwise_instance_name(int i);
/// Runs instance i with the same contract as depthwise_planes.
void depthwise_run_instance(int i, const float* img, const float* ker,
                            const float* bias, float* out, int64_t p0,
                            int64_t p1, DwPlaneMap map, int64_t h, int64_t w,
                            int64_t oh, int64_t ow, int64_t k, int64_t s,
                            int64_t pad);

/// Integer twin for the int8 inference path: `img` holds offset-u8 levels
/// (level + 128), `ker` int8 weight levels, and every output is the EXACT
/// int32 sum of ker * (img - 128) over the in-bounds taps — out-of-bounds
/// taps are offset level 0 and contribute nothing, matching the float
/// path's zero padding. No bias and no scaling here; the caller fuses the
/// requantize epilogue into its store. Exact integers mean the result is
/// bitwise invariant to plane splitting, tap order, and ISA. The AVX-512
/// instance stages the plane in the thread's ScratchSlot::kDepthwiseStage.
void depthwise_plane_s8(const uint8_t* img, const int8_t* ker, int32_t* out,
                        int64_t h, int64_t w, int64_t oh, int64_t ow,
                        int64_t k, int64_t s, int64_t pad);

/// Name of the depthwise_plane_s8 instance chosen at runtime
/// ("dw-s8-avx512", "dw-s8-avx2" or "dw-s8-generic").
const char* depthwise_s8_kernel_name();

/// Test hooks: every compiled instance this CPU can execute, generic first
/// and the dispatched one last. "dw-s8-avx2" is the AVX2 stride-1 interior
/// with generic loops for every other plane.
int depthwise_s8_instance_count();
const char* depthwise_s8_instance_name(int i);
/// Runs instance i with the same contract as depthwise_plane_s8.
void depthwise_s8_run_instance(int i, const uint8_t* img, const int8_t* ker,
                               int32_t* out, int64_t h, int64_t w, int64_t oh,
                               int64_t ow, int64_t k, int64_t s, int64_t pad);

}  // namespace nb
