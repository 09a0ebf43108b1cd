#include "nn/conv2d.h"

#include <algorithm>

#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/scratch.h"
#include "tensor/threadpool.h"

namespace nb::nn {

Conv2d::Conv2d(const Conv2dOptions& opts) : opts_(opts) {
  NB_CHECK(opts.in_channels > 0 && opts.out_channels > 0, "conv channels");
  NB_CHECK(opts.kernel > 0 && opts.stride > 0 && opts.padding >= 0,
           "conv geometry");
  NB_CHECK(opts.groups > 0 && opts.in_channels % opts.groups == 0 &&
               opts.out_channels % opts.groups == 0,
           "conv groups must divide channels");
  weight_ = Parameter(
      Tensor({opts.out_channels, opts.in_channels / opts.groups, opts.kernel,
              opts.kernel}),
      /*decay_flag=*/true);
  if (opts.bias) {
    bias_ = Parameter(Tensor({opts.out_channels}), /*decay_flag=*/false);
  }
}

std::vector<std::pair<std::string, Parameter*>> Conv2d::local_params() {
  std::vector<std::pair<std::string, Parameter*>> out;
  out.emplace_back("weight", &weight_);
  if (opts_.bias) out.emplace_back("bias", &bias_);
  return out;
}

Tensor Conv2d::forward(const Tensor& x) {
  NB_CHECK(x.dim() == 4, "Conv2d expects NCHW input");
  NB_CHECK(x.size(1) == opts_.in_channels,
           "Conv2d channel mismatch: got " + x.shape_str());
  input_ = x;
  last_h_ = x.size(2);
  last_w_ = x.size(3);
  if (is_depthwise()) return forward_depthwise(x);
  return forward_generic(x);
}

Tensor Conv2d::forward_generic(const Tensor& x) {
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t k = opts_.kernel, g = opts_.groups;
  const int64_t cin_g = opts_.in_channels / g;
  const int64_t cout_g = opts_.out_channels / g;
  const int64_t oh = conv_out_size(h, k, opts_.stride, opts_.padding);
  const int64_t ow = conv_out_size(w, k, opts_.stride, opts_.padding);
  NB_CHECK(oh > 0 && ow > 0, "Conv2d output is empty for input " + x.shape_str());

  Tensor y({n, opts_.out_channels, oh, ow});
  const int64_t col_rows = cin_g * k * k;
  const int64_t plane = oh * ow;
  // The column matrix lives in the thread-local arena: one allocation per
  // thread for the whole training run instead of one per forward call.
  float* cols = scratch_acquire(ScratchSlot::kConvCols,
                                static_cast<size_t>(col_rows * plane));

  for (int64_t i = 0; i < n; ++i) {
    for (int64_t gi = 0; gi < g; ++gi) {
      const float* img = x.data() + (i * opts_.in_channels + gi * cin_g) * h * w;
      im2col(img, cin_g, h, w, k, k, opts_.stride, opts_.stride, opts_.padding,
             opts_.padding, cols);
      float* out = y.data() + (i * opts_.out_channels + gi * cout_g) * plane;
      const float* wgt = weight_.value.data() + gi * cout_g * col_rows;
      gemm(false, false, cout_g, plane, col_rows, 1.0f, wgt, cols, 0.0f, out);
    }
    if (opts_.bias) {
      for (int64_t c = 0; c < opts_.out_channels; ++c) {
        float* out = y.data() + (i * opts_.out_channels + c) * plane;
        const float b = bias_.value.at(c);
        for (int64_t p = 0; p < plane; ++p) out[p] += b;
      }
    }
  }
  return y;
}

Tensor Conv2d::forward_depthwise(const Tensor& x) {
  const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const int64_t k = opts_.kernel;
  const int64_t oh = conv_out_size(h, k, opts_.stride, opts_.padding);
  const int64_t ow = conv_out_size(w, k, opts_.stride, opts_.padding);
  NB_CHECK(oh > 0 && ow > 0, "Conv2d output is empty for input " + x.shape_str());
  Tensor y({n, c, oh, ow});
  // Each (image, channel) plane is independent; parallelize across them with
  // a grain that keeps at least ~16k outputs per chunk.
  const int64_t planes = n * c;
  const int64_t grain =
      std::max<int64_t>(1, (int64_t{1} << 14) / std::max<int64_t>(oh * ow, 1));
  // NCHW plane pl = i*c + ch uses channel pl % c.
  const float* bias = opts_.bias ? bias_.value.data() : nullptr;
  parallel_for(planes, grain, [&](int64_t p0, int64_t p1) {
    depthwise_planes(x.data(), weight_.value.data(), bias, y.data(), p0, p1,
                     DwPlaneMap{1, c}, h, w, oh, ow, k, opts_.stride,
                     opts_.padding);
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  NB_CHECK(input_.defined(), "Conv2d::backward before forward");
  if (is_depthwise()) return backward_depthwise(grad_out);
  return backward_generic(grad_out);
}

Tensor Conv2d::backward_generic(const Tensor& grad_out) {
  const Tensor& x = input_;
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t k = opts_.kernel, g = opts_.groups;
  const int64_t cin_g = opts_.in_channels / g;
  const int64_t cout_g = opts_.out_channels / g;
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  const int64_t plane = oh * ow;
  const int64_t col_rows = cin_g * k * k;

  Tensor grad_in(x.shape());
  float* cols = scratch_acquire(ScratchSlot::kConvCols,
                                static_cast<size_t>(col_rows * plane));
  float* gcols = scratch_acquire(ScratchSlot::kConvGradCols,
                                 static_cast<size_t>(col_rows * plane));

  for (int64_t i = 0; i < n; ++i) {
    for (int64_t gi = 0; gi < g; ++gi) {
      const float* img = x.data() + (i * opts_.in_channels + gi * cin_g) * h * w;
      const float* gout =
          grad_out.data() + (i * opts_.out_channels + gi * cout_g) * plane;
      float* wgrad = weight_.grad.data() + gi * cout_g * col_rows;
      const float* wgt = weight_.value.data() + gi * cout_g * col_rows;

      // dW += dY * cols^T  (recompute im2col; trades FLOPs for memory)
      im2col(img, cin_g, h, w, k, k, opts_.stride, opts_.stride, opts_.padding,
             opts_.padding, cols);
      gemm(false, true, cout_g, col_rows, plane, 1.0f, gout, cols, 1.0f,
           wgrad);

      // dX = col2im(W^T * dY)
      gemm(true, false, col_rows, plane, cout_g, 1.0f, wgt, gout, 0.0f, gcols);
      float* gin = grad_in.data() + (i * opts_.in_channels + gi * cin_g) * h * w;
      col2im(gcols, cin_g, h, w, k, k, opts_.stride, opts_.stride,
             opts_.padding, opts_.padding, gin);
    }
    if (opts_.bias) {
      for (int64_t c = 0; c < opts_.out_channels; ++c) {
        const float* gout = grad_out.data() + (i * opts_.out_channels + c) * plane;
        double s = 0.0;
        for (int64_t p = 0; p < plane; ++p) s += gout[p];
        bias_.grad.at(c) += static_cast<float>(s);
      }
    }
  }
  return grad_in;
}

Tensor Conv2d::backward_depthwise(const Tensor& grad_out) {
  const Tensor& x = input_;
  const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const int64_t k = opts_.kernel;
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor grad_in(x.shape());
  // Parallelize over channels, not planes: a channel owns its weight/bias
  // gradient slots, so per-channel chunks are race-free, and the serial batch
  // loop inside keeps the accumulation order thread-count-invariant.
  parallel_for(c, /*grain=*/1, [&](int64_t c0, int64_t c1) {
    for (int64_t ch = c0; ch < c1; ++ch) {
      const float* ker = weight_.value.data() + ch * k * k;
      float* kgrad = weight_.grad.data() + ch * k * k;
      for (int64_t i = 0; i < n; ++i) {
        const float* img = x.data() + (i * c + ch) * h * w;
        const float* gout = grad_out.data() + (i * c + ch) * oh * ow;
        float* gin = grad_in.data() + (i * c + ch) * h * w;
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox) {
            // No zero-skip on gv: 0 * NaN must stay NaN in both gradients
            // (same accumulation policy as gemm/gemv, see gemm.h).
            const float gv = gout[oy * ow + ox];
            for (int64_t ki = 0; ki < k; ++ki) {
              const int64_t iy = oy * opts_.stride + ki - opts_.padding;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kj = 0; kj < k; ++kj) {
                const int64_t ix = ox * opts_.stride + kj - opts_.padding;
                if (ix < 0 || ix >= w) continue;
                kgrad[ki * k + kj] += gv * img[iy * w + ix];
                gin[iy * w + ix] += gv * ker[ki * k + kj];
              }
            }
          }
        }
        if (opts_.bias) {
          double s = 0.0;
          for (int64_t p = 0; p < oh * ow; ++p) s += gout[p];
          bias_.grad.at(ch) += static_cast<float>(s);
        }
      }
    }
  });
  return grad_in;
}

int64_t Conv2d::flops(int64_t in_h, int64_t in_w) const {
  const int64_t oh = conv_out_size(in_h, opts_.kernel, opts_.stride, opts_.padding);
  const int64_t ow = conv_out_size(in_w, opts_.kernel, opts_.stride, opts_.padding);
  const int64_t macs = oh * ow * opts_.out_channels *
                       (opts_.in_channels / opts_.groups) * opts_.kernel *
                       opts_.kernel;
  return 2 * macs;
}

}  // namespace nb::nn
