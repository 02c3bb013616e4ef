use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::{he_std, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Layer;

/// A 2-D convolution over `[B, C, H, W]` inputs, implemented with im2col.
///
/// Weights are stored as a `[C*KH*KW, OC]` matrix so both the forward pass
/// and the weight gradient reduce to a single matrix multiply.
#[derive(Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_cols: Option<Tensor>,
    cached_input_shape: Vec<usize>,
}

impl Conv2d {
    /// Creates a convolution with He-initialized weights.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let patch = in_channels * kernel * kernel;
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight: Tensor::randn(&[patch, out_channels], he_std(patch), &mut rng),
            bias: Tensor::zeros(&[out_channels]),
            grad_weight: Tensor::zeros(&[patch, out_channels]),
            grad_bias: Tensor::zeros(&[out_channels]),
            cached_cols: None,
            cached_input_shape: Vec::new(),
        }
    }

    /// Output spatial size for an input spatial size.
    pub fn out_size(&self, in_size: usize) -> usize {
        (in_size + 2 * self.padding - self.kernel) / self.stride + 1
    }

    fn im2col(&self, input: &Tensor) -> Tensor {
        let [b, c, h, w] = four(input.shape());
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let patch = c * k * k;
        let _k = kcount::scope(
            Kernel::Im2col,
            0,
            4 * (input.numel() as u64 + (b * oh * ow * patch) as u64),
        );
        let mut cols = vec![0.0f32; b * oh * ow * patch];
        let data = input.data();
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((bi * oh + oy) * ow + ox) * patch;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = (oy * s + ky) as isize - p as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            let src = ((bi * c + ci) * h + iy as usize) * w;
                            let dst = row + (ci * k + ky) * k;
                            for kx in 0..k {
                                let ix = (ox * s + kx) as isize - p as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                cols[dst + kx] = data[src + ix as usize];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(vec![b * oh * ow, patch], cols)
    }

    fn col2im(&self, grad_cols: &Tensor) -> Tensor {
        let [b, c, h, w] = four(&self.cached_input_shape);
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let patch = c * k * k;
        let _k = kcount::scope(
            Kernel::Col2im,
            grad_cols.numel() as u64,
            4 * (grad_cols.numel() as u64 + (b * c * h * w) as u64),
        );
        let mut out = Tensor::zeros(&[b, c, h, w]);
        let dst = out.data_mut();
        let g = grad_cols.data();
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((bi * oh + oy) * ow + ox) * patch;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = (oy * s + ky) as isize - p as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            let base = ((bi * c + ci) * h + iy as usize) * w;
                            let src = row + (ci * k + ky) * k;
                            for kx in 0..k {
                                let ix = (ox * s + kx) as isize - p as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                dst[base + ix as usize] += g[src + kx];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Accumulates dW and db for `grad_out: [B, OC, OH, OW]` and returns
    /// that gradient rearranged to `[B*OH*OW, OC]`.
    fn param_grads(&mut self, grad_out: &Tensor) -> Tensor {
        let cols = self.cached_cols.as_ref().expect("Conv2d::backward called before forward");
        let [b, oc, oh, ow] = four(grad_out.shape());
        assert_eq!(oc, self.out_channels);
        // Rearrange grad [B, OC, OH, OW] -> [B*OH*OW, OC].
        let rearrange = kcount::scope(Kernel::Transpose, 0, 8 * (b * oh * ow * oc) as u64);
        let mut g2 = vec![0.0f32; b * oh * ow * oc];
        let src = grad_out.data();
        for bi in 0..b {
            for co in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        g2[((bi * oh + oy) * ow + ox) * oc + co] =
                            src[((bi * oc + co) * oh + oy) * ow + ox];
                    }
                }
            }
        }
        let g2 = Tensor::from_vec(vec![b * oh * ow, oc], g2);
        drop(rearrange);
        self.grad_weight.add_assign(&cols.matmul_tn(&g2));
        for r in 0..g2.rows() {
            let row = g2.row(r);
            for (g, &gv) in self.grad_bias.data_mut().iter_mut().zip(row) {
                *g += gv;
            }
        }
        g2
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let [b, c, h, w] = four(input.shape());
        assert_eq!(c, self.in_channels, "Conv2d channel mismatch");
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let cols = self.im2col(input);
        let mut out2 = cols.matmul(&self.weight); // [B*OH*OW, OC]
        let oc = self.out_channels;
        let bias = self.bias.data();
        for r in 0..out2.rows() {
            let row = &mut out2.data_mut()[r * oc..(r + 1) * oc];
            for (v, &bv) in row.iter_mut().zip(bias) {
                *v += bv;
            }
        }
        // Rearrange [B*OH*OW, OC] -> [B, OC, OH, OW].
        let _k = kcount::scope(Kernel::Transpose, 0, 8 * (b * oc * oh * ow) as u64);
        let mut out = vec![0.0f32; b * oc * oh * ow];
        let src = out2.data();
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    let r = ((bi * oh + oy) * ow + ox) * oc;
                    for co in 0..oc {
                        out[((bi * oc + co) * oh + oy) * ow + ox] = src[r + co];
                    }
                }
            }
        }
        self.cached_cols = Some(cols);
        self.cached_input_shape = input.shape().to_vec();
        Tensor::from_vec(vec![b, oc, oh, ow], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g2 = self.param_grads(grad_out);
        let grad_cols = g2.matmul(&self.weight.transpose2());
        self.col2im(&grad_cols)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.param_grads(grad_out);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

fn four(shape: &[usize]) -> [usize; 4] {
    assert_eq!(shape.len(), 4, "expected a 4-D tensor, got shape {shape:?}");
    [shape[0], shape[1], shape[2], shape[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_follows_conv_arithmetic() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 0);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);

        let mut conv = Conv2d::new(1, 4, 5, 1, 0, 0);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        assert_eq!(conv.forward(&x, true).shape(), &[1, 4, 4, 4]);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and bias 0 is the identity on one channel.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 0);
        let mut first = true;
        conv.visit_params(&mut |p, _| {
            // Weight <- 1 (first visited), bias <- 0.
            let v = if first { 1.0 } else { 0.0 };
            first = false;
            p.data_mut().fill(v);
        });
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x, true);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn numerical_gradient_check_small_conv() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let eps = 1e-2f32;

        let y = conv.forward(&x, true);
        conv.zero_grad();
        let gx = conv.backward(&Tensor::ones(y.shape()));

        // Input gradient spot-check on a handful of positions.
        for &i in &[0usize, 5, 13, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (conv.forward(&xp, true).sum() - conv.forward(&xm, true).sum()) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 5e-2,
                "input grad mismatch at {i}: {num} vs {}",
                gx.data()[i]
            );
        }

        // Weight gradient spot-check.
        let mut analytic = Vec::new();
        conv.visit_params(&mut |_, g| analytic.extend_from_slice(g.data()));
        fn bump(conv: &mut Conv2d, i: usize, delta: f32) {
            let mut first = true;
            conv.visit_params(&mut |p, _| {
                if first {
                    p.data_mut()[i] += delta;
                    first = false;
                }
            });
        }
        for &i in &[0usize, 7, 20] {
            bump(&mut conv, i, eps);
            let fp = conv.forward(&x, true).sum();
            bump(&mut conv, i, -2.0 * eps);
            let fm = conv.forward(&x, true).sum();
            bump(&mut conv, i, eps);
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - analytic[i]).abs() < 5e-2,
                "weight grad mismatch at {i}: {num} vs {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn padding_zero_extends_borders() {
        // A 3x3 all-ones kernel on a 1x1 input with padding 1 just copies the
        // single input value to the single output location.
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0);
        conv.visit_params(&mut |p, _| {
            if p.numel() == 9 {
                p.data_mut().fill(1.0);
            }
        });
        let x = Tensor::from_vec(vec![1, 1, 1, 1], vec![2.5]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 2.5);
    }
}
