use fedmigr_tensor::kcount::{self, Kernel};
use fedmigr_tensor::Tensor;

use crate::Layer;

/// Adam optimizer (Kingma & Ba): per-parameter adaptive learning rates from
/// exponential moving averages of the gradient and its square, with bias
/// correction.
///
/// The FL clients in the paper use plain SGD (kept as the default), but the
/// DRL actor/critic and standalone users benefit from Adam's robustness to
/// gradient scale.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate α.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Numerical-stability constant ε.
    pub eps: f32,
    /// L2 weight decay added to gradients before the update.
    pub weight_decay: f32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    t: u64,
}

impl Adam {
    /// Adam with standard (0.9, 0.999) moment decays.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Sets L2 weight decay, builder-style.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one Adam update to every parameter of `model` using its
    /// accumulated gradients.
    pub fn step(&mut self, model: &mut dyn Layer) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        model.visit_params(&mut |p: &mut Tensor, g: &mut Tensor| {
            if ms.len() <= idx {
                ms.push(vec![0.0; p.numel()]);
                vs.push(vec![0.0; p.numel()]);
            }
            let m = &mut ms[idx];
            let v = &mut vs[idx];
            assert_eq!(m.len(), p.numel(), "parameter shape changed between steps");
            let _k = kcount::scope(Kernel::Optimizer, 12 * p.numel() as u64, 28 * p.numel() as u64);
            for (((pv, gv), mi), vi) in
                p.data_mut().iter_mut().zip(g.data()).zip(m.iter_mut()).zip(v.iter_mut())
            {
                let grad = gv + wd * *pv;
                *mi = b1 * *mi + (1.0 - b1) * grad;
                *vi = b2 * *vi + (1.0 - b2) * grad * grad;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *pv -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }

    /// Drops all moment state (e.g. after parameters are replaced
    /// wholesale by a migration or aggregation).
    pub fn reset_state(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::param_vector;
    use crate::{softmax_cross_entropy, zoo};

    #[test]
    fn first_step_moves_by_roughly_lr() {
        // With bias correction, the first Adam step has magnitude ~lr
        // regardless of gradient scale.
        let mut model = zoo::mlp(2, &[], 2, 0);
        model.net_mut().visit_params(&mut |p, g| {
            p.fill_zero();
            g.data_mut().fill(1000.0); // Huge gradient.
        });
        let mut opt = Adam::new(0.1);
        opt.step(model.net_mut());
        let w = param_vector(model.net_mut());
        assert!(w.iter().all(|&x| (x + 0.1).abs() < 1e-3), "{w:?}");
    }

    #[test]
    fn optimizes_a_small_classifier_faster_than_tiny_sgd() {
        let x = Tensor::from_vec(
            vec![4, 4],
            vec![
                2.0, 0.0, 0.0, 0.0, //
                0.0, 2.0, 0.0, 0.0, //
                0.0, 0.0, 2.0, 0.0, //
                0.0, 0.0, 0.0, 2.0,
            ],
        );
        let labels = [0usize, 0, 1, 1];
        let mut model = zoo::mlp(4, &[8], 2, 1);
        let mut opt = Adam::new(0.05);
        for _ in 0..60 {
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            model.net_mut().zero_grad();
            model.net_mut().backward_params(&grad);
            opt.step(model.net_mut());
        }
        let (loss, acc) = model.evaluate(&x, &labels);
        assert!(acc == 1.0 && loss < 0.2, "loss {loss} acc {acc}");
    }

    #[test]
    fn reset_state_clears_moments() {
        let mut model = zoo::mlp(2, &[], 2, 0);
        let mut opt = Adam::new(0.1);
        model.net_mut().visit_params(&mut |_, g| g.data_mut().fill(1.0));
        opt.step(model.net_mut());
        assert!(opt.t > 0);
        opt.reset_state();
        assert_eq!(opt.t, 0);
        assert!(opt.m.is_empty() && opt.v.is_empty());
    }
}
