use fedmigr_tensor::Tensor;

use crate::Layer;

/// An ordered stack of layers, itself a [`Layer`], so it can be nested (the
/// residual block uses a `Sequential` for its convolution path).
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer, builder-style.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Runs `backward` on every layer but the first, and `backward_params`
    /// on the first, whose input gradient nothing reads.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = grad_out.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g);
        }
        first.backward_params(&g);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};

    #[test]
    fn forward_composes_layers() {
        let mut net =
            Sequential::new().push(Dense::new(4, 8, 0)).push(Relu::new()).push(Dense::new(8, 2, 1));
        let x = Tensor::ones(&[3, 4]);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[3, 2]);
    }

    #[test]
    fn param_count_sums_over_layers() {
        let mut net = Sequential::new().push(Dense::new(4, 8, 0)).push(Dense::new(8, 2, 1));
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn backward_runs_in_reverse() {
        let mut net = Sequential::new().push(Dense::new(4, 4, 0)).push(Relu::new());
        let x = Tensor::ones(&[2, 4]);
        let y = net.forward(&x, true);
        let g = net.backward(&Tensor::ones(y.shape()));
        assert_eq!(g.shape(), &[2, 4]);
    }
}
