use fedmigr_tensor::Tensor;

/// A differentiable network layer.
///
/// `forward` must cache whatever activations `backward` needs; `backward`
/// consumes the gradient w.r.t. the layer output and returns the gradient
/// w.r.t. the layer input while accumulating parameter gradients internally.
/// Calling `backward` before `forward` is a programming error and may panic.
///
/// Layers are `Send` so the FL simulator can train clients on worker threads.
pub trait Layer: Send {
    /// Computes the layer output for `input`. `train` distinguishes training
    /// from inference for layers like dropout.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out` (gradient w.r.t. the forward output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the forward input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Like [`Layer::backward`], but for callers that drop the input
    /// gradient: accumulates the same parameter gradients, bit for bit, and
    /// may skip the input-gradient work.
    ///
    /// The default runs `backward` and drops its result.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward(grad_out);
    }

    /// Visits every `(parameter, gradient)` pair, in a stable order.
    ///
    /// The default is a no-op for parameterless layers.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    /// Resets all accumulated parameter gradients to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill_zero());
    }

    /// Total number of scalar parameters in this layer.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.numel());
        n
    }

    /// Human-readable layer name for debugging.
    fn name(&self) -> &'static str;

    /// Clones the layer behind a fresh box (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
