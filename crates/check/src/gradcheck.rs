//! Central-finite-difference gradient checking for tape graphs.
//!
//! A builder closure records the same graph onto any tape it is handed;
//! the harness runs it once for reverse-mode gradients and `2·N` more
//! times (one ± pair per input element) for numeric derivatives, then
//! compares element-wise under a relative tolerance sized for `f32`.

use em_nn::{Matrix, Tape, TapeExec, Var};

/// Why a [`gradcheck`] failed.
#[derive(Debug, Clone)]
pub struct GradCheckFailure {
    /// Index of the offending input matrix.
    pub input: usize,
    /// Flat element index within that input.
    pub element: usize,
    /// Reverse-mode gradient.
    pub analytic: f32,
    /// Central-difference estimate.
    pub numeric: f32,
    /// Relative error that exceeded the tolerance.
    pub rel_err: f32,
}

impl std::fmt::Display for GradCheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gradcheck: input {} element {}: analytic {} vs numeric {} (rel err {})",
            self.input, self.element, self.analytic, self.numeric, self.rel_err
        )
    }
}

/// Relative error with an absolute floor so near-zero gradients compare
/// under an absolute tolerance instead of blowing up.
fn rel_err(a: f32, b: f32) -> f32 {
    (a - b).abs() / 1.0f32.max(a.abs()).max(b.abs())
}

/// Check reverse-mode gradients of `build` against central finite
/// differences at `inputs`.
///
/// `build` receives a fresh tape and one constant-leaf [`Var`] per input
/// matrix and must return a scalar loss var; it is called `2·N + 1`
/// times, so it must be deterministic (seed any RNG it uses internally —
/// that is how dropout is gradchecked). `eps` is the perturbation step;
/// `tol` the max relative error. Returns the worst relative error seen.
pub fn gradcheck<F>(
    inputs: &[Matrix],
    build: F,
    eps: f32,
    tol: f32,
) -> Result<f32, GradCheckFailure>
where
    F: Fn(&mut Tape, &[Var]) -> Var,
{
    // Reverse-mode pass.
    let mut tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|m| tape.constant(m.clone())).collect();
    let loss = build(&mut tape, &vars);
    tape.backward(loss);
    let analytic: Vec<Matrix> = vars.iter().map(|&v| tape.grad(v)).collect();

    let eval = |mats: &[Matrix]| -> f32 {
        let mut t = Tape::new();
        let vs: Vec<Var> = mats.iter().map(|m| t.constant(m.clone())).collect();
        let l = build(&mut t, &vs);
        t.value(l).item()
    };

    let mut worst = 0.0f32;
    for (i, input) in inputs.iter().enumerate() {
        for j in 0..input.len() {
            let mut plus: Vec<Matrix> = inputs.to_vec();
            plus[i].data_mut()[j] += eps;
            let mut minus: Vec<Matrix> = inputs.to_vec();
            minus[i].data_mut()[j] -= eps;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let a = analytic[i].data()[j];
            let err = rel_err(a, numeric);
            if err > tol {
                return Err(GradCheckFailure {
                    input: i,
                    element: j,
                    analytic: a,
                    numeric,
                    rel_err: err,
                });
            }
            worst = worst.max(err);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_on_a_simple_chain() {
        let a = Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.25]);
        let worst = gradcheck(
            &[a],
            |t, vs| {
                let h = t.tanh(vs[0]);
                t.mean_all(h)
            },
            1e-2,
            1e-2,
        )
        .expect("tanh chain must gradcheck");
        assert!(worst < 1e-2);
    }

    #[test]
    fn catches_a_wrong_gradient() {
        // grad_reverse is identity forward but flips the gradient sign, so
        // comparing against forward finite differences must fail — which
        // doubles as proof the harness detects wrong gradients.
        let a = Matrix::from_vec(1, 2, vec![1.0, -2.0]);
        let r = gradcheck(
            &[a],
            |t, vs| {
                let h = t.grad_reverse(vs[0], 1.0);
                t.mean_all(h)
            },
            1e-2,
            1e-2,
        );
        assert!(r.is_err(), "sign-flipped gradient must be detected");
    }
}
