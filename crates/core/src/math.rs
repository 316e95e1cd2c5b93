//! The martingale bounds of the IMM algorithm (Tang, Shi, Xiao — SIGMOD'15).
//!
//! These formulas decide how many RRR sets (θ) are needed for the
//! `(1 - 1/e - ε)` approximation guarantee to hold with probability
//! `1 - 1/n^ℓ`. `run_imm` and the Ripples baseline in `imm-bench` share
//! them verbatim — the paper changes *how* the kernels execute, not the
//! statistics.

/// The confidence exponent ℓ: IMM's guarantee holds with probability at
/// least `1 - 1/n^ℓ`. Every run uses IMM's default, 1.
pub const ELL: f64 = 1.0;

/// Natural log of the binomial coefficient `C(n, k)`.
///
/// Computed as `Σ_{i=0}^{k-1} ln((n - i) / (k - i))`, which is exact enough
/// for the small `k` (tens) used in influence maximization and avoids any
/// dependence on a `lgamma` implementation.
pub fn log_binomial(n: usize, k: usize) -> f64 {
    if k == 0 || k >= n {
        return 0.0;
    }
    // C(n, k) == C(n, n - k); use the smaller side for fewer terms.
    let k = k.min(n - k);
    let mut acc = 0.0f64;
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((k - i) as f64).ln();
    }
    acc
}

/// ε′ = √2 · ε — the tighter parameter the sampling phase targets so the
/// final guarantee still holds after the union bound (Tang et al., §4.1).
pub fn epsilon_prime(epsilon: f64) -> f64 {
    epsilon * std::f64::consts::SQRT_2
}

/// The adjusted confidence exponent ℓ′ = ℓ · (1 + ln 2 / ln n), which spreads
/// the failure probability across the sampling and selection phases.
pub fn adjusted_ell(ell: f64, n: usize) -> f64 {
    if n <= 1 {
        return ell;
    }
    ell * (1.0 + std::f64::consts::LN_2 / (n as f64).ln())
}

/// λ′ — the sampling-phase constant: the number of RRR sets needed at
/// iteration `i` of the sampling phase is `λ′ / x_i` with `x_i = n / 2^i`.
pub fn lambda_prime(n: usize, k: usize, epsilon: f64, ell: f64) -> f64 {
    let n_f = n as f64;
    let eps_p = epsilon_prime(epsilon);
    let log_n = n_f.ln();
    let log_log_n = (n_f.log2()).max(1.0).ln();
    (2.0 + 2.0 / 3.0 * eps_p) * (log_binomial(n, k) + ell * log_n + log_log_n) * n_f
        / (eps_p * eps_p)
}

/// λ* — the final-phase constant: θ = λ* / LB where LB is the lower bound on
/// OPT established by the sampling phase.
pub fn lambda_star(n: usize, k: usize, epsilon: f64, ell: f64) -> f64 {
    let n_f = n as f64;
    let log_n = n_f.ln();
    let one_minus_inv_e = 1.0 - 1.0 / std::f64::consts::E;
    let alpha = (ell * log_n + std::f64::consts::LN_2).sqrt();
    let beta =
        (one_minus_inv_e * (log_binomial(n, k) + ell * log_n + std::f64::consts::LN_2)).sqrt();
    2.0 * n_f * (one_minus_inv_e * alpha + beta).powi(2) / (epsilon * epsilon)
}

/// Number of sampling-phase iterations: ⌈log₂ n⌉ − 1 (at least 1).
pub fn sampling_iterations(n: usize) -> usize {
    if n <= 2 {
        return 1;
    }
    (((n as f64).log2().ceil()) as usize).saturating_sub(1).max(1)
}

/// θ_i — RRR sets required by sampling-phase iteration `i` (1-based).
pub fn theta_for_iteration(n: usize, k: usize, epsilon: f64, ell: f64, iteration: usize) -> usize {
    let x = (n as f64) / 2f64.powi(iteration as i32);
    if x < 1.0 {
        return lambda_prime(n, k, epsilon, ell).ceil() as usize;
    }
    (lambda_prime(n, k, epsilon, ell) / x).ceil() as usize
}

/// Did the sampling phase's greedy cover enough to stop?  The check
/// `n · F(S_i) ≥ (1 + ε′) · x_i` from Algorithm 2 of Tang et al.
pub fn sampling_converged(
    n: usize,
    coverage_fraction: f64,
    epsilon: f64,
    iteration: usize,
) -> bool {
    let x = (n as f64) / 2f64.powi(iteration as i32);
    n as f64 * coverage_fraction >= (1.0 + epsilon_prime(epsilon)) * x
}

/// The OPT lower bound implied by a converged sampling iteration.
pub fn opt_lower_bound(n: usize, coverage_fraction: f64, epsilon: f64) -> f64 {
    (n as f64 * coverage_fraction) / (1.0 + epsilon_prime(epsilon))
}

/// Final θ given the lower bound.
pub fn final_theta(n: usize, k: usize, epsilon: f64, ell: f64, lower_bound: f64) -> usize {
    if lower_bound <= 0.0 {
        return lambda_star(n, k, epsilon, ell).ceil() as usize;
    }
    (lambda_star(n, k, epsilon, ell) / lower_bound).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn log_binomial_small_cases() {
        // C(5,2) = 10
        assert!((log_binomial(5, 2) - 10f64.ln()).abs() < 1e-9);
        // C(10,3) = 120
        assert!((log_binomial(10, 3) - 120f64.ln()).abs() < 1e-9);
        // Degenerate cases.
        assert_eq!(log_binomial(5, 0), 0.0);
        assert_eq!(log_binomial(5, 5), 0.0);
        assert_eq!(log_binomial(3, 7), 0.0);
    }

    #[test]
    fn log_binomial_is_symmetric() {
        for (n, k) in [(100usize, 10usize), (1000, 50), (37, 15)] {
            assert!((log_binomial(n, k) - log_binomial(n, n - k)).abs() < 1e-6);
        }
    }

    #[test]
    fn epsilon_prime_is_sqrt2_epsilon() {
        assert!((epsilon_prime(0.5) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn adjusted_ell_shrinks_with_n() {
        let small = adjusted_ell(1.0, 100);
        let large = adjusted_ell(1.0, 1_000_000);
        assert!(small > large);
        assert!(large > 1.0);
        assert_eq!(adjusted_ell(1.0, 1), 1.0);
    }

    #[test]
    fn lambda_values_grow_with_n() {
        let l1 = lambda_prime(1_000, 50, 0.5, 1.0);
        let l2 = lambda_prime(100_000, 50, 0.5, 1.0);
        assert!(l2 > l1);
        let s1 = lambda_star(1_000, 50, 0.5, 1.0);
        let s2 = lambda_star(100_000, 50, 0.5, 1.0);
        assert!(s2 > s1);
        assert!(l1 > 0.0 && s1 > 0.0);
    }

    #[test]
    fn lambda_values_grow_as_epsilon_shrinks() {
        assert!(lambda_star(10_000, 50, 0.1, 1.0) > lambda_star(10_000, 50, 0.5, 1.0));
        assert!(lambda_prime(10_000, 50, 0.1, 1.0) > lambda_prime(10_000, 50, 0.5, 1.0));
    }

    #[test]
    fn theta_for_iteration_doubles_each_round() {
        let n = 1 << 16;
        let t1 = theta_for_iteration(n, 50, 0.5, 1.0, 1);
        let t2 = theta_for_iteration(n, 50, 0.5, 1.0, 2);
        let t3 = theta_for_iteration(n, 50, 0.5, 1.0, 3);
        assert!(t2 >= 2 * t1 - 2);
        assert!(t3 >= 2 * t2 - 2);
    }

    #[test]
    fn sampling_iteration_count() {
        assert_eq!(sampling_iterations(2), 1);
        assert_eq!(sampling_iterations(1024), 9);
        assert!(sampling_iterations(1_000_000) >= 19);
    }

    #[test]
    fn convergence_check_matches_hand_computation() {
        // n = 1000, iteration 1 -> x = 500. With eps = 0.5, eps' ~ 0.7071;
        // converged iff 1000 * F >= 1.7071 * 500 = 853.55, i.e. F >= 0.8536.
        assert!(!sampling_converged(1000, 0.85, 0.5, 1));
        assert!(sampling_converged(1000, 0.86, 0.5, 1));
        // Later iterations are easier to satisfy.
        assert!(sampling_converged(1000, 0.25, 0.5, 3));
    }

    #[test]
    fn opt_lower_bound_and_final_theta() {
        let lb = opt_lower_bound(1000, 0.9, 0.5);
        assert!(lb > 500.0 && lb < 900.0);
        let theta = final_theta(1000, 10, 0.5, 1.0, lb);
        assert!(theta > 0);
        // A larger lower bound needs fewer samples.
        assert!(final_theta(1000, 10, 0.5, 1.0, lb * 2.0) < theta);
        // Degenerate lower bound falls back to λ*.
        assert_eq!(
            final_theta(1000, 10, 0.5, 1.0, 0.0),
            lambda_star(1000, 10, 0.5, 1.0).ceil() as usize
        );
    }

    proptest! {
        #[test]
        fn log_binomial_is_monotone_in_n(n in 20usize..2000, k in 1usize..10) {
            prop_assert!(log_binomial(n + 1, k) >= log_binomial(n, k));
        }

        #[test]
        fn lambdas_are_finite_and_positive(
            n in 10usize..1_000_000,
            k in 1usize..100,
            eps in 0.05f64..0.9,
        ) {
            let k = k.min(n - 1).max(1);
            let lp = lambda_prime(n, k, eps, 1.0);
            let ls = lambda_star(n, k, eps, 1.0);
            prop_assert!(lp.is_finite() && lp > 0.0);
            prop_assert!(ls.is_finite() && ls > 0.0);
        }
    }
}
