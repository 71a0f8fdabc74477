//! Statistical kernels: `erf`, the normal CDF, the paper's
//! `Prob(l, σ, p, δ)` measure, and deterministic normal sampling.

pub mod erf;
pub mod normal;

pub use erf::{erf, erfc};
pub use normal::{
    prob_within_delta, prob_within_delta_axis, sample_std_normal, std_normal_cdf,
    std_normal_interval, Normal1,
};
