//! Size-adaptive kernel dispatch.
//!
//! The index-structure kernels in [`crate::fast`] win asymptotically but pay
//! constant-factor overhead (tree/set maintenance, the assignment arena) that
//! the cache-resident linear scans don't. Measured on the HTML_18mil
//! size distribution, the quadratic references are *faster* below a
//! per-algorithm crossover — at 10k items the naive first fit beat the
//! segment-tree version 4× in the original `BENCH_packing.json`. This module
//! makes the crossover explicit: [`Kernel::Auto`] consults a
//! [`Calibration`] table and routes each call to whichever implementation is
//! faster at that input size.
//!
//! Because the fast kernels produce **bitwise identical** packings to their
//! naive counterparts (pinned by differential proptests), dispatch is purely
//! a performance decision — the packing never depends on which side ran,
//! so `Auto` is safe anywhere determinism is required.
//!
//! The [`Calibration::DEFAULT`] thresholds are conservative round numbers
//! derived from the measured sweep; `perf_report --calibrate` regenerates the
//! measured crossovers into `results/CALIBRATION_packing.json` for the
//! current host.

use serde::{Deserialize, Serialize};

use crate::item::Item;
use crate::pack::Packing;
use crate::Algorithm;

/// Which implementation of an algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Kernel {
    /// The O(n²)/O(n·bins) reference scan. Fastest for small inputs that fit
    /// in cache; unusable at paper scale.
    Naive,
    /// The O(n log n) index-structure kernel from [`crate::fast`].
    Fast,
    /// Pick per call: naive below the calibrated threshold, fast at or above
    /// it. The default, and what the reshape pipeline uses.
    #[default]
    Auto,
}

/// Per-algorithm crossover thresholds (in items) for [`Kernel::Auto`]:
/// inputs with `len() >= threshold` take the fast kernel, smaller inputs take
/// the naive scan. A threshold of `0` means the fast kernel is never beaten
/// and always runs.
///
/// Only the algorithms with a naive/fast split carry a threshold. The rest
/// (next fit, worst fit, first fit decreasing, uniform-k) have a single
/// implementation, which every `Kernel` resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Calibration {
    /// Crossover for subset-sum first fit.
    pub subset_sum_first_fit: usize,
    /// Crossover for in-order first fit.
    pub first_fit: usize,
    /// Crossover for best fit.
    pub best_fit: usize,
}

impl Calibration {
    /// Documented defaults, derived from the measured sweep on the
    /// HTML_18mil size distribution (see `results/CALIBRATION_packing.json`
    /// and DESIGN.md §12): below ~10⁴ items the cache-resident linear scans
    /// of first and best fit win; those index structures take over in the
    /// tens of thousands and win by 3–5× at 10⁵. The size-class subset-sum
    /// kernel already wins 1.9× at the smallest swept size (1,024 items), so
    /// its threshold is that size. The defaults sit at the measured
    /// crossovers rounded up to powers of two — conservatively high, since
    /// near the crossover both sides are within a few percent of each other.
    pub const DEFAULT: Calibration = Calibration {
        subset_sum_first_fit: 1_024,
        first_fit: 32_768,
        best_fit: 32_768,
    };

    /// Threshold for one algorithm; `None` when the algorithm has a single
    /// implementation and dispatch is moot.
    pub fn threshold(&self, alg: Algorithm) -> Option<usize> {
        match alg {
            Algorithm::SubsetSumFirstFit => Some(self.subset_sum_first_fit),
            Algorithm::FirstFit => Some(self.first_fit),
            Algorithm::BestFit => Some(self.best_fit),
            Algorithm::FirstFitDecreasing | Algorithm::NextFit | Algorithm::WorstFit => None,
        }
    }

    /// The kernel `Auto` resolves to for `alg` at input size `n`.
    pub fn resolve(&self, alg: Algorithm, n: usize) -> Kernel {
        match self.threshold(alg) {
            Some(t) if n < t => Kernel::Naive,
            _ => Kernel::Fast,
        }
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::DEFAULT
    }
}

impl Algorithm {
    /// Run the selected algorithm with an explicit kernel choice.
    ///
    /// `Kernel::Auto` dispatches on `items.len()` against `calibration`;
    /// `Naive`/`Fast` force one side (algorithms without a split run their
    /// single implementation regardless). Output is identical across all
    /// three kernels — dispatch only changes the running time.
    pub fn pack_with(
        self,
        kernel: Kernel,
        calibration: &Calibration,
        items: &[Item],
        capacity: u64,
    ) -> Packing {
        let kernel = match kernel {
            Kernel::Auto => calibration.resolve(self, items.len()),
            k => k,
        };
        match (self, kernel) {
            (Algorithm::SubsetSumFirstFit, Kernel::Naive) => {
                crate::subset_sum::naive_subset_sum_first_fit(items, capacity)
            }
            (Algorithm::FirstFit, Kernel::Naive) => crate::pack::naive_first_fit(items, capacity),
            (Algorithm::BestFit, Kernel::Naive) => crate::pack::naive_best_fit(items, capacity),
            _ => self.pack(items, capacity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: usize) -> Vec<Item> {
        Item::from_sizes(&(0..n as u64).map(|i| (i * 37) % 1000).collect::<Vec<_>>())
    }

    #[test]
    fn default_thresholds_documented() {
        let c = Calibration::default();
        assert_eq!(c.subset_sum_first_fit, 1_024);
        assert_eq!(c.first_fit, 32_768);
        assert_eq!(c.best_fit, 32_768);
    }

    #[test]
    fn resolve_picks_naive_below_threshold() {
        let c = Calibration::DEFAULT;
        assert_eq!(c.resolve(Algorithm::FirstFit, 100), Kernel::Naive);
        assert_eq!(c.resolve(Algorithm::FirstFit, 32_768), Kernel::Fast);
        assert_eq!(
            c.resolve(Algorithm::SubsetSumFirstFit, 16_384),
            Kernel::Fast
        );
        // A zero threshold means the fast kernel always runs.
        let always_fast = Calibration {
            subset_sum_first_fit: 0,
            ..c
        };
        assert_eq!(
            always_fast.resolve(Algorithm::SubsetSumFirstFit, 0),
            Kernel::Fast
        );
    }

    #[test]
    fn single_impl_algorithms_ignore_kernel() {
        let its = items(50);
        for alg in [
            Algorithm::NextFit,
            Algorithm::WorstFit,
            Algorithm::FirstFitDecreasing,
        ] {
            assert_eq!(
                c_pack(alg, Kernel::Naive, &its),
                c_pack(alg, Kernel::Fast, &its)
            );
            assert_eq!(c_pack(alg, Kernel::Auto, &its), alg.pack(&its, 1000));
        }
    }

    fn c_pack(alg: Algorithm, k: Kernel, its: &[Item]) -> Packing {
        alg.pack_with(k, &Calibration::DEFAULT, its, 1000)
    }

    #[test]
    fn all_kernels_agree_for_split_algorithms() {
        let its = items(500);
        for alg in [
            Algorithm::SubsetSumFirstFit,
            Algorithm::FirstFit,
            Algorithm::BestFit,
        ] {
            let naive = c_pack(alg, Kernel::Naive, &its);
            let fast = c_pack(alg, Kernel::Fast, &its);
            let auto = c_pack(alg, Kernel::Auto, &its);
            assert_eq!(naive, fast, "{alg:?} kernels disagree");
            assert_eq!(auto, fast, "{alg:?} auto deviates");
        }
    }

    #[test]
    fn auto_is_the_default_kernel() {
        assert_eq!(Kernel::default(), Kernel::Auto);
    }

    #[test]
    fn calibration_serializes_all_thresholds() {
        let c = Calibration {
            subset_sum_first_fit: 5,
            first_fit: 10_000,
            best_fit: 20_000,
        };
        let json = serde_json::to_string(&c).expect("serialize");
        assert!(json.contains("\"subset_sum_first_fit\":5"));
        assert!(json.contains("\"first_fit\":10000"));
        assert!(json.contains("\"best_fit\":20000"));
    }
}
