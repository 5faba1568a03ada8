//! The benchmark's own arithmetic: percentiles with sample counts, the
//! host-cost growth ratio, the failure fraction and the work fingerprint.
//!
//! Kept free of any simulation state so `tests/math.rs` can pin each rule
//! on hand-made inputs.

/// Percentiles the reporter may choose from, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise its value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pctl {
    /// Which percentile (e.g. `99.0`).
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples in the set.
    pub count: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the set at or below it. `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], pct: f64) -> Option<Pctl> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    Some(Pctl {
        pct,
        value: sorted[idx],
        count: n,
        beyond: n - idx - 1,
    })
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it. `None` when not even the median qualifies.
#[must_use]
pub fn tail(sorted: &[f64]) -> Option<Pctl> {
    LADDER
        .iter()
        .rev()
        .filter_map(|&p| percentile(sorted, p))
        .find(|p| p.beyond >= MIN_BEYOND)
}

/// Host seconds of the second half of the measured window over the first.
/// The arrival rate is constant, so 1.0 means a flat host cost per request
/// and anything above it is growth.
#[must_use]
pub fn cost_growth(first_half_s: f64, second_half_s: f64) -> f64 {
    second_half_s / first_half_s.max(f64::MIN_POSITIVE)
}

/// Request outcomes of one measured window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests started in the measured window.
    pub attempted: u64,
    /// Requests that returned a result.
    pub completed: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Requests still in flight when the drain grace period ran out.
    pub undrained: u64,
    /// Reads whose value failed the content check.
    pub content_failures: u64,
}

impl Outcomes {
    /// Everything that counts as failed: errors, requests never drained
    /// and failed content checks.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.errors + self.undrained + self.content_failures
    }

    /// [`Outcomes::failed`] over attempted; 1.0 when nothing was attempted,
    /// so an empty run never reads as a clean one.
    #[must_use]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

/// Folds one word into a running fingerprint (SplitMix64 finaliser).
#[must_use]
pub fn mix(acc: u64, word: u64) -> u64 {
    let mut z = acc
        ^ word
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(acc << 6);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
