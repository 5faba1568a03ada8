//! The benchmark's own arithmetic on hand-made inputs.

use hm_perfbench::stats::{cost_growth, percentile, tail, Outcomes, MIN_BEYOND};

/// [`cost_growth`] of a per-step host-cost series split at its midpoint
/// (an odd middle step belongs to neither half).
fn cost_growth_of_series(costs: &[f64]) -> f64 {
    let half = costs.len() / 2;
    let first: f64 = costs[..half].iter().sum();
    let second: f64 = costs[costs.len() - half..].iter().sum();
    cost_growth(first, second)
}

fn ascending(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentile_is_nearest_rank_with_counts() {
    let s = ascending(100);
    let p50 = percentile(&s, 50.0).unwrap();
    assert_eq!((p50.value, p50.count, p50.beyond), (50.0, 100, 50));
    let p99 = percentile(&s, 99.0).unwrap();
    assert_eq!((p99.value, p99.beyond), (99.0, 1));
    assert_eq!(percentile(&s, 100.0).unwrap().value, 100.0);
    assert_eq!(percentile(&[7.0], 50.0).unwrap().value, 7.0);
    assert!(percentile(&[], 50.0).is_none());
}

#[test]
fn tail_picks_highest_percentile_with_ten_samples_beyond() {
    // 100 samples: p90 has 10 beyond, p99 only 1.
    let t = tail(&ascending(100)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
    // 1 000 samples: p99 has exactly 10 beyond, p99.9 only 1.
    let t = tail(&ascending(1_000)).unwrap();
    assert_eq!((t.pct, t.count, t.beyond), (99.0, 1_000, MIN_BEYOND));
    // 100 000 samples: p99.99 has 10 beyond.
    let t = tail(&ascending(100_000)).unwrap();
    assert_eq!((t.pct, t.beyond), (99.99, 10));
    // Too few for even the median.
    assert!(tail(&ascending(19)).is_none());
    assert_eq!(tail(&ascending(20)).unwrap().pct, 50.0);
}

#[test]
fn cost_growth_of_flat_and_growing_series() {
    // Flat host cost per step: no growth.
    assert_eq!(cost_growth_of_series(&[2.0; 1_000]), 1.0);
    // Cost per step proportional to the state accumulated so far (the
    // quadratic the benchmark must see): second half ≈ 3× the first.
    let linear: Vec<f64> = (0..10_000).map(|i| i as f64 + 0.5).collect();
    let g = cost_growth_of_series(&linear);
    assert!((g - 3.0).abs() < 1e-3, "{g}");
    // A fixed cost plus the same growth reads lower, but still above 1.
    let mixed: Vec<f64> = linear.iter().map(|c| c + 5_000.0).collect();
    let g = cost_growth_of_series(&mixed);
    assert!(g > 1.5 && g < 3.0, "{g}");
    // An odd middle step belongs to neither half.
    assert_eq!(cost_growth_of_series(&[1.0, 100.0, 1.0]), 1.0);
    assert_eq!(cost_growth(0.5, 1.0), 2.0);
}

#[test]
fn failed_frac_counts_undrained_requests() {
    let o = Outcomes {
        attempted: 200,
        completed: 190,
        errors: 4,
        undrained: 6,
        content_failures: 0,
    };
    assert_eq!(o.failed(), 10);
    assert_eq!(o.failed_frac(), 0.05);
    let checks = Outcomes {
        content_failures: 10,
        ..o
    };
    assert_eq!(checks.failed_frac(), 0.1);
    assert_eq!(
        Outcomes::default().failed_frac(),
        1.0,
        "an empty window is not a clean one"
    );
    let clean = Outcomes {
        attempted: 5,
        completed: 5,
        ..Outcomes::default()
    };
    assert_eq!(clean.failed_frac(), 0.0);
}
