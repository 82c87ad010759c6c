//! The estimator: position-wise noise-floor series.
//!
//! Every replica of a run executes the same positions (steps, refreshes,
//! setup stages) on the same inputs. On a shared machine interference only
//! ever *adds* time — a neighbour slows the core for seconds at a stretch —
//! so for position `i` the minimum over replicas is the best estimate of
//! what the code costs there, and a spike that belongs to the code (a seal,
//! an offload, a compaction) recurs at the same position in every replica
//! and survives the minimum. Throughput is work over the sum of the floor
//! series; percentiles are taken over positions. The position-wise median
//! is kept beside it only to say how loud the machine was.

/// Position-wise minimum across replicas (`replicas[r][i]`).
pub fn positionwise_min(replicas: &[Vec<u64>]) -> Vec<u64> {
    positionwise(replicas, |column| column.iter().copied().min().unwrap_or(0))
}

/// Position-wise median across replicas.
pub fn positionwise_median(replicas: &[Vec<u64>]) -> Vec<u64> {
    positionwise(replicas, |column| {
        column.sort_unstable();
        // Lower median: with an even replica count, the faster middle one.
        column[(column.len() - 1) / 2]
    })
}

fn positionwise(replicas: &[Vec<u64>], mut pick: impl FnMut(&mut Vec<u64>) -> u64) -> Vec<u64> {
    let Some(first) = replicas.first() else { return Vec::new() };
    assert!(
        replicas.iter().all(|r| r.len() == first.len()),
        "replicas must execute the same positions"
    );
    let mut column = Vec::with_capacity(replicas.len());
    (0..first.len())
        .map(|i| {
            column.clear();
            column.extend(replicas.iter().map(|r| r[i]));
            pick(&mut column)
        })
        .collect()
}

/// `Σ median / Σ min − 1` over positions: 0 on a silent machine.
pub fn noise_band(replicas: &[Vec<u64>]) -> f64 {
    let floor: u64 = positionwise_min(replicas).iter().sum();
    let median: u64 = positionwise_median(replicas).iter().sum();
    if floor == 0 {
        return 0.0;
    }
    median as f64 / floor as f64 - 1.0
}

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile over positions: the smallest value with at
/// least `p` of the positions at or below it. `None` unless at least
/// [`MIN_BEYOND`] positions lie beyond it (p90 needs 100 positions).
pub fn percentile(values: &[u64], p: f64) -> Option<u64> {
    assert!((0.0..1.0).contains(&p), "percentile is a fraction below 1");
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).max(1);
    (rank <= sorted.len() && sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median over positions (lower median).
pub fn median(values: &[u64]) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted.get(sorted.len().saturating_sub(1) / 2).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median_are_taken_per_position_not_per_replica() {
        // Replica 1 is disturbed at position 0, replica 2 at position 2;
        // position 1 is a real spike present in every replica.
        let replicas = vec![vec![10, 90, 12], vec![50, 91, 11], vec![11, 95, 70]];
        assert_eq!(positionwise_min(&replicas), vec![10, 90, 11]);
        assert_eq!(positionwise_median(&replicas), vec![11, 91, 12]);
        // No single replica is as fast as the floor series.
        let floor: u64 = positionwise_min(&replicas).iter().sum();
        assert!(replicas.iter().all(|r| r.iter().sum::<u64>() > floor));
        let band = noise_band(&replicas);
        assert!((band - (114.0 / 111.0 - 1.0)).abs() < 1e-12, "{band}");
    }

    #[test]
    fn even_replica_counts_take_the_lower_median() {
        let replicas = vec![vec![4], vec![1], vec![3], vec![2]];
        assert_eq!(positionwise_median(&replicas), vec![2]);
        assert_eq!(noise_band(&[vec![5, 5], vec![5, 5]]), 0.0);
        assert!(positionwise_min(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "same positions")]
    fn replicas_of_different_length_are_rejected() {
        positionwise_min(&[vec![1, 2], vec![1]]);
    }

    #[test]
    fn a_percentile_needs_ten_positions_beyond_it() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.90), Some(90), "exactly ten beyond");
        assert_eq!(percentile(&hundred, 0.50), Some(50));
        assert_eq!(percentile(&hundred, 0.95), None, "only five beyond");
        let ninety_nine: Vec<u64> = (1..=99).collect();
        assert_eq!(percentile(&ninety_nine, 0.90), None, "nine beyond");
        let shuffled: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&shuffled, 0.90), Some(90), "order of positions is irrelevant");
        assert_eq!(median(&[9, 1, 5]), 5);
        assert_eq!(median(&[4, 1, 3, 2]), 2);
    }
}
