//! Shared window-aggregation helpers used by both the batch pipeline
//! ([`crate::monitor::RunLog::windows`]) and the incremental online
//! monitor ([`crate::online::OnlineMonitor`]), so the two paths cannot
//! drift apart.

use webcap_sim::SystemSample;
use webcap_tpcw::MixId;

/// Element-wise mean of equal-width rows, read in place; empty input
/// yields an empty vector and a single row is returned unchanged.
///
/// # Panics
///
/// Panics if the rows have differing widths — a width mismatch upstream
/// is a wiring bug that a silently truncating zip would hide.
pub(crate) fn mean_rows<R: AsRef<[f64]>>(rows: impl Iterator<Item = R>) -> Vec<f64> {
    let mut acc: Vec<f64> = Vec::new();
    let mut n = 0usize;
    for row in rows {
        let row = row.as_ref();
        if n == 0 {
            acc = row.to_vec();
        } else {
            assert_eq!(
                acc.len(),
                row.len(),
                "mean_rows: mismatched row widths ({} vs {})",
                acc.len(),
                row.len()
            );
            for (a, x) in acc.iter_mut().zip(row) {
                *a += x;
            }
        }
        n += 1;
    }
    if n > 1 {
        for a in &mut acc {
            *a /= n as f64;
        }
    }
    acc
}

/// Incremental element-wise mean with the exact float-operation order of
/// [`mean_rows`]: the first row seeds the accumulator (moved, not
/// cloned), later rows are added element-wise in arrival order, and one
/// division per element happens at [`RowMeanAccumulator::finish`].
/// Feeding rows one at a time is therefore bit-identical to buffering
/// them and calling `mean_rows` — without keeping every per-second row
/// alive until the window closes.
///
/// Public because sharded collectors ([`webcap-fleet`]) build their
/// per-window metric digests through this exact accumulator, which is
/// what makes a digest-fed merge bit-identical to the in-process
/// monitor.
#[derive(Debug, Default)]
pub struct RowMeanAccumulator {
    acc: Vec<f64>,
    n: usize,
}

impl RowMeanAccumulator {
    /// Fold one row in.
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch, with the same message as
    /// [`mean_rows`].
    pub fn push(&mut self, row: Vec<f64>) {
        if self.n == 0 {
            self.acc = row;
        } else {
            assert_eq!(
                self.acc.len(),
                row.len(),
                "mean_rows: mismatched row widths ({} vs {})",
                self.acc.len(),
                row.len()
            );
            for (a, x) in self.acc.iter_mut().zip(row) {
                *a += x;
            }
        }
        self.n += 1;
    }

    /// Complete the mean and reset the accumulator for the next window.
    /// Like [`mean_rows`], zero rows yield an empty vector and a single
    /// row is returned unchanged (no division).
    pub fn finish(&mut self) -> Vec<f64> {
        let mut acc = std::mem::take(&mut self.acc);
        if self.n > 1 {
            let n = self.n as f64;
            for a in &mut acc {
                *a /= n;
            }
        }
        self.n = 0;
        acc
    }

    /// Discard any partial state.
    pub fn clear(&mut self) {
        self.acc = Vec::new();
        self.n = 0;
    }
}

/// Majority-mix vote tally with the exact counting and tie-break
/// semantics of [`majority_mix`]: mixes are kept in first-appearance
/// order and the winner is the *last* maximal count in that order
/// (`max_by_key` keeps the later of equal keys). Incremental so a
/// sharded collector can ship the counts inside a window digest and the
/// merge node can recover the identical majority label.
#[derive(Debug, Default, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MixTally {
    counts: Vec<(MixId, u32)>,
}

impl MixTally {
    /// Count one sample's mix.
    pub fn observe(&mut self, mix: MixId) {
        match self.counts.iter_mut().find(|(m, _)| *m == mix) {
            Some((_, c)) => *c += 1,
            None => self.counts.push((mix, 1)),
        }
    }

    /// The counted `(mix, votes)` pairs in first-appearance order.
    #[must_use]
    pub fn counts(&self) -> &[(MixId, u32)] {
        &self.counts
    }

    /// Rebuild a tally from wire counts, preserving their order.
    #[must_use]
    pub fn from_counts(counts: Vec<(MixId, u32)>) -> MixTally {
        MixTally { counts }
    }

    /// The majority mix, `None` when nothing was observed. Ties break
    /// exactly like [`majority_mix`].
    #[must_use]
    pub fn majority(&self) -> Option<MixId> {
        self.counts.iter().max_by_key(|(_, c)| *c).map(|(m, _)| *m)
    }
}

/// The majority traffic mix over a window's samples. Ties break
/// deterministically (by first-appearance order of the tied mixes), so
/// the label never depends on execution order. `None` on an empty
/// window.
pub(crate) fn majority_mix(samples: &[SystemSample]) -> Option<MixId> {
    let mut tally = MixTally::default();
    for s in samples {
        tally.observe(s.mix_id);
    }
    tally.majority()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_equal_width_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 6.0]];
        assert_eq!(mean_rows(rows.into_iter()), vec![2.0, 4.0]);
    }

    #[test]
    fn empty_input_yields_empty_vector() {
        assert!(mean_rows(std::iter::empty::<Vec<f64>>()).is_empty());
    }

    #[test]
    fn single_row_is_unchanged() {
        assert_eq!(mean_rows(std::iter::once(vec![5.0, -1.0])), vec![5.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched row widths")]
    fn mismatched_widths_panic() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        let _ = mean_rows(rows.into_iter());
    }

    #[test]
    fn accumulator_is_bit_identical_to_mean_rows() {
        // Values chosen so summation order matters at the ulp level if it
        // were ever changed.
        let rows = [
            vec![1e16, 3.0, -7.5],
            vec![1.0, 0.1, 2.25],
            vec![-1e16, 0.2, 4.5],
            vec![2.0, 0.7, -0.125],
        ];
        for take in 0..=rows.len() {
            let mut acc = RowMeanAccumulator::default();
            for row in rows.iter().take(take) {
                acc.push(row.clone());
            }
            let incremental = acc.finish();
            let batched = mean_rows(rows.iter().take(take));
            assert_eq!(
                incremental.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                batched.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "take {take}"
            );
            assert!(acc.finish().is_empty(), "finish resets");
        }
    }

    #[test]
    fn accumulator_clear_discards_partial_state() {
        let mut acc = RowMeanAccumulator::default();
        acc.push(vec![1.0, 2.0]);
        acc.clear();
        acc.push(vec![10.0, 20.0]);
        assert_eq!(acc.finish(), vec![10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched row widths")]
    fn accumulator_width_mismatch_panics() {
        let mut acc = RowMeanAccumulator::default();
        acc.push(vec![1.0, 2.0]);
        acc.push(vec![3.0]);
    }

    fn sample_with_mix(mix_id: MixId) -> SystemSample {
        SystemSample {
            t_s: 1.0,
            interval_s: 1.0,
            ebs_target: 0,
            ebs_active: 0,
            mix_id,
            issued: 0,
            issued_browse: 0,
            completed: 0,
            completed_browse: 0,
            response_time_sum_s: 0.0,
            response_time_max_s: 0.0,
            in_flight: 0,
            response_times: webcap_sim::RtHistogram::default(),
            app: webcap_sim::TierSample::default(),
            db: webcap_sim::TierSample::default(),
        }
    }

    #[test]
    fn majority_wins_over_last_sample() {
        let mut samples = vec![sample_with_mix(MixId::Ordering); 20];
        samples.extend(vec![sample_with_mix(MixId::Browsing); 10]);
        assert_eq!(majority_mix(&samples), Some(MixId::Ordering));
    }

    #[test]
    fn empty_window_has_no_majority() {
        assert_eq!(majority_mix(&[]), None);
    }

    #[test]
    fn tally_matches_majority_mix_including_ties() {
        // 2-2 tie between Ordering and Browsing in both appearance
        // orders: the tally must agree with majority_mix sample-for-
        // sample, whatever the tie-break resolves to.
        for mixes in [
            vec![
                MixId::Ordering,
                MixId::Browsing,
                MixId::Ordering,
                MixId::Browsing,
            ],
            vec![
                MixId::Browsing,
                MixId::Ordering,
                MixId::Browsing,
                MixId::Ordering,
            ],
            vec![MixId::Shopping, MixId::Shopping, MixId::Ordering],
        ] {
            let samples: Vec<_> = mixes.iter().map(|&m| sample_with_mix(m)).collect();
            let mut tally = MixTally::default();
            for &m in &mixes {
                tally.observe(m);
            }
            assert_eq!(tally.majority(), majority_mix(&samples));
            let rebuilt = MixTally::from_counts(tally.counts().to_vec());
            assert_eq!(rebuilt.majority(), tally.majority());
        }
    }

    #[test]
    fn empty_tally_has_no_majority() {
        assert_eq!(MixTally::default().majority(), None);
    }
}
