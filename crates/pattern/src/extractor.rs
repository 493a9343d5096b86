//! Execution-order recording, repetition detection, and future-kernel
//! lookahead.

use crate::signature::KernelSignature;
use crate::store::{KernelRecord, KernelStore};
use gpm_hw::HwConfig;
use gpm_sim::{KernelCharacteristics, KernelOutcome};
use serde::{Deserialize, Serialize};

/// Dense identifier of a distinct kernel within a [`PatternExtractor`].
pub type KernelId = usize;

/// Detects the smallest period `p` such that `seq` is a prefix of an
/// infinite repetition of its first `p` elements (Totoni-style on-line
/// repetition detection). Requires at least two full periods of evidence;
/// returns `None` otherwise.
///
/// # Examples
///
/// ```
/// use gpm_pattern::detect_period;
/// assert_eq!(detect_period(&[1, 2, 1, 2, 1]), Some(2));
/// assert_eq!(detect_period(&[1, 2, 3]), None);
/// ```
pub fn detect_period(seq: &[KernelId]) -> Option<usize> {
    let n = seq.len();
    for p in 1..=n / 2 {
        if (p..n).all(|i| seq[i] == seq[i - p]) {
            return Some(p);
        }
    }
    None
}

/// The paper's kernel pattern extractor (Section IV-A2).
///
/// During the application's **first invocation** the extractor simply
/// records: each retired kernel is signed, stored, and appended to the
/// execution list. [`end_run`](PatternExtractor::end_run) freezes that list
/// as the *reference pattern*. On subsequent invocations,
/// [`expected`](PatternExtractor::expected) and
/// [`lookahead`](PatternExtractor::lookahead) answer "which kernels come
/// next?" from the reference, while [`observe`](PatternExtractor::observe)
/// keeps refreshing each kernel's stored counters from runtime feedback.
///
/// # Examples
///
/// ```
/// use gpm_hw::HwConfig;
/// use gpm_pattern::PatternExtractor;
/// use gpm_sim::{ApuSimulator, KernelCharacteristics};
///
/// let sim = ApuSimulator::default();
/// let a = KernelCharacteristics::compute_bound("a", 10.0);
/// let b = KernelCharacteristics::memory_bound("b", 1.0);
///
/// let mut px = PatternExtractor::new();
/// for k in [&a, &b, &a, &b] {
///     let out = sim.evaluate(k, HwConfig::FAIL_SAFE);
///     px.observe(&out, HwConfig::FAIL_SAFE, None);
/// }
/// px.end_run();
/// assert_eq!(px.reference_len(), Some(4));
/// assert_eq!(px.expected(0), px.expected(2)); // A at positions 0 and 2
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PatternExtractor {
    store: KernelStore,
    current_run: Vec<KernelId>,
    reference: Option<Vec<KernelId>>,
}

impl PatternExtractor {
    /// An empty extractor with no stored knowledge — the state all schemes
    /// start from when "our framework starts with no stored knowledge"
    /// (Section V-B).
    pub fn new() -> PatternExtractor {
        PatternExtractor::default()
    }

    /// Records a retired kernel: computes its signature, upserts its store
    /// record with the fresh counters/time/power, and appends it to the
    /// current run's execution list. Returns the kernel's id.
    ///
    /// `truth` attaches ground-truth characteristics for oracle-predictor
    /// studies; pass `None` in the realistic counter-driven configuration.
    pub fn observe(
        &mut self,
        outcome: &KernelOutcome,
        executed_at: HwConfig,
        truth: Option<KernelCharacteristics>,
    ) -> KernelId {
        let signature = KernelSignature::from_counters(&outcome.counters);
        let id = self.store.upsert(
            signature,
            outcome.counters,
            executed_at,
            outcome.time_s,
            outcome.power.gpu_domain_w(),
            outcome.ginstructions,
            truth,
        );
        self.current_run.push(id);
        id
    }

    /// Ends the current application invocation. The first completed run
    /// becomes the reference pattern; later runs are simply cleared (their
    /// counter feedback has already been absorbed by the store).
    pub fn end_run(&mut self) {
        if self.reference.is_none() && !self.current_run.is_empty() {
            self.reference = Some(std::mem::take(&mut self.current_run));
        } else {
            self.current_run.clear();
        }
    }

    /// Discards the reference pattern and all per-run state, keeping the
    /// kernel store (used when an application's pattern is known to have
    /// changed).
    pub fn reset_pattern(&mut self) {
        self.reference = None;
        self.current_run.clear();
    }

    /// The kernel expected at `position` (0-based) of the application,
    /// according to the reference pattern. `None` before a reference
    /// exists or past its end.
    pub fn expected(&self, position: usize) -> Option<KernelId> {
        self.reference.as_ref()?.get(position).copied()
    }

    /// Up to `horizon` kernel ids expected at positions
    /// `position..position + horizon`. Empty before a reference exists;
    /// truncated at the application's end.
    pub fn lookahead(&self, position: usize, horizon: usize) -> Vec<KernelId> {
        match &self.reference {
            Some(r) => r.iter().skip(position).take(horizon).copied().collect(),
            None => Vec::new(),
        }
    }

    /// Whether a reference pattern has been captured.
    pub fn has_reference(&self) -> bool {
        self.reference.is_some()
    }

    /// Length of the reference pattern, if captured.
    pub fn reference_len(&self) -> Option<usize> {
        self.reference.as_ref().map(Vec::len)
    }

    /// The full reference pattern, if captured.
    pub fn reference(&self) -> Option<&[KernelId]> {
        self.reference.as_deref()
    }

    /// Kernels observed so far in the current run.
    pub fn run_so_far(&self) -> &[KernelId] {
        &self.current_run
    }

    /// Attempts to re-align a diverged run against the reference pattern:
    /// when the kernel observed at `position` is not the expected one,
    /// searches the reference within `window` positions after `position`
    /// for the observed kernel and returns the matching reference
    /// position. The caller can then treat the application as having
    /// skipped ahead (e.g. an iteration count that shrank between runs).
    pub fn realign(&self, position: usize, observed: KernelId, window: usize) -> Option<usize> {
        let reference = self.reference.as_deref()?;
        (position..reference.len().min(position + window + 1)).find(|&p| reference[p] == observed)
    }

    /// Access to a stored kernel record.
    pub fn record(&self, id: KernelId) -> Option<&KernelRecord> {
        self.store.get(id)
    }

    /// The underlying store.
    pub fn store(&self) -> &KernelStore {
        &self.store
    }

    /// Number of distinct kernels seen.
    pub fn num_distinct_kernels(&self) -> usize {
        self.store.len()
    }

    /// Runtime storage footprint per the paper's 80-bytes-per-kernel
    /// accounting.
    pub fn storage_bytes(&self) -> usize {
        self.store.storage_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpm_sim::ApuSimulator;

    fn kernels() -> Vec<KernelCharacteristics> {
        vec![
            KernelCharacteristics::compute_bound("a", 10.0),
            KernelCharacteristics::memory_bound("b", 1.0),
            KernelCharacteristics::peak("c", 8.0),
        ]
    }

    fn run_sequence(px: &mut PatternExtractor, seq: &[usize]) -> Vec<KernelId> {
        let sim = ApuSimulator::default();
        let ks = kernels();
        seq.iter()
            .map(|&i| {
                let out = sim.evaluate(&ks[i], HwConfig::FAIL_SAFE);
                px.observe(&out, HwConfig::FAIL_SAFE, None)
            })
            .collect()
    }

    #[test]
    fn detect_period_basics() {
        assert_eq!(detect_period(&[]), None);
        assert_eq!(detect_period(&[1]), None);
        assert_eq!(detect_period(&[1, 1]), Some(1));
        assert_eq!(detect_period(&[1, 2, 1, 2]), Some(2));
        assert_eq!(detect_period(&[1, 2, 3, 1, 2, 3]), Some(3));
        // Fewer than two full periods of evidence: no detection yet.
        assert_eq!(detect_period(&[1, 2, 3, 1, 2]), None);
        assert_eq!(detect_period(&[1, 2, 3, 4]), None);
    }

    #[test]
    fn distinct_kernels_get_distinct_ids() {
        let mut px = PatternExtractor::new();
        let ids = run_sequence(&mut px, &[0, 1, 2]);
        assert_eq!(px.num_distinct_kernels(), 3);
        assert_eq!(ids.len(), 3);
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[2]);
    }

    #[test]
    fn repeated_kernel_reuses_id() {
        let mut px = PatternExtractor::new();
        let ids = run_sequence(&mut px, &[0, 1, 0, 1, 0]);
        assert_eq!(px.num_distinct_kernels(), 2);
        assert_eq!(ids[0], ids[2]);
        assert_eq!(ids[0], ids[4]);
        assert_eq!(ids[1], ids[3]);
        assert_eq!(detect_period(px.run_so_far()), Some(2));
    }

    #[test]
    fn first_run_becomes_reference() {
        let mut px = PatternExtractor::new();
        let ids = run_sequence(&mut px, &[0, 1, 2, 1]);
        assert!(!px.has_reference());
        px.end_run();
        assert!(px.has_reference());
        assert_eq!(px.reference_len(), Some(4));
        assert_eq!(px.reference().unwrap(), ids.as_slice());
        assert!(px.run_so_far().is_empty());
    }

    #[test]
    fn lookahead_truncates_at_end() {
        let mut px = PatternExtractor::new();
        let ids = run_sequence(&mut px, &[0, 1, 2]);
        px.end_run();
        assert_eq!(px.lookahead(1, 10), vec![ids[1], ids[2]]);
        assert_eq!(px.lookahead(0, 2), vec![ids[0], ids[1]]);
        assert!(px.lookahead(3, 5).is_empty());
    }

    #[test]
    fn lookahead_empty_without_reference() {
        let mut px = PatternExtractor::new();
        run_sequence(&mut px, &[0, 1]);
        assert!(px.lookahead(0, 4).is_empty());
        assert_eq!(px.expected(0), None);
    }

    #[test]
    fn second_run_does_not_replace_reference() {
        let mut px = PatternExtractor::new();
        run_sequence(&mut px, &[0, 1]);
        px.end_run();
        run_sequence(&mut px, &[2, 2, 2]);
        px.end_run();
        assert_eq!(px.reference_len(), Some(2));
    }

    #[test]
    fn feedback_updates_stored_counters() {
        let sim = ApuSimulator::default();
        let ks = kernels();
        let mut px = PatternExtractor::new();
        let out1 = sim.evaluate(&ks[0], HwConfig::FAIL_SAFE);
        let id = px.observe(&out1, HwConfig::FAIL_SAFE, None);
        let t1 = px.record(id).unwrap().time_s;
        let out2 = sim.evaluate(&ks[0], HwConfig::MAX_PERF);
        let id2 = px.observe(&out2, HwConfig::MAX_PERF, None);
        assert_eq!(id, id2, "same kernel should keep its id across configs");
        let rec = px.record(id).unwrap();
        assert_ne!(rec.time_s, t1);
        assert_eq!(rec.measured_at, HwConfig::MAX_PERF);
    }

    #[test]
    fn realign_finds_skipped_ahead_position() {
        let mut px = PatternExtractor::new();
        let ids = run_sequence(&mut px, &[0, 1, 2, 1, 0]);
        px.end_run();
        // Expected position 1 (kernel B) but we observed kernel C (= id of
        // position 2): the run skipped one kernel.
        assert_eq!(px.realign(1, ids[2], 3), Some(2));
        // Observed the expected kernel: realign returns the position itself.
        assert_eq!(px.realign(1, ids[1], 3), Some(1));
        // Kernel not in the window: no alignment.
        assert_eq!(px.realign(4, ids[1], 2), None);
        // No reference yet: no alignment.
        assert_eq!(PatternExtractor::new().realign(0, 0, 5), None);
    }

    #[test]
    fn reset_pattern_clears_reference_keeps_store() {
        let mut px = PatternExtractor::new();
        run_sequence(&mut px, &[0, 1]);
        px.end_run();
        px.reset_pattern();
        assert!(!px.has_reference());
        assert_eq!(px.num_distinct_kernels(), 2);
    }

    #[test]
    fn storage_scales_with_distinct_kernels() {
        let mut px = PatternExtractor::new();
        run_sequence(&mut px, &[0, 1, 2, 0, 1, 2]);
        assert_eq!(px.storage_bytes(), 3 * 80);
    }
}
