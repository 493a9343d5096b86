//! Property tests for [`TelemetrySnapshot::merge`], mirroring the
//! `TraceSummary::merge` suite in `gpm-trace`: merging per-chunk
//! registries over a partitioned counter-event stream — in any chunking
//! and any association order — agrees with one registry having observed
//! every event.

use gpm_telemetry::{Telemetry, TelemetrySnapshot};
use proptest::prelude::*;

const COUNTERS: [&str; 3] = ["gpm_a_total", "gpm_b_total", "gpm_c_total"];
const SHARD_LABELS: [&str; 2] = ["0", "1"];

/// One counter event: `shard` picks a label set, `None` the unlabeled
/// counter.
#[derive(Debug, Clone)]
struct Ev {
    which: usize,
    shard: Option<usize>,
    n: u64,
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    (
        0usize..COUNTERS.len(),
        prop::option::of(0usize..SHARD_LABELS.len()),
        1u64..100,
    )
        .prop_map(|(which, shard, n)| Ev { which, shard, n })
}

fn summarize(events: &[Ev]) -> TelemetrySnapshot {
    let t = Telemetry::new();
    for ev in events {
        match ev.shard {
            None => t.counter(COUNTERS[ev.which]).add(ev.n),
            Some(s) => t
                .counter_with(COUNTERS[ev.which], &[("shard", SHARD_LABELS[s])])
                .add(ev.n),
        }
    }
    t.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunked registries merged in order == one registry over the
    /// whole stream, for any chunk boundaries over any event mix.
    #[test]
    fn chunked_merge_agrees_with_single_registry(
        events in prop::collection::vec(ev_strategy(), 1..120),
        cuts in prop::collection::vec(0usize..120, 0..4),
    ) {
        let whole = summarize(&events);
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (events.len() + 1)).collect();
        bounds.push(0);
        bounds.push(events.len());
        bounds.sort_unstable();
        let mut merged = TelemetrySnapshot::default();
        for pair in bounds.windows(2) {
            merged.merge(&summarize(&events[pair[0]..pair[1]]));
        }
        prop_assert_eq!(merged, whole);
    }

    /// Merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) exactly.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(ev_strategy(), 0..40),
        b in prop::collection::vec(ev_strategy(), 0..40),
        c in prop::collection::vec(ev_strategy(), 0..40),
    ) {
        let (sa, sb, sc) = (summarize(&a), summarize(&b), summarize(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb;
        bc.merge(&sc);
        let mut right = sa;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// A reshuffled stream snapshots identically — which worker thread
    /// recorded which event can never leak into a rollup.
    #[test]
    fn aggregation_is_order_insensitive(
        events in prop::collection::vec(ev_strategy(), 1..80),
        rot in 0usize..80,
    ) {
        let mut rotated = events.clone();
        rotated.rotate_left(rot % events.len());
        prop_assert_eq!(summarize(&rotated), summarize(&events));
    }

    /// Merging with an empty snapshot is the identity, both ways.
    #[test]
    fn empty_is_identity(events in prop::collection::vec(ev_strategy(), 0..60)) {
        let s = summarize(&events);
        let mut left = s.clone();
        left.merge(&TelemetrySnapshot::default());
        prop_assert_eq!(&left, &s);
        let mut right = TelemetrySnapshot::default();
        right.merge(&s);
        prop_assert_eq!(&right, &s);
    }
}
