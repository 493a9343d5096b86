//! Hierarchical span profiler: RAII guards over per-thread span trees.
//!
//! A span records *where the time goes*: entering one pushes onto the
//! thread's active-span stack, dropping it attributes the elapsed wall
//! time to the span's path (its ancestry) and to the parent's child
//! time, so snapshots can report both **total** and **self** time per
//! path. The hot path takes no lock and allocates nothing once a path
//! has been seen: the stack and the path lookup are thread-private, and
//! the per-path counters are atomics that only the owning thread writes
//! (a plain load and store) inside a per-thread sequence lock, so a
//! snapshot on another thread reads every node's count and times from
//! one consistent point without stopping the writer. Only creating a
//! path locks. Back-to-back spans, such as one per loop iteration, can
//! share a clock read through [`SpanGuard::reopen`].
//!
//! Spans route through the thread's *current* registry, established
//! with [`Telemetry::enter`]. Library code (forest fit, governor
//! search) calls the free [`span()`] without holding a handle; when no
//! registry is current on the thread, the guard is inert and costs one
//! thread-local read.

use crate::registry::{EventRing, Inner, SpanRow, Telemetry};
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// A completed span occurrence kept in the bounded event ring for
/// chrome-trace export.
pub(crate) struct SpanEvent {
    pub(crate) name: &'static str,
    pub(crate) tid: u64,
    pub(crate) start_ns: u64,
    pub(crate) dur_ns: u64,
}

/// One span-tree node: a `&'static str` name under a parent path. Its
/// counters change only inside the owning [`ThreadSlot`]'s sequence
/// lock.
struct Node {
    name: &'static str,
    parent: Option<usize>,
    count: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
}

/// Adds `v` to a counter that only the calling thread writes: a plain
/// load and store, no read-modify-write.
fn bump(cell: &AtomicU64, v: u64) {
    cell.store(cell.load(Ordering::Relaxed) + v, Ordering::Relaxed);
}

/// An active (not yet finished) span on the thread's stack.
struct Frame {
    node: usize,
    start: Instant,
    child_ns: u64,
}

/// The part of one (thread, registry) span tree that snapshots read:
/// every node the thread has created, in creation order.
pub(crate) struct ThreadSlot {
    tid: u64,
    epoch: Instant,
    events: Option<Arc<EventRing>>,
    nodes: Mutex<Vec<Arc<Node>>>,
    /// Sequence lock over the nodes' counters: odd while the owning
    /// thread is closing a span, bumped to the next even value after.
    seq: AtomicU64,
}

impl ThreadSlot {
    /// Applies one closed span to `node` inside the sequence lock. Only
    /// the owning thread calls this. Pairing with [`ThreadSlot::read`]:
    /// the final `Release` store publishes the counters to a reader's
    /// `Acquire` load of `seq`; the `Release` fence after the odd store
    /// pairs with the reader's `Acquire` fence, so a reader that saw any
    /// counter store also sees `seq` changed and retries.
    fn record(&self, node: &Node, dur: u64, child_ns: u64) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        bump(&node.count, 1);
        bump(&node.total_ns, dur);
        bump(&node.child_ns, child_ns);
        self.seq.store(seq + 2, Ordering::Release);
    }

    /// `(count, total_ns, child_ns)` of every node in `nodes`, read
    /// between two span closes of the owning thread.
    fn read(&self, nodes: &[Arc<Node>]) -> Vec<(u64, u64, u64)> {
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before.is_multiple_of(2) {
                let values = nodes
                    .iter()
                    .map(|n| {
                        (
                            n.count.load(Ordering::Relaxed),
                            n.total_ns.load(Ordering::Relaxed),
                            n.child_ns.load(Ordering::Relaxed),
                        )
                    })
                    .collect();
                fence(Ordering::Acquire);
                if self.seq.load(Ordering::Relaxed) == before {
                    return values;
                }
            }
            std::thread::yield_now();
        }
    }
}

/// The owning thread's side of a [`ThreadSlot`]: the path lookup and
/// the active stack, which no other thread ever reads.
struct LocalSpans {
    slot: Arc<ThreadSlot>,
    tree: RefCell<LocalTree>,
}

#[derive(Default)]
struct LocalTree {
    /// The slot's nodes, index-aligned with `ThreadSlot::nodes`.
    nodes: Vec<Arc<Node>>,
    children: Vec<Vec<(&'static str, usize)>>,
    roots: Vec<(&'static str, usize)>,
    stack: Vec<Frame>,
}

thread_local! {
    /// Stack of registries made current via [`Telemetry::enter`], with
    /// this thread's spans in each resolved once at enter time.
    static CURRENT: RefCell<Vec<(Telemetry, Rc<LocalSpans>)>> = const { RefCell::new(Vec::new()) };
    /// Registry → spans cache so repeated [`Telemetry::span`] /
    /// [`Telemetry::enter`] calls skip the registry's thread list lock.
    static SLOTS: RefCell<Vec<(Weak<Inner>, Rc<LocalSpans>)>> = const { RefCell::new(Vec::new()) };
}

fn spans_for_thread(t: &Telemetry) -> Rc<LocalSpans> {
    SLOTS.with(|cache| {
        let mut cache = cache.borrow_mut();
        cache.retain(|(weak, _)| weak.strong_count() > 0);
        for (weak, local) in cache.iter() {
            if let Some(inner) = weak.upgrade() {
                if Arc::ptr_eq(&inner, &t.inner) {
                    return Rc::clone(local);
                }
            }
        }
        let mut threads = t.inner.threads.lock().unwrap_or_else(|p| p.into_inner());
        let slot = Arc::new(ThreadSlot {
            tid: threads.len() as u64,
            epoch: t.inner.epoch,
            events: t.inner.events.clone(),
            nodes: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
        });
        threads.push(Arc::clone(&slot));
        let local = Rc::new(LocalSpans {
            slot,
            tree: RefCell::default(),
        });
        cache.push((Arc::downgrade(&t.inner), Rc::clone(&local)));
        local
    })
}

impl Telemetry {
    /// Makes this registry the thread's current one until the returned
    /// guard drops; the free [`span()`] then records into it. Nested
    /// enters stack (innermost wins), and the guard is not `Send`.
    pub fn enter(&self) -> EnterGuard {
        let local = spans_for_thread(self);
        CURRENT.with(|c| c.borrow_mut().push((self.clone(), local)));
        EnterGuard {
            _not_send: PhantomData,
        }
    }

    /// Opens a span directly on this registry (no thread-current
    /// indirection). Prefer the free [`span()`] in library code.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard::begin(spans_for_thread(self), name)
    }

    /// The thread's current registry, if one is entered.
    pub fn current() -> Option<Telemetry> {
        CURRENT.with(|c| c.borrow().last().map(|(t, _)| t.clone()))
    }
}

/// Scope guard from [`Telemetry::enter`]; dropping restores the
/// previously current registry.
#[must_use = "dropping the guard immediately un-enters the registry"]
pub struct EnterGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Opens a span on the thread's current registry ([`Telemetry::enter`]).
/// With no registry current the guard is inert: one thread-local read,
/// no allocation, no lock.
pub fn span(name: &'static str) -> SpanGuard {
    CURRENT.with(|c| match c.borrow().last() {
        Some((_, local)) => SpanGuard::begin(Rc::clone(local), name),
        None => SpanGuard { active: None },
    })
}

/// RAII span: dropping it attributes the elapsed time to the span path.
/// Not `Send`: it closes on the thread that opened it.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// `(this thread's spans, stack depth of our frame)`.
    active: Option<(Rc<LocalSpans>, usize)>,
}

impl SpanGuard {
    fn begin(local: Rc<LocalSpans>, name: &'static str) -> SpanGuard {
        SpanGuard::begin_at(local, name, Instant::now())
    }

    fn begin_at(local: Rc<LocalSpans>, name: &'static str, start: Instant) -> SpanGuard {
        let depth = {
            let mut tree = local.tree.borrow_mut();
            let parent = tree.stack.last().map(|f| f.node);
            let node = tree.child_node(&local.slot, parent, name);
            tree.stack.push(Frame {
                node,
                start,
                child_ns: 0,
            });
            tree.stack.len()
        };
        SpanGuard {
            active: Some((local, depth)),
        }
    }

    /// A guard with no span open; [`SpanGuard::reopen`] opens one.
    pub fn inert() -> SpanGuard {
        SpanGuard { active: None }
    }

    /// Closes this guard's span and opens `name` in its place at the
    /// same depth, on one clock read: the close time of the one is the
    /// open time of the other. Meant for spans that follow each other
    /// back to back, such as the iterations of a loop. An inert guard
    /// opens `name` on the thread's current registry, like [`span()`].
    pub fn reopen(&mut self, name: &'static str) {
        *self = match self.active.take() {
            Some((local, depth)) => {
                let now = Instant::now();
                close(&local, depth, now);
                SpanGuard::begin_at(local, name, now)
            }
            None => span(name),
        };
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((local, depth)) = self.active.take() {
            close(&local, depth, Instant::now());
        }
    }
}

/// Closes the span at stack `depth` at time `now`.
fn close(local: &LocalSpans, depth: usize, now: Instant) {
    let mut tree = local.tree.borrow_mut();
    let LocalTree { nodes, stack, .. } = &mut *tree;
    // Out-of-order drops (guard held past a later sibling) close
    // every span opened after ours as well, so the stack and the
    // tree stay consistent.
    while stack.len() >= depth {
        let Some(frame) = stack.pop() else {
            break;
        };
        let dur = now.saturating_duration_since(frame.start).as_nanos() as u64;
        let node = &nodes[frame.node];
        let slot = &local.slot;
        slot.record(node, dur, frame.child_ns);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(ring) = &slot.events {
            let mut events = ring.events.lock().unwrap_or_else(|p| p.into_inner());
            let ev = SpanEvent {
                name: node.name,
                tid: slot.tid,
                start_ns: frame.start.saturating_duration_since(slot.epoch).as_nanos() as u64,
                dur_ns: dur,
            };
            if events.len() < ring.capacity {
                events.push(ev);
            } else {
                let i = ring.cursor.fetch_add(1, Ordering::Relaxed) % ring.capacity;
                events[i] = ev;
            }
        }
    }
}

impl LocalTree {
    /// The node for `name` under `parent`, creating it on first sight
    /// (the only allocation and the only lock on the span path).
    fn child_node(
        &mut self,
        slot: &ThreadSlot,
        parent: Option<usize>,
        name: &'static str,
    ) -> usize {
        let siblings = match parent {
            Some(p) => &self.children[p],
            None => &self.roots,
        };
        if let Some(&(_, idx)) = siblings.iter().find(|(n, _)| *n == name) {
            return idx;
        }
        let idx = self.nodes.len();
        let node = Arc::new(Node {
            name,
            parent,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            child_ns: AtomicU64::new(0),
        });
        slot.nodes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Arc::clone(&node));
        self.nodes.push(node);
        self.children.push(Vec::new());
        match parent {
            Some(p) => self.children[p].push((name, idx)),
            None => self.roots.push((name, idx)),
        }
        idx
    }
}

/// The `;`-joined path of node `idx`.
fn path_of(nodes: &[Arc<Node>], mut idx: usize) -> String {
    let mut names = vec![nodes[idx].name];
    while let Some(p) = nodes[idx].parent {
        names.push(nodes[p].name);
        idx = p;
    }
    names.reverse();
    names.join(";")
}

/// Flattens every thread's span tree into path-keyed rows, merging
/// identical paths across threads. Active (unfinished) spans are not
/// counted.
pub(crate) fn collect_spans(inner: &Inner) -> Vec<SpanRow> {
    let mut by_path: HashMap<String, SpanRow> = HashMap::new();
    let threads = inner.threads.lock().unwrap_or_else(|p| p.into_inner());
    for slot in threads.iter() {
        let nodes = slot.nodes.lock().unwrap_or_else(|p| p.into_inner());
        for (idx, (count, total_ns, child_ns)) in slot.read(&nodes).into_iter().enumerate() {
            if count == 0 {
                continue;
            }
            let path = path_of(&nodes, idx);
            let row = by_path.entry(path.clone()).or_insert_with(|| SpanRow {
                path,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += count;
            row.total_ns += total_ns;
            row.self_ns += total_ns.saturating_sub(child_ns);
        }
    }
    by_path.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_and_child_time() {
        let t = Telemetry::new();
        {
            let _outer = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = t.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let snap = t.snapshot();
        let outer = snap.span("outer").unwrap();
        let inner = snap.span("inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert_eq!(
            snap.spans
                .iter()
                .map(|s| s.path.as_str())
                .collect::<Vec<_>>(),
            vec!["outer", "outer;inner"]
        );
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn free_span_is_inert_without_a_current_registry() {
        let _g = span("nobody.listening");
        let t = Telemetry::new();
        assert!(t.snapshot().spans.is_empty());
    }

    #[test]
    fn enter_routes_free_spans_and_unroutes_on_drop() {
        let t = Telemetry::new();
        {
            let _e = t.enter();
            assert!(Telemetry::current().unwrap().same_registry(&t));
            let _s = span("phase.a");
        }
        assert!(Telemetry::current().is_none());
        let _after = span("phase.b");
        let snap = t.snapshot();
        assert_eq!(snap.span("phase.a").unwrap().count, 1);
        assert!(snap.span("phase.b").is_none());
    }

    #[test]
    fn nested_enters_stack_innermost_wins() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        let _ea = a.enter();
        {
            let _eb = b.enter();
            let _s = span("x");
        }
        let _s2 = span("y");
        drop(_s2);
        assert_eq!(b.snapshot().span("x").unwrap().count, 1);
        let a_snap = a.snapshot();
        assert!(a_snap.span("x").is_none());
        assert_eq!(a_snap.span("y").unwrap().count, 1);
    }

    #[test]
    fn out_of_order_drop_closes_descendants() {
        let t = Telemetry::new();
        let outer = t.span("outer");
        let inner = t.span("inner");
        drop(outer); // closes inner too
        drop(inner); // inert: already closed
        let snap = t.snapshot();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        assert_eq!(snap.span("inner").unwrap().count, 1);
    }

    #[test]
    fn sibling_spans_on_threads_merge_by_path() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    let _e = t.enter();
                    for _ in 0..10 {
                        let _outer = span("fleet.worker");
                        let _inner = span("fleet.shard");
                    }
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.span("fleet.worker").unwrap().count, 40);
        let shard = snap
            .spans
            .iter()
            .find(|s| s.path == "fleet.worker;fleet.shard")
            .unwrap();
        assert_eq!(shard.count, 40);
    }

    #[test]
    fn repeated_spans_do_not_grow_the_arena() {
        let t = Telemetry::new();
        for _ in 0..100 {
            let _s = t.span("steady");
        }
        let threads = t.inner.threads.lock().unwrap();
        let nodes = threads[0].nodes.lock().unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn snapshot_waits_for_a_close_in_progress() {
        let t = Telemetry::new();
        drop(t.span("slow"));
        let slot = Arc::clone(&t.inner.threads.lock().unwrap()[0]);
        let node = Arc::clone(&slot.nodes.lock().unwrap()[0]);
        let before = (
            node.count.load(Ordering::Relaxed),
            node.total_ns.load(Ordering::Relaxed),
        );
        // Stop a close half way: count bumped, times not yet.
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Relaxed);
        bump(&node.count, 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                bump(&node.total_ns, 1_000_000);
                slot.seq.store(seq + 2, Ordering::Release);
            });
            let row = t.snapshot().span("slow").unwrap().clone();
            assert_eq!(row.count, before.0 + 1);
            assert_eq!(row.total_ns, before.1 + 1_000_000);
        });
    }

    #[test]
    fn reopen_chains_siblings_on_one_clock_read() {
        let t = Telemetry::with_events(16);
        {
            let _e = t.enter();
            let mut iter = SpanGuard::inert();
            for _ in 0..3 {
                iter.reopen("iter");
                let _child = span("child");
            }
            drop(iter);
            drop(span("after"));
        }
        let snap = t.snapshot();
        assert_eq!(snap.span("iter").unwrap().count, 3);
        let mut paths: Vec<_> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        paths.sort_unstable();
        assert_eq!(paths, ["after", "iter", "iter;child"]);
        // Each occurrence ends on the very instant the next one starts.
        let events = t.inner.events.as_ref().unwrap().events.lock().unwrap();
        let iters: Vec<_> = events.iter().filter(|e| e.name == "iter").collect();
        assert_eq!(iters.len(), 3);
        for pair in iters.windows(2) {
            assert_eq!(pair[0].start_ns + pair[0].dur_ns, pair[1].start_ns);
        }
    }

    #[test]
    fn reopen_without_a_registry_stays_inert() {
        let mut g = SpanGuard::inert();
        g.reopen("nobody.listening");
        assert!(g.active.is_none());
    }

    #[test]
    fn event_ring_is_bounded() {
        let t = Telemetry::with_events(8);
        {
            let _e = t.enter();
            for _ in 0..50 {
                let _s = span("tick");
            }
        }
        let ring = t.inner.events.as_ref().unwrap();
        assert_eq!(ring.events.lock().unwrap().len(), 8);
    }
}
