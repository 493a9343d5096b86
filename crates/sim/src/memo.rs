//! The simulator's measurement memo: each (kernel, configuration) pair a
//! simulator measures is computed once and served from a table after.
//!
//! [`ApuSimulator::evaluate`](crate::ApuSimulator::evaluate) is a pure
//! function of the simulator's parameters, the kernel and the
//! configuration, and a simulator's parameters never change after it is
//! built. So one table per simulator, keyed by the kernel and the
//! configuration alone, returns exactly what a fresh measurement would.
//! Clones of the simulator share the table.

use crate::kernel::{KernelCharacteristics, KernelClass};
use crate::outcome::KernelOutcome;
use gpm_hw::HwConfig;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Outcomes one table holds before it clears wholesale.
///
/// Counted working sets, seed 1 (distinct pairs per simulator):
/// `suite_replay` measures 395 on its context in a whole run, so every
/// pass after the first is served from the table; the largest table of a
/// `reproduce --fast` run holds 985. `fleet_mixed` shares one table across
/// scenarios that keep adding cold kernels: at this capacity it clears
/// about 16 times a second and serves 87% of 4 M measurements, against
/// the 88% that repeat at all. A full table is about 1.5 MB (368 B an
/// entry); a table only grows as far as its simulator measures.
pub(crate) const CAPACITY: usize = 4096;

/// Slots a table starts with; it doubles from there, staying at least
/// twice as large as its entries.
const MIN_SLOTS: usize = 64;

/// The outcomes a simulator and its clones have measured.
#[derive(Clone, Default)]
pub(crate) struct MeasurementMemo(Arc<Mutex<Table>>);

impl MeasurementMemo {
    /// The stored outcome of `kernel` at `cfg`, or else `measure`'s,
    /// stored. `measure` runs outside the lock, so another thread may
    /// store the same pair meanwhile; both outcomes are then equal.
    pub(crate) fn get_or_measure(
        &self,
        kernel: &KernelCharacteristics,
        cfg: HwConfig,
        measure: impl FnOnce() -> KernelOutcome,
    ) -> KernelOutcome {
        let key = Key::new(kernel, cfg);
        if let Ok(e) = self.lock().find(&key) {
            return e.outcome.clone();
        }
        let outcome = measure();
        self.lock().insert(&key, &outcome);
        outcome
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        // Nothing under the lock panics midway through an update.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The outcomes stored now.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }
}

impl fmt::Debug for MeasurementMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MeasurementMemo")
            .field("entries", &self.lock().entries.len())
            .finish()
    }
}

/// The exact identity of one measurement, and its hash.
struct Key<'a> {
    name: &'a Arc<str>,
    class: KernelClass,
    fields: [u64; 12],
    cfg: u16,
    hash: u64,
}

impl Key<'_> {
    fn new(kernel: &KernelCharacteristics, cfg: HwConfig) -> Key<'_> {
        let (name, class, fields) = kernel.key();
        let cfg = cfg.dense_index() as u16;
        // Each word rotated by its own amount and folded with XOR: no
        // carried dependency, so the words combine in parallel. One
        // multiply then spreads the fold over the high bits.
        let mut fold = u64::from(cfg) | (class as u64) << 16 | (name.len() as u64) << 24;
        for (i, &word) in fields.iter().enumerate() {
            fold ^= word.rotate_left(5 * i as u32 + 7);
        }
        for (i, chunk) in name.as_bytes().chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            fold ^= u64::from_le_bytes(word).rotate_left(11 * i as u32 + 3);
        }
        let hash = fold.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32);
        Key {
            name,
            class,
            fields,
            cfg,
            hash,
        }
    }
}

/// One stored measurement: its key, owned, and its outcome.
struct Entry {
    hash: u64,
    name: Arc<str>,
    class: KernelClass,
    fields: [u64; 12],
    cfg: u16,
    outcome: KernelOutcome,
}

impl Entry {
    /// Whether this entry is `key`'s: every field compared bit for bit,
    /// and the name by content.
    fn is(&self, key: &Key<'_>) -> bool {
        self.hash == key.hash
            && self.cfg == key.cfg
            && self.fields == key.fields
            && self.class == key.class
            && (Arc::ptr_eq(&self.name, key.name) || *self.name == **key.name)
    }
}

/// An open-addressed index over densely stored entries.
#[derive(Default)]
struct Table {
    /// Linear-probing index: 0 is empty, `i + 1` names `entries[i]`.
    /// Empty or a power of two, and at least twice `entries.len()`.
    slots: Vec<u32>,
    entries: Vec<Entry>,
}

impl Table {
    /// `key`'s entry, or the empty slot where it would go.
    fn find(&self, key: &Key<'_>) -> Result<&Entry, Option<usize>> {
        if self.slots.is_empty() {
            return Err(None);
        }
        let mask = self.slots.len() - 1;
        let mut i = key.hash as usize & mask;
        loop {
            match self.slots[i] {
                0 => return Err(Some(i)),
                s => {
                    let entry = &self.entries[s as usize - 1];
                    if entry.is(key) {
                        return Ok(entry);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `outcome` as `key`'s unless the key is stored already;
    /// at [`CAPACITY`] the table clears first.
    fn insert(&mut self, key: &Key<'_>, outcome: &KernelOutcome) {
        if self.entries.len() == CAPACITY {
            self.entries.clear();
            self.slots.fill(0);
        }
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.grow();
        }
        if let Err(Some(slot)) = self.find(key) {
            self.slots[slot] = self.entries.len() as u32 + 1;
            self.entries.push(Entry {
                hash: key.hash,
                name: Arc::clone(key.name),
                class: key.class,
                fields: key.fields,
                cfg: key.cfg,
                outcome: outcome.clone(),
            });
        }
    }

    /// Doubles the index and re-homes every entry.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(len, 0);
        let mask = len - 1;
        for (e, entry) in self.entries.iter().enumerate() {
            let mut i = entry.hash as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = e as u32 + 1;
        }
    }
}
