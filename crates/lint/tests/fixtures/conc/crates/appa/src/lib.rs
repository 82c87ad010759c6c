//! Seeded concurrency defects for the layer-3 golden test. This file is
//! never compiled — it is lexed by `lint_workspace` with
//! `tests/fixtures/conc` as the workspace root, and every defect below
//! is pinned in `conc.golden`.
//!
//! The A→B / B→A cycle seeded in `forward`/`backward` is the static
//! twin of the runtime witness test
//! `omni_model::lockwitness::tests::reversed_acquisition_panics_before_deadlock`:
//! the same inversion is caught here by the lint graph and there by the
//! rank-monotone assertion.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

omni_model::declare_lock_order! {
    APPA_ALPHA = "appa.Pair.alpha",
    APPA_BETA = "appa.Pair.beta",
    APPA_GHOST = "appa.Pair.ghost",
}

pub struct Pair {
    alpha: OrderedMutex<u64>,
    beta: OrderedMutex<u64>,
    seen: HashMap<String, u64>,
    commit_seq: AtomicU64,
}

impl Pair {
    pub fn new() -> Self {
        Self {
            alpha: OrderedMutex::new(&classes::APPA_ALPHA, 0),
            beta: OrderedMutex::new(&classes::APPA_BETA, 0),
            seen: HashMap::new(),
            commit_seq: AtomicU64::new(0),
        }
    }

    /// Declared order: alpha (rank 0) before beta (rank 1). Fine.
    pub fn forward(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        drop(b);
        drop(a);
    }

    /// The inversion: beta held while acquiring alpha.
    pub fn backward(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        drop(a);
        drop(b);
    }

    /// Same class twice on one thread.
    pub fn relock(&self) {
        let a = self.alpha.lock();
        let again = self.alpha.lock();
        drop(again);
        drop(a);
    }

    /// Guard held across a thread join.
    pub fn wait_for_worker(&self, handle: std::thread::JoinHandle<()>) {
        let a = self.alpha.lock();
        handle.join();
        drop(a);
    }

    /// Hash iteration order escapes into the returned lines.
    pub fn dump(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (k, v) in self.seen.iter() {
            out.push(format!("{k}={v}"));
        }
        out
    }

    /// Relaxed on a publication-style atomic, plus an allow that
    /// suppresses nothing.
    pub fn snapshot(&self) -> u64 {
        // lint:allow(no-unwrap)
        self.commit_seq.load(Ordering::Relaxed)
    }

    /// Guard held across the store half of the chunk reader.
    pub fn read_under_lock(&self) -> usize {
        let a = self.alpha.lock();
        read_store(*a).len()
    }
}
