//! The per-campaign memo: a value per key, computed once by the first job that asks for
//! it and shared with every later job. The sca campaign keeps its flows (per benchmark
//! and design seed) and their adjoint kernels (per mitigation and sensor geometry) in
//! memos, so an 8-job smoke runs one flow and two kernel passes instead of eight each.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A concurrent compute-once map. Distinct keys compute in parallel; a caller that asks
/// for a key whose computation another caller is running blocks until it is done. A
/// computation that panics leaves its key empty, so the next caller (a retry) computes
/// it afresh; a computation that *returns* an error memoizes that error like any value.
pub(crate) struct Memo<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// The value of `key`, running `compute` if no caller has. Returns the value and the
    /// time this caller spent blocked on another caller's computation, which it spends
    /// inside a `wait_span` span (zero when it computed the value or found it ready).
    pub(crate) fn get(
        &self,
        key: K,
        wait_span: &'static str,
        compute: impl FnOnce() -> V,
    ) -> (V, Duration) {
        let (slot, first) = {
            let mut slots = self.slots.lock().expect("memo index");
            match slots.entry(key) {
                Entry::Occupied(entry) => (Arc::clone(entry.get()), false),
                Entry::Vacant(entry) => (Arc::clone(entry.insert(Arc::default())), true),
            }
        };
        if let Some(value) = slot.get() {
            return (value.clone(), Duration::ZERO);
        }
        if first {
            return (slot.get_or_init(compute).clone(), Duration::ZERO);
        }
        // Another caller claimed the key. If its computation panicked (or it has not yet
        // started), this caller computes instead, inside the wait span but not counted
        // as waiting.
        let started = Instant::now();
        let mut computed = false;
        let value = {
            let _span = tsc3d_obs::span!(wait_span);
            slot.get_or_init(|| {
                computed = true;
                compute()
            })
            .clone()
        };
        let waited = if computed {
            Duration::ZERO
        } else {
            started.elapsed()
        };
        (value, waited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn each_key_computes_once_across_threads() {
        let memo: Memo<u32, u64> = Memo::default();
        let runs = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for thread in 0..8u32 {
                let (memo, runs) = (&memo, &runs);
                scope.spawn(move || {
                    let (value, _) = memo.get(thread % 2, "memo_test_wait", || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(5));
                        u64::from(thread % 2) + 10
                    });
                    assert_eq!(value, u64::from(thread % 2) + 10);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_panicking_computation_leaves_the_key_for_the_next_caller() {
        let memo: Memo<&str, u32> = Memo::default();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get("k", "memo_test_wait", || panic!("injected"))
        }));
        assert!(panicked.is_err());
        let (value, waited) = memo.get("k", "memo_test_wait", || 7);
        assert_eq!((value, waited), (7, Duration::ZERO));
        assert_eq!(memo.get("k", "memo_test_wait", || 8).0, 7);
    }
}
