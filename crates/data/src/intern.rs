//! String interning.
//!
//! String constants flow through every layer of the decision stack — they are
//! cloned into candidate tuples, hashed into indexes, and compared during
//! evaluation. Interning gives every distinct string a single shared
//! allocation process-wide, so clones are reference-count bumps and equality
//! can short-circuit on pointer identity. [`Value::str`](crate::Value::str)
//! interns through [`intern_str`].
//!
//! Dense ids are not issued here: a decision that wants `u32` keys numbers
//! its own active domain (the exact search's `Adom` catalog), which is dense
//! in that decision's universe rather than the whole process.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

/// Intern `s` in the global pool, returning the shared allocation. Equal
/// strings interned anywhere in the process return clones of the same `Arc`,
/// so equality checks between them can short-circuit on pointer identity.
pub fn intern_str(s: &str) -> Arc<str> {
    static POOL: OnceLock<Mutex<HashSet<Arc<str>>>> = OnceLock::new();
    // The pool is append-only, so a panic mid-insert cannot leave it in a
    // state a later caller would misread — recover from poison.
    let mut pool = POOL
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(shared) = pool.get(s) {
        return Arc::clone(shared);
    }
    let shared: Arc<str> = Arc::from(s);
    pool.insert(Arc::clone(&shared));
    shared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_shares_across_calls() {
        let x = intern_str("ric-global-intern-test");
        let y = intern_str("ric-global-intern-test");
        assert!(Arc::ptr_eq(&x, &y));
    }
}
