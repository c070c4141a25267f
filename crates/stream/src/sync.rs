//! Poison-recovering lock helpers shared by the streaming pipeline.
//!
//! Every lock in this workspace's enumeration pipeline follows the same
//! policy: a poisoned mutex is recovered, not propagated — the guarded
//! state (dedup sets, frontier buffers, result vectors) stays
//! structurally valid under unwinding, and panic propagation is handled
//! by `std::thread::scope` instead of poisoning.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering from poisoning.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Consumes `m` and returns its value, recovering from poisoning.
pub fn lock_into<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}
