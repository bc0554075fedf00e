//! The sanctioned panic-containment module: every `catch_unwind` in the
//! workspace lives here (enforced by avis-lint rule `p2`), so swallowing
//! a panic is a deliberate, reviewed act rather than an ad-hoc shortcut.
//!
//! # Why containment is sound
//!
//! A run is a pure function of its [`avis_hinj::FaultPlan`]: a panic
//! raised while executing a plan is raised *deterministically* — the
//! same (seed, plan) panics at the same simulated step with the same
//! message at any parallelism. Containing the unwind at the runner
//! boundary and reporting it as a first-class
//! [`crate::runner::RunVerdict::Crashed`] therefore preserves the
//! engine's commit-replay contract: a crash is an *outcome*, replayed
//! bit-identically, not a harness failure.
//!
//! # Panic-hook suppression
//!
//! `std::panic::catch_unwind` still runs the global panic hook before
//! unwinding, which would spray a backtrace banner onto stderr for every
//! *contained* (expected, reported) crash. The first call through
//! [`catch`] installs a delegating hook that stays silent while the
//! current thread is inside a containment scope and forwards to the
//! previous hook otherwise — uncontained panics keep their full
//! diagnostics.
//!
//! # Locks survive contained panics
//!
//! A contained panic can unwind while its thread holds one of the
//! campaign's mutexes (the snapshot cache, the store, the engine's
//! queue), which poisons it. The campaign keeps running past the panic,
//! so every such mutex is taken through [`lock`], which recovers the
//! guard instead of propagating the poison. That is sound because the
//! panicked run's snapshots are quarantined and no other state it
//! touched is trusted afterwards.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

thread_local! {
    /// Containment-scope depth of the current thread. Non-zero means a
    /// panic reaching the hook is about to be caught and reported as a
    /// verdict, so the hook stays silent.
    static CONTAIN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

static INSTALL_HOOK: Once = Once::new();

fn install_suppressing_hook() {
    INSTALL_HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CONTAIN_DEPTH.with(Cell::get) == 0 {
                previous(info);
            }
        }));
    });
}

/// Runs `f`, catching any panic it raises. The only sanctioned unwind
/// boundary in the workspace: callers convert the payload into a
/// [`crate::runner::RunVerdict::Crashed`] (or a worker-level error) and
/// keep the campaign running.
///
/// `AssertUnwindSafe` is justified by how callers use the closure's
/// captures after a panic: the runner rebuilds its per-run state from
/// scratch on the next run and quarantines any snapshots the panicked
/// run recorded (see `ExperimentRunner::run_batch_contained`), so no state
/// that crossed the boundary is trusted afterwards.
pub(crate) fn catch<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    install_suppressing_hook();
    CONTAIN_DEPTH.with(|depth| depth.set(depth.get() + 1));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CONTAIN_DEPTH.with(|depth| depth.set(depth.get() - 1));
    result
}

/// Locks `mutex`, recovering the guard if a contained panic poisoned it
/// (see the [module docs](self)).
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload into the human-readable message a
/// [`crate::runner::RunVerdict::Crashed`] carries. String payloads (the
/// overwhelmingly common `panic!("..")` case) are passed through;
/// anything else is summarised. A non-empty `context` — the experiment
/// fingerprint, a worker id — is appended so surviving logs identify
/// *which* scenario crashed.
pub(crate) fn render_panic(payload: &(dyn Any + Send), context: &str) -> String {
    let message = if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    };
    if context.is_empty() {
        message
    } else {
        format!("{message} [{context}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_returns_the_closure_value_on_success() {
        assert_eq!(catch(|| 7).ok(), Some(7));
    }

    #[test]
    fn catch_captures_panics_and_renders_payloads() {
        let err = catch(|| -> i32 { panic!("boom at step {}", 3) }).unwrap_err();
        assert_eq!(render_panic(err.as_ref(), ""), "boom at step 3");
        assert_eq!(
            render_panic(err.as_ref(), "seed 1, plan gps"),
            "boom at step 3 [seed 1, plan gps]"
        );

        let err = catch(|| -> i32 { panic!("static payload") }).unwrap_err();
        assert_eq!(render_panic(err.as_ref(), ""), "static payload");

        let err = catch(|| std::panic::panic_any(42u64)).unwrap_err();
        assert_eq!(render_panic(err.as_ref(), ""), "non-string panic payload");
    }

    #[test]
    fn containment_depth_unwinds_with_nested_scopes() {
        let outer = catch(|| {
            let inner = catch(|| -> i32 { panic!("inner") });
            assert!(inner.is_err());
            // The inner scope restored the depth; a panic here is still
            // contained by the outer scope.
            panic!("outer")
        });
        assert!(outer.is_err());
        assert_eq!(CONTAIN_DEPTH.with(Cell::get), 0);
    }

    #[test]
    fn lock_recovers_a_mutex_poisoned_inside_catch() {
        let data = Mutex::new(vec![1]);
        let caught = catch(|| {
            let mut guard = lock(&data);
            guard.push(2);
            panic!("panics while holding the guard")
        });
        assert!(caught.is_err());
        assert!(data.is_poisoned());
        lock(&data).push(3);
        assert_eq!(*lock(&data), [1, 2, 3]);
    }
}
