//! Deterministic fault-injection (failpoint) registry.
//!
//! Production code declares *named sites* and calls [`eval`] at each one.
//! Tests configure a site to return an error, panic, or sleep — exercising
//! failure paths that are otherwise unreachable without real hardware
//! faults. With the `failpoints` feature disabled, [`eval`] compiles to an
//! inlined `Ok(())` and the registry does not exist.
//!
//! The fast path for an *unconfigured* registry is a single relaxed atomic
//! load, so sites may be placed on hot paths (per-row reads, per-probe
//! loops) without measurable cost.
//!
//! Every public item has one definition; the feature gates only the
//! registry state and five function bodies, so downstream code and tests
//! never need `#[cfg]` guards and the two builds cannot drift apart.
//!
//! Each crate declares its sites once, with [`sites!`].
//!
//! # Example
//!
//! ```
//! use idf_fail::{FailConfig, FailGuard};
//!
//! // Production code:
//! fn read_block() -> Result<u64, String> {
//!     idf_fail::eval("store::read_block")?;
//!     Ok(42)
//! }
//!
//! // Test code: fail the first call, then recover.
//! let guard = FailGuard::new("store::read_block", FailConfig::error("disk gone").times(1));
//! let injected = read_block().is_err();
//! // The site only exists when the `failpoints` feature is compiled in.
//! assert_eq!(injected, idf_fail::hit_count("store::read_block").is_some());
//! assert_eq!(read_block(), Ok(42));
//! drop(guard); // site removed
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// With `failpoints` off the gated bodies leave their parameters and the
// `FailConfig` fields unused by construction.
#![cfg_attr(not(feature = "failpoints"), allow(unused_variables, dead_code))]

mod registry;

pub use registry::{configure, eval, hit_count, remove, reset, FailAction, FailConfig, FailGuard};

/// Declare a crate's failpoint sites: one `NAME = "crate::site"` row per
/// site under its doc comment. Emits a `pub const NAME: &str` per row and
/// a `SITES` table of all of them from the same tokens, so a declared
/// site is registered by construction and adding one is a one-row change.
///
/// ```
/// mod failpoints {
///     idf_fail::sites! {
///         /// Head of a block read.
///         READ_BLOCK = "store::read_block",
///         /// Head of a block write.
///         WRITE_BLOCK = "store::write_block",
///     }
/// }
/// assert_eq!(failpoints::READ_BLOCK, "store::read_block");
/// assert_eq!(failpoints::SITES, [failpoints::READ_BLOCK, failpoints::WRITE_BLOCK]);
/// ```
#[macro_export]
macro_rules! sites {
    ($( $(#[$doc:meta])* $name:ident = $site:literal ),+ $(,)?) => {
        $( $(#[$doc])* pub const $name: &str = $site; )+
        /// Every site declared in this module, for chaos suites to iterate.
        pub const SITES: &[&str] = &[$($name),+];
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// The registry is process-global; serialize tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn unconfigured_site_is_ok() {
        let _s = serial();
        assert_eq!(eval("nope"), Ok(()));
    }

    /// Passes in both builds: the same calls, with assertions that branch
    /// on the feature.
    #[test]
    fn api_round_trips_with_the_feature_on_or_off() {
        let _s = serial();
        let on = cfg!(feature = "failpoints");
        let guard = FailGuard::new("both::site", FailConfig::error("boom").times(1));
        assert_eq!(guard.site(), "both::site");
        let first = eval("both::site");
        assert_eq!(first, if on { Err("boom".to_string()) } else { Ok(()) });
        assert_eq!(eval("both::site"), Ok(()));
        assert_eq!(hit_count("both::site"), on.then_some(2));
        drop(guard);
        assert_eq!(hit_count("both::site"), None);

        configure("both::other", FailConfig::delay(0).skip(1));
        assert_eq!(eval("both::other"), Ok(()));
        assert_eq!(remove("both::other"), on);
        assert!(!remove("both::other"));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn error_action_triggers_and_guard_cleans_up() {
        let _s = serial();
        {
            let _g = FailGuard::new("t::err", FailConfig::error("boom"));
            assert_eq!(eval("t::err"), Err("boom".to_string()));
            assert_eq!(eval("t::err"), Err("boom".to_string()));
        }
        assert_eq!(eval("t::err"), Ok(()));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn skip_and_times_schedule() {
        let _s = serial();
        let _g = FailGuard::new("t::sched", FailConfig::error("x").skip(2).times(1));
        assert_eq!(eval("t::sched"), Ok(()));
        assert_eq!(eval("t::sched"), Ok(()));
        assert_eq!(eval("t::sched"), Err("x".to_string()));
        assert_eq!(eval("t::sched"), Ok(()));
        assert_eq!(hit_count("t::sched"), Some(4));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn panic_action_panics_with_site_name() {
        let _s = serial();
        let _g = FailGuard::new("t::panic", FailConfig::panic("kaboom"));
        let err = std::panic::catch_unwind(|| {
            let _ = eval("t::panic");
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t::panic"), "got: {msg}");
        assert!(msg.contains("kaboom"), "got: {msg}");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn delay_action_sleeps() {
        let _s = serial();
        let _g = FailGuard::new("t::delay", FailConfig::delay(20));
        let t0 = std::time::Instant::now();
        assert_eq!(eval("t::delay"), Ok(()));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn reconfigure_replaces_and_reset_clears() {
        let _s = serial();
        configure("t::re", FailConfig::error("a"));
        configure("t::re", FailConfig::error("b"));
        assert_eq!(eval("t::re"), Err("b".to_string()));
        reset();
        assert_eq!(eval("t::re"), Ok(()));
        assert!(!remove("t::re"));
    }
}
