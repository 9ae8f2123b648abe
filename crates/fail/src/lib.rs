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
//! Each crate declares its sites once, with [`sites!`]. Every entry point
//! takes a [`Site`], which only that macro makes, so a name nobody
//! declared does not compile.
//!
//! # Example
//!
//! ```
//! use idf_fail::{FailConfig, FailGuard};
//!
//! idf_fail::sites! {
//!     /// Head of a block read.
//!     READ_BLOCK,
//! }
//!
//! // Production code:
//! fn read_block() -> Result<u64, String> {
//!     idf_fail::eval(READ_BLOCK)?;
//!     Ok(42)
//! }
//!
//! // Test code: fail the first call, then recover.
//! let guard = FailGuard::new(READ_BLOCK, FailConfig::error("disk gone").times(1));
//! let injected = read_block().is_err();
//! // The site only exists when the `failpoints` feature is compiled in.
//! assert_eq!(injected, idf_fail::hit_count(READ_BLOCK).is_some());
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

/// A declared failpoint site. Only [`sites!`] constructs one, so every
/// site the registry sees is a row of some module's `SITES` table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Site(&'static str);

impl Site {
    /// What [`sites!`] expands to; not for direct use.
    #[doc(hidden)]
    pub const fn declared(name: &'static str) -> Self {
        Site(name)
    }

    /// The site's name: the path of its declaration,
    /// `crate::module::NAME`.
    pub const fn name(self) -> &'static str {
        self.0
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// Declare a module's failpoint sites: one `NAME,` row per site under its
/// doc comment. Emits a `pub const NAME: Site` per row, named after where
/// it is declared (`crate::module::NAME`), and a `SITES` table of all of
/// them from the same tokens, so a declared site is registered by
/// construction and adding one is a one-row change. Names are unique
/// because module paths are, and rustc rejects a repeated const in one
/// module. Tests arm a site through [`FailGuard`] (error, panic or
/// delay), and a crate's chaos suite iterates its `SITES`, asserting that
/// the crate's invariant holds with a fault at every one of them.
///
/// ```
/// mod failpoints {
///     idf_fail::sites! {
///         /// Head of a block read.
///         READ_BLOCK,
///         /// Head of a block write.
///         WRITE_BLOCK,
///     }
/// }
/// assert!(failpoints::READ_BLOCK.name().ends_with("::failpoints::READ_BLOCK"));
/// assert_eq!(failpoints::SITES, [failpoints::READ_BLOCK, failpoints::WRITE_BLOCK]);
/// ```
#[macro_export]
macro_rules! sites {
    ($( $(#[$doc:meta])* $name:ident ),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub const $name: $crate::Site =
                $crate::Site::declared(concat!(module_path!(), "::", stringify!($name)));
        )+
        /// Every site declared in this module, for chaos suites to iterate.
        pub const SITES: &[$crate::Site] = &[$($name),+];
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    sites! {
        /// Never configured.
        NOPE,
        /// Armed in both builds.
        BOTH_SITE,
        /// Configured without a guard in both builds.
        BOTH_OTHER,
        /// Error action.
        ERR,
        /// Skip/times schedule.
        SCHED,
        /// Panic action.
        PANIC,
        /// Delay action.
        DELAY,
        /// Reconfigured, then reset.
        RE,
    }

    /// The registry is process-global; serialize tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn sites_are_named_after_their_declaration() {
        assert_eq!(NOPE.name(), "idf_fail::tests::NOPE");
        assert_eq!(SITES.len(), 8);
        assert_eq!(SITES[1].to_string(), "idf_fail::tests::BOTH_SITE");
    }

    #[test]
    fn unconfigured_site_is_ok() {
        let _s = serial();
        assert_eq!(eval(NOPE), Ok(()));
    }

    /// Passes in both builds: the same calls, with assertions that branch
    /// on the feature.
    #[test]
    fn api_round_trips_with_the_feature_on_or_off() {
        let _s = serial();
        let on = cfg!(feature = "failpoints");
        let guard = FailGuard::new(BOTH_SITE, FailConfig::error("boom").times(1));
        assert_eq!(guard.site(), BOTH_SITE);
        let first = eval(BOTH_SITE);
        assert_eq!(first, if on { Err("boom".to_string()) } else { Ok(()) });
        assert_eq!(eval(BOTH_SITE), Ok(()));
        assert_eq!(hit_count(BOTH_SITE), on.then_some(2));
        drop(guard);
        assert_eq!(hit_count(BOTH_SITE), None);

        configure(BOTH_OTHER, FailConfig::delay(0).skip(1));
        assert_eq!(eval(BOTH_OTHER), Ok(()));
        assert_eq!(remove(BOTH_OTHER), on);
        assert!(!remove(BOTH_OTHER));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn error_action_triggers_and_guard_cleans_up() {
        let _s = serial();
        {
            let _g = FailGuard::new(ERR, FailConfig::error("boom"));
            assert_eq!(eval(ERR), Err("boom".to_string()));
            assert_eq!(eval(ERR), Err("boom".to_string()));
        }
        assert_eq!(eval(ERR), Ok(()));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn skip_and_times_schedule() {
        let _s = serial();
        let _g = FailGuard::new(SCHED, FailConfig::error("x").skip(2).times(1));
        assert_eq!(eval(SCHED), Ok(()));
        assert_eq!(eval(SCHED), Ok(()));
        assert_eq!(eval(SCHED), Err("x".to_string()));
        assert_eq!(eval(SCHED), Ok(()));
        assert_eq!(hit_count(SCHED), Some(4));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn panic_action_panics_with_site_name() {
        let _s = serial();
        let _g = FailGuard::new(PANIC, FailConfig::panic("kaboom"));
        let err = std::panic::catch_unwind(|| {
            let _ = eval(PANIC);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("idf_fail::tests::PANIC"), "got: {msg}");
        assert!(msg.contains("kaboom"), "got: {msg}");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn delay_action_sleeps() {
        let _s = serial();
        let _g = FailGuard::new(DELAY, FailConfig::delay(20));
        let t0 = std::time::Instant::now();
        assert_eq!(eval(DELAY), Ok(()));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn reconfigure_replaces_and_reset_clears() {
        let _s = serial();
        configure(RE, FailConfig::error("a"));
        configure(RE, FailConfig::error("b"));
        assert_eq!(eval(RE), Err("b".to_string()));
        reset();
        assert_eq!(eval(RE), Ok(()));
        assert!(!remove(RE));
    }
}
