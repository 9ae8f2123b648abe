//! The failpoint registry. Types and signatures have one definition;
//! the `failpoints` feature gates only the registry state and the bodies
//! of [`configure`], [`remove`], [`reset`], [`hit_count`] and [`eval`].

#[cfg(feature = "failpoints")]
use std::sync::atomic::Ordering;
use std::time::Duration;

/// What a triggered failpoint does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailAction {
    /// Return `Err(message)` from [`eval`].
    Error(String),
    /// Panic with the given message.
    Panic(String),
    /// Sleep for the given duration, then return `Ok(())`.
    Delay(Duration),
}

/// Per-site trigger configuration: an action plus optional `skip` /
/// `times` counters for deterministic "fail the Nth call" schedules.
/// With `failpoints` off it is accepted and never consulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailConfig {
    action: FailAction,
    skip: u64,
    times: Option<u64>,
}

impl FailConfig {
    /// Trigger by returning `Err(message)`.
    pub fn error(message: impl Into<String>) -> Self {
        Self::new(FailAction::Error(message.into()))
    }

    /// Trigger by panicking with `message`.
    pub fn panic(message: impl Into<String>) -> Self {
        Self::new(FailAction::Panic(message.into()))
    }

    /// Trigger by sleeping `millis` milliseconds.
    pub fn delay(millis: u64) -> Self {
        Self::new(FailAction::Delay(Duration::from_millis(millis)))
    }

    /// Build a config from a raw [`FailAction`].
    pub fn new(action: FailAction) -> Self {
        Self {
            action,
            skip: 0,
            times: None,
        }
    }

    /// Let the first `n` evaluations pass before triggering.
    pub fn skip(mut self, n: u64) -> Self {
        self.skip = n;
        self
    }

    /// Trigger at most `n` times, then behave as if unconfigured.
    pub fn times(mut self, n: u64) -> Self {
        self.times = Some(n);
        self
    }
}

/// The registry state; absent when `failpoints` is off.
#[cfg(feature = "failpoints")]
mod state {
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    pub(super) struct SiteState {
        pub(super) config: super::FailConfig,
        pub(super) hits: u64,
    }

    /// Number of configured sites; `0` means every `eval` takes the
    /// one-atomic-load fast path.
    pub(super) static ACTIVE: AtomicUsize = AtomicUsize::new(0);

    pub(super) fn lock() -> MutexGuard<'static, HashMap<String, SiteState>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
        // The registry mutex is only ever held for map bookkeeping (actions
        // run outside the lock), so a panic mid-update cannot corrupt it.
        REGISTRY
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Configure `site` to trigger per `config`, replacing any previous
/// configuration for the same site (discarded with `failpoints` off).
pub fn configure(site: impl Into<String>, config: FailConfig) {
    #[cfg(feature = "failpoints")]
    {
        let mut map = state::lock();
        let fresh = state::SiteState { config, hits: 0 };
        if map.insert(site.into(), fresh).is_none() {
            state::ACTIVE.fetch_add(1, Ordering::Release);
        }
    }
}

/// Remove the configuration for `site`. Returns `true` if it existed
/// (always `false` with `failpoints` off).
pub fn remove(site: &str) -> bool {
    #[cfg(feature = "failpoints")]
    {
        let mut map = state::lock();
        if map.remove(site).is_some() {
            state::ACTIVE.fetch_sub(1, Ordering::Release);
            return true;
        }
    }
    false
}

/// Remove every configured site.
pub fn reset() {
    #[cfg(feature = "failpoints")]
    {
        let mut map = state::lock();
        let n = map.len();
        map.clear();
        state::ACTIVE.fetch_sub(n, Ordering::Release);
    }
}

/// Number of evaluations of `site` so far (including non-triggering
/// ones), or `None` if the site is not configured (always `None` with
/// `failpoints` off).
pub fn hit_count(site: &str) -> Option<u64> {
    #[cfg(feature = "failpoints")]
    {
        state::lock().get(site).map(|s| s.hits)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        None
    }
}

/// Evaluate the failpoint named `site`.
///
/// Returns `Ok(())` unless a test configured the site to trigger, in
/// which case the configured action runs: `Error` returns the message
/// as `Err`, `Panic` panics, `Delay` sleeps then returns `Ok(())`. With
/// `failpoints` off this is an inlined `Ok(())`.
#[cfg_attr(not(feature = "failpoints"), inline(always))]
pub fn eval(site: &str) -> Result<(), String> {
    #[cfg(feature = "failpoints")]
    {
        if state::ACTIVE.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let action = {
            let mut map = state::lock();
            let Some(state) = map.get_mut(site) else {
                return Ok(());
            };
            state.hits += 1;
            if state.config.skip > 0 {
                state.config.skip -= 1;
                return Ok(());
            }
            match state.config.times {
                Some(0) => return Ok(()),
                Some(ref mut n) => *n -= 1,
                None => {}
            }
            state.config.action.clone()
        };
        // Run the action outside the registry lock so a panicking or
        // sleeping site never blocks other sites.
        match action {
            FailAction::Error(msg) => Err(msg),
            FailAction::Panic(msg) => panic!("failpoint {site}: {msg}"),
            FailAction::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
        }
    }
    #[cfg(not(feature = "failpoints"))]
    {
        Ok(())
    }
}

/// RAII handle that configures a site on construction and removes it
/// on drop, so a failing test cannot leak configuration into others.
#[derive(Debug)]
pub struct FailGuard {
    site: String,
}

impl FailGuard {
    /// Configure `site` with `config`; the configuration is removed
    /// when the returned guard drops.
    pub fn new(site: impl Into<String>, config: FailConfig) -> Self {
        let site = site.into();
        configure(site.clone(), config);
        Self { site }
    }

    /// The site this guard controls.
    pub fn site(&self) -> &str {
        &self.site
    }
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        remove(&self.site);
    }
}
