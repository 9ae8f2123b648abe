//! The rule set. Each module exports one [`crate::Rule`] implementation;
//! the inventory lives in [`crate::all_rules`].

pub mod atomics_audit;
pub mod blocking_under_lock;
pub mod condvar_discipline;
pub mod failpoint_registry;
pub mod hot_path_panic;
pub mod instrument_routing;
pub mod lock_order;
pub mod raw_clock;
pub mod safety_comment;
pub mod wire_error_codes;
