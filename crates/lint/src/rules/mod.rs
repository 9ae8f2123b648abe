//! The rule set. Each module exports one [`crate::Rule`] implementation;
//! the inventory lives in [`crate::all_rules`].

pub mod failpoint_registry;
pub mod instrument_routing;
pub mod raw_clock;
