//! # pstack-node — node-level power management
//!
//! The node layer of the PowerStack (paper Table 2: "PlatformIO, Variorum,
//! Libmsr, PowerAPI, x86_adapt, Cpufreq"): a safe, uniform control/telemetry
//! surface over the simulated hardware that upper layers (runtimes, the
//! resource manager) actuate without touching raw model state.
//!
//! - [`signals`]: a Variorum-style typed signal catalog (`read(signal)`).
//! - [`manager`]: [`NodeManager`] — knob setters with bounds/ownership checks,
//!   power-history recording, per-step accounting.
//! - [`cursor`]: [`WorkloadCursor`] — a per-node cursor over an application's
//!   phase sequence, the execution primitive job runtimes drive.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod cursor;
pub mod manager;
pub mod signals;

pub use cursor::WorkloadCursor;
pub use manager::{NodeManager, NodeStepReport};
pub use signals::Signal;
