//! # pstack-sim — discrete-event simulation kernel
//!
//! Foundation of the PowerStack simulator. Provides:
//!
//! - [`SimTime`] / [`SimDuration`]: integer-microsecond simulated time, immune to
//!   floating-point drift over long horizons.
//! - [`EventQueue`]: a deterministic priority queue of timestamped events with
//!   FIFO tie-breaking, plus event cancellation.
//! - [`Engine`]: a generic event-loop driver over a user [`Process`] state machine.
//! - [`rng`]: deterministic, component-splittable random number generation so
//!   every experiment is exactly reproducible from a single master seed.
//! - [`trace`]: structured trace recording for post-hoc analysis and figure
//!   regeneration.
//!
//! The rest of the workspace co-simulates continuous quantities (power, thermal,
//! application progress) by integrating across the intervals between discrete
//! events, so the kernel itself only needs exact ordering and bookkeeping.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod engine;
pub mod event;
pub mod rng;
pub mod time;
pub mod trace;

pub use engine::{Engine, Process};
pub use event::{EventEntry, EventId, EventQueue};
pub use rng::SeedTree;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceRecorder};
