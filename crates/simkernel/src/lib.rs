//! # pstack-sim — simulation kernel primitives
//!
//! Foundation of the PowerStack simulator. Provides:
//!
//! - [`SimTime`] / [`SimDuration`]: integer-microsecond simulated time, immune to
//!   floating-point drift over long horizons.
//! - [`rng`]: deterministic, component-splittable random number generation so
//!   every experiment is exactly reproducible from a single master seed.
//! - [`trace`]: structured trace recording for post-hoc analysis and figure
//!   regeneration.
//!
//! The kernel has no event queue of its own: the resource manager orders its
//! discrete events on `pstack_rm::EventHeap`, and the rest of the workspace
//! co-simulates continuous quantities (power, thermal, application progress)
//! by integrating across the intervals between them, so the kernel only
//! supplies exact time, seeding and trace bookkeeping.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod rng;
pub mod time;
pub mod trace;

pub use rng::SeedTree;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceRecorder};
