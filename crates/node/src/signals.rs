//! Variorum/PowerAPI-style typed signal catalog.
//!
//! Upper layers read node telemetry through named signals rather than by
//! reaching into model internals — the "standard interface to interact with
//! ... hardware knobs across different vendor HPC systems" the paper calls
//! for. Each signal maps to one measured or derived quantity.

use serde::{Deserialize, Serialize};

/// Readable node signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Signal {
    /// Instantaneous node power, watts.
    NodePowerWatts,
    /// Total node energy since boot, joules.
    NodeEnergyJoules,
    /// Mean effective core frequency across packages, GHz.
    CoreFreqGhz,
    /// Hottest package temperature, °C.
    MaxTemperatureC,
    /// Instructions retired (summed over packages).
    InstructionsRetired,
    /// Unhalted core cycles (summed).
    CoreCycles,
    /// Floating-point operations (summed).
    FlopsRetired,
    /// DRAM bytes moved (summed).
    DramBytes,
    /// Microseconds spent in MPI (summed).
    MpiTimeUs,
    /// Microseconds of MPI wait slack (summed).
    MpiWaitUs,
    /// Application progress units completed (summed).
    Progress,
    /// The node power cap, watts (NaN when uncapped).
    PowerCapWatts,
}

impl Signal {
    /// All signals, for enumeration in catalogs and tests.
    pub const ALL: [Signal; 12] = [
        Signal::NodePowerWatts,
        Signal::NodeEnergyJoules,
        Signal::CoreFreqGhz,
        Signal::MaxTemperatureC,
        Signal::InstructionsRetired,
        Signal::CoreCycles,
        Signal::FlopsRetired,
        Signal::DramBytes,
        Signal::MpiTimeUs,
        Signal::MpiWaitUs,
        Signal::Progress,
        Signal::PowerCapWatts,
    ];

    /// Unit string.
    pub fn unit(self) -> &'static str {
        match self {
            Signal::NodePowerWatts | Signal::PowerCapWatts => "W",
            Signal::NodeEnergyJoules => "J",
            Signal::CoreFreqGhz => "GHz",
            Signal::MaxTemperatureC => "degC",
            Signal::InstructionsRetired | Signal::CoreCycles | Signal::FlopsRetired => "count",
            Signal::DramBytes => "bytes",
            Signal::MpiTimeUs | Signal::MpiWaitUs => "us",
            Signal::Progress => "work",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_signals_have_units() {
        for s in Signal::ALL {
            assert!(!s.unit().is_empty());
        }
    }

    /// INV-ND-001: unit strings the stack's vocabulary understands. Power
    /// is always watts (never mW) and energy always joules.
    fn unknown_units<'a>(units: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
        const KNOWN: [&str; 8] = ["W", "J", "GHz", "degC", "count", "bytes", "us", "work"];
        units.into_iter().filter(|u| !KNOWN.contains(u)).collect()
    }

    #[test]
    fn signal_units_come_from_the_known_set() {
        assert_eq!(
            unknown_units(Signal::ALL.map(Signal::unit)),
            Vec::<&str>::new()
        );
        assert_eq!(unknown_units(["W", "mW"]), ["mW"]);
    }

    #[test]
    fn catalog_is_exhaustive() {
        assert_eq!(Signal::ALL.len(), 12);
    }
}
