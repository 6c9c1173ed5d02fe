//! The comparison components of Table I.
//!
//! The MicroBlaze variants and the vendor I/O controllers are *measured
//! reference points*: the paper synthesised Xilinx IP with Vivado 2017.4 on
//! a VC709, and we carry those published numbers as data (we cannot re-run
//! Vivado here — see DESIGN.md §4). The GPIOCP and the proposed controller
//! are *composed* from the parametric block model in [`crate::blocks`],
//! which is calibrated to land on the published rows.

use crate::blocks::{gpiocp_blocks, proposed_blocks, total_cost};
use crate::resources::ResourceEstimate;

/// A named row of the hardware-overhead comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Display name (as in Table I).
    pub name: &'static str,
    /// Resource utilisation.
    pub cost: ResourceEstimate,
    /// `true` when the numbers are published measurements rather than
    /// model compositions.
    pub reference: bool,
}

/// The proposed timing-accurate I/O controller (composed from blocks).
#[must_use]
pub fn proposed() -> Component {
    Component {
        name: "Proposed",
        cost: total_cost(&proposed_blocks()),
        reference: false,
    }
}

/// GPIOCP (composed from blocks; matches the published row).
#[must_use]
pub fn gpiocp() -> Component {
    Component {
        name: "GPIOCP",
        cost: total_cost(&gpiocp_blocks()),
        reference: false,
    }
}

/// Basic MicroBlaze (MB-B), published reference.
#[must_use]
pub fn microblaze_basic() -> Component {
    Component {
        name: "MB-B",
        cost: ResourceEstimate {
            luts: 854,
            registers: 529,
            dsps: 0,
            bram_kb: 16,
            power_mw: 127,
        },
        reference: true,
    }
}

/// Full-featured MicroBlaze (MB-F), published reference.
#[must_use]
pub fn microblaze_full() -> Component {
    Component {
        name: "MB-F",
        cost: ResourceEstimate {
            luts: 4908,
            registers: 4385,
            dsps: 6,
            bram_kb: 128,
            power_mw: 238,
        },
        reference: true,
    }
}

/// Xilinx UART-lite controller, published reference.
#[must_use]
pub fn uart() -> Component {
    Component {
        name: "UART",
        cost: ResourceEstimate {
            luts: 93,
            registers: 85,
            dsps: 0,
            bram_kb: 0,
            power_mw: 1,
        },
        reference: true,
    }
}

/// Xilinx SPI controller, published reference.
#[must_use]
pub fn spi() -> Component {
    Component {
        name: "SPI",
        cost: ResourceEstimate {
            luts: 334,
            registers: 552,
            dsps: 0,
            bram_kb: 0,
            power_mw: 4,
        },
        reference: true,
    }
}

/// Xilinx CAN controller, published reference.
#[must_use]
pub fn can() -> Component {
    Component {
        name: "CAN",
        cost: ResourceEstimate {
            luts: 711,
            registers: 604,
            dsps: 0,
            bram_kb: 0,
            power_mw: 5,
        },
        reference: true,
    }
}

/// All rows of Table I, in the paper's order.
#[must_use]
pub fn table1_components() -> Vec<Component> {
    vec![
        proposed(),
        microblaze_basic(),
        microblaze_full(),
        uart(),
        spi(),
        can(),
        gpiocp(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_paper_rows_in_order() {
        let names: Vec<&str> = table1_components().iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            vec!["Proposed", "MB-B", "MB-F", "UART", "SPI", "CAN", "GPIOCP"]
        );
    }

    #[test]
    fn paper_claim_fraction_of_mb_f() {
        // "23.6% LUTs, 22.4% registers" of a full MicroBlaze.
        let p = proposed().cost;
        let mbf = microblaze_full().cost;
        assert!((p.lut_ratio_percent(&mbf) - 23.6).abs() < 0.1);
        assert!((p.register_ratio_percent(&mbf) - 22.4).abs() < 0.1);
    }

    #[test]
    fn paper_claim_similar_to_mb_b() {
        // "135.4% LUTs, 185.6% registers" of a basic MicroBlaze.
        let p = proposed().cost;
        let mbb = microblaze_basic().cost;
        assert!((p.lut_ratio_percent(&mbb) - 135.4).abs() < 0.1);
        assert!((p.register_ratio_percent(&mbb) - 185.6).abs() < 0.1);
    }

    #[test]
    fn paper_claim_power_fractions() {
        // "only 8.7% and 4.6% power compared to the MB-B and MB-F".
        let p = proposed().cost;
        assert!((p.power_ratio_percent(&microblaze_basic().cost) - 8.7).abs() < 0.1);
        assert!((p.power_ratio_percent(&microblaze_full().cost) - 4.6).abs() < 0.1);
    }

    #[test]
    fn paper_claim_overhead_vs_gpiocp() {
        // "additional 30.5% LUTs, 52.2% registers" over GPIOCP.
        let p = proposed().cost;
        let g = gpiocp().cost;
        assert!((p.lut_ratio_percent(&g) - 130.5).abs() < 0.1);
        assert!((p.register_ratio_percent(&g) - 152.2).abs() < 0.1);
    }

    #[test]
    fn simple_io_controllers_are_far_smaller() {
        let p = proposed().cost;
        for c in [uart(), spi(), can()] {
            assert!(c.cost.luts < p.luts);
            assert!(c.cost.bram_kb == 0);
        }
    }

    #[test]
    fn only_mb_f_uses_dsps() {
        for c in table1_components() {
            if c.name == "MB-F" {
                assert_eq!(c.cost.dsps, 6);
            } else {
                assert_eq!(c.cost.dsps, 0, "{}", c.name);
            }
        }
    }
}
