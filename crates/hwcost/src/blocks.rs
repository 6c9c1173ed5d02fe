//! Parametric cost models of the controller's architectural blocks.
//!
//! Each block's resource cost is derived from its structural parameters
//! (widths, depths, opcode counts). The coefficients are calibrated against
//! the paper's Vivado 2017.4 / VC709 synthesis results (Table I): composing
//! the GPIOCP out of `{host interface, command store, two FIFO channels,
//! EXU, timer}` reproduces its published row exactly, and adding the
//! scheduling-support blocks `{scheduling table, synchroniser, fault
//! recovery}` reproduces the proposed controller's row — so the *structural
//! reason* for the overhead (Table I's +30.5% LUTs / +52.2% registers over
//! GPIOCP) is explicit in the model.

use crate::resources::ResourceEstimate;

/// An architectural block with a parametric resource cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// Bus/NoC-facing interface for pre-loading and requests ("Port A").
    HostInterface,
    /// BRAM command store of the controller memory.
    CommandStore {
        /// Capacity in kilobytes.
        kb: u32,
    },
    /// A FIFO channel (request or response path).
    FifoChannel {
        /// Queue depth in entries.
        depth: u32,
        /// Entry width in bits.
        width_bits: u32,
    },
    /// The command executor.
    Exu {
        /// Number of opcodes decoded.
        opcodes: u32,
    },
    /// The free-running global timer.
    GlobalTimer {
        /// Counter width in bits.
        bits: u32,
    },
    /// The scheduling table (BRAM entries + trigger comparators).
    SchedulingTable {
        /// Number of table rows.
        entries: u32,
        /// Bits per row (job id + start time + enable).
        entry_bits: u32,
    },
    /// The synchroniser (fetch, translate, dispatch at trigger instants).
    Synchroniser,
    /// The run-time fault-recovery unit.
    FaultRecovery,
}

const fn log2_ceil(x: u32) -> u32 {
    let mut bits = 0;
    let mut v = 1u64;
    while v < x as u64 {
        v <<= 1;
        bits += 1;
    }
    bits
}

impl Block {
    /// The block's resource cost.
    #[must_use]
    pub fn cost(&self) -> ResourceEstimate {
        match *self {
            Block::HostInterface => ResourceEstimate {
                luts: 220,
                registers: 140,
                dsps: 0,
                bram_kb: 0,
                power_mw: 1,
            },
            Block::CommandStore { kb } => ResourceEstimate {
                luts: 120,
                registers: 80,
                dsps: 0,
                bram_kb: kb,
                power_mw: kb.div_ceil(8),
            },
            Block::FifoChannel { depth, width_bits } => {
                let registers = depth * width_bits / 4 + 12;
                ResourceEstimate {
                    luts: registers * 55 / 100 + 13,
                    registers,
                    dsps: 0,
                    bram_kb: 0,
                    power_mw: 1,
                }
            }
            Block::Exu { opcodes } => ResourceEstimate {
                luts: 230 + 10 * opcodes,
                registers: 90,
                dsps: 0,
                bram_kb: 0,
                power_mw: 1,
            },
            Block::GlobalTimer { bits } => ResourceEstimate {
                luts: bits + 8,
                registers: bits + 7,
                dsps: 0,
                bram_kb: 0,
                power_mw: 1,
            },
            Block::SchedulingTable {
                entries,
                entry_bits,
            } => {
                let addr = log2_ceil(entries);
                ResourceEstimate {
                    luts: 40 + 10 * addr,
                    registers: 70 + 10 * addr,
                    dsps: 0,
                    bram_kb: entries * entry_bits / 8 / 1024,
                    power_mw: (entries * entry_bits / 8 / 1024).div_ceil(8),
                }
            }
            Block::Synchroniser => ResourceEstimate {
                luts: 60,
                registers: 80,
                dsps: 0,
                bram_kb: 0,
                power_mw: 1,
            },
            Block::FaultRecovery => ResourceEstimate {
                luts: 60,
                registers: 77,
                dsps: 0,
                bram_kb: 0,
                power_mw: 1,
            },
        }
    }
}

/// Sums the cost of a block list.
#[must_use]
pub fn total_cost(blocks: &[Block]) -> ResourceEstimate {
    blocks.iter().map(Block::cost).sum()
}

/// The GPIOCP's default block structure (reference \[2\]): host interface,
/// 16 KB command store, request/response FIFOs, 8-opcode EXU and a 48-bit
/// timer.
#[must_use]
pub fn gpiocp_blocks() -> Vec<Block> {
    vec![
        Block::HostInterface,
        Block::CommandStore { kb: 16 },
        Block::FifoChannel {
            depth: 16,
            width_bits: 32,
        },
        Block::FifoChannel {
            depth: 16,
            width_bits: 32,
        },
        Block::Exu { opcodes: 8 },
        Block::GlobalTimer { bits: 48 },
    ]
}

/// The proposed controller: GPIOCP's structure plus the offline-scheduling
/// support of §IV — a 2048-entry × 64-bit scheduling table, the
/// synchroniser and the fault-recovery unit.
#[must_use]
pub fn proposed_blocks() -> Vec<Block> {
    let mut blocks = gpiocp_blocks();
    blocks.push(Block::SchedulingTable {
        entries: 2048,
        entry_bits: 64,
    });
    blocks.push(Block::Synchroniser);
    blocks.push(Block::FaultRecovery);
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_basics() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(2048), 11);
        assert_eq!(log2_ceil(2049), 12);
    }

    #[test]
    fn fifo_scales_with_depth_and_width() {
        let small = Block::FifoChannel {
            depth: 8,
            width_bits: 16,
        }
        .cost();
        let big = Block::FifoChannel {
            depth: 32,
            width_bits: 32,
        }
        .cost();
        assert!(big.registers > small.registers);
        assert!(big.luts > small.luts);
    }

    #[test]
    fn command_store_bram_equals_capacity() {
        let c = Block::CommandStore { kb: 16 }.cost();
        assert_eq!(c.bram_kb, 16);
        assert_eq!(c.power_mw, 2);
    }

    #[test]
    fn scheduling_table_bram_from_geometry() {
        let c = Block::SchedulingTable {
            entries: 2048,
            entry_bits: 64,
        }
        .cost();
        assert_eq!(c.bram_kb, 16); // 2048 * 64 bits = 16 KB
        assert_eq!(c.luts, 150);
        assert_eq!(c.registers, 180);
    }

    #[test]
    fn no_block_uses_dsps() {
        for b in proposed_blocks() {
            assert_eq!(b.cost().dsps, 0, "{b:?}");
        }
    }

    #[test]
    fn gpiocp_composition_matches_table1_row() {
        let total = total_cost(&gpiocp_blocks());
        assert_eq!(total.luts, 886);
        assert_eq!(total.registers, 645);
        assert_eq!(total.dsps, 0);
        assert_eq!(total.bram_kb, 16);
        assert_eq!(total.power_mw, 7);
    }

    #[test]
    fn proposed_composition_matches_table1_row() {
        let total = total_cost(&proposed_blocks());
        assert_eq!(total.luts, 1156);
        assert_eq!(total.registers, 982);
        assert_eq!(total.dsps, 0);
        assert_eq!(total.bram_kb, 32);
        assert_eq!(total.power_mw, 11);
    }

    #[test]
    fn scheduling_support_is_the_delta() {
        let gpiocp = total_cost(&gpiocp_blocks());
        let proposed = total_cost(&proposed_blocks());
        // Table I: +30.5% LUTs, +52.2% registers over GPIOCP.
        let lut_overhead = proposed.lut_ratio_percent(&gpiocp) - 100.0;
        let reg_overhead = proposed.register_ratio_percent(&gpiocp) - 100.0;
        assert!((lut_overhead - 30.5).abs() < 0.5, "{lut_overhead}");
        assert!((reg_overhead - 52.2).abs() < 0.5, "{reg_overhead}");
    }
}
