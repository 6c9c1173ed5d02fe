//! FPGA resource estimates.

use core::iter::Sum;
use core::ops::Add;

/// Post-synthesis resource utilisation of one component (the columns of the
/// paper's Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceEstimate {
    /// Look-up tables.
    pub luts: u32,
    /// Flip-flop registers.
    pub registers: u32,
    /// DSP slices.
    pub dsps: u32,
    /// Block RAM, in kilobytes.
    pub bram_kb: u32,
    /// Estimated dynamic power, in milliwatts.
    pub power_mw: u32,
}

impl ResourceEstimate {
    /// A zero estimate.
    pub const ZERO: ResourceEstimate = ResourceEstimate {
        luts: 0,
        registers: 0,
        dsps: 0,
        bram_kb: 0,
        power_mw: 0,
    };

    /// Ratio of this component's LUTs to another's, in percent.
    ///
    /// # Panics
    /// Panics if `other` has zero LUTs.
    #[must_use]
    pub fn lut_ratio_percent(&self, other: &ResourceEstimate) -> f64 {
        assert!(other.luts > 0, "reference has no LUTs");
        f64::from(self.luts) / f64::from(other.luts) * 100.0
    }

    /// Ratio of this component's registers to another's, in percent.
    ///
    /// # Panics
    /// Panics if `other` has zero registers.
    #[must_use]
    pub fn register_ratio_percent(&self, other: &ResourceEstimate) -> f64 {
        assert!(other.registers > 0, "reference has no registers");
        f64::from(self.registers) / f64::from(other.registers) * 100.0
    }

    /// Ratio of this component's power to another's, in percent.
    ///
    /// # Panics
    /// Panics if `other` draws no power.
    #[must_use]
    pub fn power_ratio_percent(&self, other: &ResourceEstimate) -> f64 {
        assert!(other.power_mw > 0, "reference draws no power");
        f64::from(self.power_mw) / f64::from(other.power_mw) * 100.0
    }
}

impl Add for ResourceEstimate {
    type Output = ResourceEstimate;
    fn add(self, rhs: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            luts: self.luts + rhs.luts,
            registers: self.registers + rhs.registers,
            dsps: self.dsps + rhs.dsps,
            bram_kb: self.bram_kb + rhs.bram_kb,
            power_mw: self.power_mw + rhs.power_mw,
        }
    }
}

impl Sum for ResourceEstimate {
    fn sum<I: Iterator<Item = ResourceEstimate>>(iter: I) -> ResourceEstimate {
        iter.fold(ResourceEstimate::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ResourceEstimate = ResourceEstimate {
        luts: 100,
        registers: 50,
        dsps: 1,
        bram_kb: 16,
        power_mw: 5,
    };

    #[test]
    fn addition_is_componentwise() {
        let b = A + A;
        assert_eq!(b.luts, 200);
        assert_eq!(b.registers, 100);
        assert_eq!(b.dsps, 2);
        assert_eq!(b.bram_kb, 32);
        assert_eq!(b.power_mw, 10);
    }

    #[test]
    fn sum_over_iterator() {
        let total: ResourceEstimate = vec![A, A, ResourceEstimate::ZERO].into_iter().sum();
        assert_eq!(total, A + A);
    }

    #[test]
    fn ratios_in_percent() {
        let b = ResourceEstimate {
            luts: 50,
            registers: 100,
            dsps: 0,
            bram_kb: 0,
            power_mw: 10,
        };
        assert!((A.lut_ratio_percent(&b) - 200.0).abs() < 1e-9);
        assert!((A.register_ratio_percent(&b) - 50.0).abs() < 1e-9);
        assert!((A.power_ratio_percent(&b) - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no LUTs")]
    fn ratio_against_zero_panics() {
        let _ = A.lut_ratio_percent(&ResourceEstimate::ZERO);
    }
}
