//! Quality curves for timed I/O operations (paper Fig. 1).
//!
//! A job executed exactly at its ideal start instant yields the maximum
//! quality `Vmax`. Within the timing boundary `[δ − θ, δ + θ]` the quality
//! decays with the distance from the ideal instant; outside the boundary —
//! but still before the deadline — the minimum quality `Vmin` is obtained.
//!
//! The paper notes the exact shape is application-dependent and evaluates a
//! common *linear* curve, which is the one shape [`QualityCurve`] models.

use crate::time::{Duration, Time};

/// A quality curve `V(t)` anchored at a job's ideal start instant: linear
/// decay from `Vmax` at the ideal instant to `Vmin` at distance `θ`.
///
/// ```
/// use tagio_core::quality::QualityCurve;
/// use tagio_core::time::{Time, Duration};
///
/// let curve = QualityCurve::linear(5.0, 1.0);
/// let ideal = Time::from_millis(10);
/// let theta = Duration::from_millis(2);
/// assert_eq!(curve.value(ideal, theta, ideal), 5.0);            // exact
/// assert_eq!(curve.value(ideal, theta, ideal + theta), 1.0);    // boundary
/// assert_eq!(curve.value(ideal, theta, ideal + theta * 2), 1.0);// outside
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityCurve {
    vmax: f64,
    vmin: f64,
}

impl QualityCurve {
    /// A linear curve with the given extrema.
    ///
    /// # Panics
    /// Panics if the extrema are not finite or `vmax < vmin`.
    #[must_use]
    pub fn linear(vmax: f64, vmin: f64) -> Self {
        assert!(
            vmax.is_finite() && vmin.is_finite() && vmax >= vmin,
            "quality extrema must be finite with vmax >= vmin"
        );
        QualityCurve { vmax, vmin }
    }

    /// Evaluates the curve for a job with ideal start `ideal` and margin
    /// `theta`, executed at `start`.
    ///
    /// A zero margin degenerates to: `Vmax` exactly at the ideal instant,
    /// `Vmin` everywhere else.
    #[must_use]
    pub fn value(&self, ideal: Time, theta: Duration, start: Time) -> f64 {
        let dist = start.abs_diff(ideal);
        if dist.is_zero() {
            return self.vmax;
        }
        if dist >= theta {
            return self.vmin;
        }
        let frac = dist.as_micros() as f64 / theta.as_micros() as f64;
        self.vmax - (self.vmax - self.vmin) * frac
    }
}

impl Default for QualityCurve {
    /// A unit linear curve (`Vmax = 1`, `Vmin = 0`).
    fn default() -> Self {
        QualityCurve::linear(1.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDEAL: Time = Time::from_millis(10);
    const THETA: Duration = Duration::from_millis(2);

    #[test]
    fn linear_interpolates_midpoint() {
        let c = QualityCurve::linear(4.0, 2.0);
        let halfway = IDEAL + Duration::from_millis(1);
        assert!((c.value(IDEAL, THETA, halfway) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn linear_is_symmetric() {
        let c = QualityCurve::linear(4.0, 2.0);
        let d = Duration::from_micros(777);
        assert_eq!(
            c.value(IDEAL, THETA, IDEAL + d),
            c.value(IDEAL, THETA, IDEAL - d)
        );
    }

    #[test]
    fn boundary_yields_vmin() {
        let c = QualityCurve::linear(4.0, 2.0);
        assert_eq!(c.value(IDEAL, THETA, IDEAL + THETA), 2.0);
        assert_eq!(c.value(IDEAL, THETA, IDEAL - THETA), 2.0);
    }

    #[test]
    fn outside_window_yields_vmin() {
        let c = QualityCurve::linear(4.0, 2.0);
        assert_eq!(c.value(IDEAL, THETA, IDEAL + THETA * 3), 2.0);
    }

    #[test]
    fn zero_margin_is_exact_or_min() {
        let c = QualityCurve::linear(4.0, 2.0);
        assert_eq!(c.value(IDEAL, Duration::ZERO, IDEAL), 4.0);
        assert_eq!(
            c.value(IDEAL, Duration::ZERO, IDEAL + Duration::from_micros(1)),
            2.0
        );
    }

    #[test]
    #[should_panic(expected = "vmax >= vmin")]
    fn inverted_extrema_panic() {
        let _ = QualityCurve::linear(1.0, 2.0);
    }

    #[test]
    fn negative_vmin_penalty_supported() {
        // Safety-critical systems may use a large penalty value (footnote 1).
        let c = QualityCurve::linear(5.0, -1000.0);
        assert_eq!(c.value(IDEAL, THETA, IDEAL + THETA * 2), -1000.0);
    }
}
