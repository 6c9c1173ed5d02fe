//! Objective vectors and Pareto dominance (maximisation convention).

/// A vector of objective values, **all maximised**.
///
/// ```
/// use tagio_ga::objectives::Objectives;
/// let a = Objectives::from(vec![1.0, 2.0]);
/// let b = Objectives::from(vec![0.5, 2.0]);
/// assert!(a.dominates(&b));
/// assert!(!b.dominates(&a));
/// ```
///
/// The default is the empty vector, a placeholder that allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Objectives(Vec<f64>);

impl Objectives {
    /// Number of objectives.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when there are no objectives.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The objective values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Pareto dominance: `self` is at least as good in every objective and
    /// strictly better in at least one.
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    #[must_use]
    pub fn dominates(&self, other: &Objectives) -> bool {
        assert_eq!(self.0.len(), other.0.len(), "objective arity mismatch");
        let mut strictly_better = false;
        for (a, b) in self.0.iter().zip(&other.0) {
            if a < b {
                return false;
            }
            if a > b {
                strictly_better = true;
            }
        }
        strictly_better
    }

    /// Weighted sum `Σ w_k · f_k` (scalarisation used by the paper's
    /// uniform weight spread).
    ///
    /// # Panics
    /// Panics if `weights` has a different length.
    #[must_use]
    pub fn weighted_sum(&self, weights: &[f64]) -> f64 {
        assert_eq!(self.0.len(), weights.len(), "weight arity mismatch");
        self.0.iter().zip(weights).map(|(f, w)| f * w).sum()
    }
}

impl From<Vec<f64>> for Objectives {
    fn from(v: Vec<f64>) -> Self {
        Objectives(v)
    }
}

impl FromIterator<f64> for Objectives {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Objectives(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(v: &[f64]) -> Objectives {
        Objectives::from(v.to_vec())
    }

    #[test]
    fn dominance_requires_strict_improvement() {
        assert!(!o(&[1.0, 1.0]).dominates(&o(&[1.0, 1.0])));
        assert!(o(&[1.0, 2.0]).dominates(&o(&[1.0, 1.0])));
    }

    #[test]
    fn dominance_is_antisymmetric() {
        let a = o(&[2.0, 1.0]);
        let b = o(&[1.0, 2.0]);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a)); // incomparable
    }

    #[test]
    fn dominance_transitive_chain() {
        let a = o(&[3.0, 3.0]);
        let b = o(&[2.0, 2.0]);
        let c = o(&[1.0, 1.0]);
        assert!(a.dominates(&b) && b.dominates(&c) && a.dominates(&c));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let _ = o(&[1.0]).dominates(&o(&[1.0, 2.0]));
    }

    #[test]
    fn weighted_sum_computes() {
        assert_eq!(o(&[1.0, 3.0]).weighted_sum(&[0.5, 0.5]), 2.0);
        assert_eq!(o(&[1.0, 3.0]).weighted_sum(&[1.0, 0.0]), 1.0);
    }
}
