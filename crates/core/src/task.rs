//! The timed I/O task model (paper Section II).
//!
//! A timed I/O request is a periodic task `τi = {Ci, Ti, Di, Pi, δi, θi}`:
//! worst-case device operation time `Ci`, period `Ti`, deadline `Di`
//! (implicit, `Di = Ti`), deadline-monotonic priority `Pi`, *ideal start
//! offset* `δi` (relative to each release) at which the I/O operation should
//! ideally occur, and *timing margin* `θi` bounding the window
//! `[δi − θi, δi + θi]` in which the operation still yields above-minimum
//! quality.
//!
//! ```
//! use tagio_core::task::{IoTask, TaskId, DeviceId};
//! use tagio_core::time::Duration;
//!
//! # fn main() -> Result<(), tagio_core::error::ValidateTaskError> {
//! let task = IoTask::builder(TaskId(0), DeviceId(0))
//!     .wcet(Duration::from_micros(500))
//!     .period(Duration::from_millis(10))
//!     .ideal_offset(Duration::from_millis(4))
//!     .margin(Duration::from_micros(2_500))
//!     .build()?;
//! assert_eq!(task.deadline(), task.period()); // implicit deadline
//! # Ok(())
//! # }
//! ```

use crate::error::ValidateTaskError;
use crate::time::{checked_lcm, lcm, Duration};
use core::fmt;
use std::collections::BTreeMap;

/// Identifier of an I/O task within a [`TaskSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(pub u32);

/// Identifier of an I/O device (one controller-processor partition each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub u32);

/// Identifier of the **tenant** an I/O task belongs to.
///
/// Tenant `0` is the *anonymous* tenant: untenanted workloads (every
/// trace written before the tenancy tier existed) carry it implicitly,
/// and no per-tenant accounting is performed for it — so an anonymous
/// stream behaves and serialises bit-identically to the pre-tenant
/// system. The online service layer (`tagio-online`) maps non-anonymous
/// tenants onto quotas and QoS classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The anonymous tenant carried by untenanted workloads.
    pub const ANONYMOUS: TenantId = TenantId(0);

    /// Whether this is the anonymous (unaccounted) tenant.
    #[must_use]
    pub fn is_anonymous(self) -> bool {
        self.0 == 0
    }
}

/// A fixed task priority. **Larger numeric value means higher priority.**
///
/// Deadline-monotonic priority ordering ([`TaskSet::assign_dmpo`]) gives the
/// shortest-deadline task the largest value, matching the paper's convention
/// that `D1 > D2 ⇒ P1 < P2` and `Vmax = Pi + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tn{}", self.0)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A periodic timed I/O task (paper Section II, the 6-tuple
/// `{Ci, Ti, Di, Pi, δi, θi}` plus its quality extrema `Vmax`/`Vmin`).
///
/// Construct with [`IoTask::builder`]; the builder validates the model
/// invariants (see [`IoTaskBuilder::build`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IoTask {
    id: TaskId,
    device: DeviceId,
    wcet: Duration,
    period: Duration,
    deadline: Duration,
    priority: Priority,
    ideal_offset: Duration,
    margin: Duration,
    vmax: f64,
    vmin: f64,
    release_offset: Duration,
    tenant: TenantId,
}

impl IoTask {
    /// Starts building a task bound to `device`.
    #[must_use]
    pub fn builder(id: TaskId, device: DeviceId) -> IoTaskBuilder {
        IoTaskBuilder {
            id,
            device,
            wcet: Duration::ZERO,
            period: Duration::ZERO,
            deadline: None,
            priority: Priority(0),
            ideal_offset: Duration::ZERO,
            margin: Duration::ZERO,
            vmax: 1.0,
            vmin: 0.0,
            release_offset: Duration::ZERO,
            tenant: TenantId::ANONYMOUS,
        }
    }

    /// Task identifier.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The I/O device this task operates on (its scheduling partition).
    #[must_use]
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The same task re-bound to another device partition. All timing
    /// and quality parameters are device-independent, so no re-validation
    /// is needed — this is how a fleet router moves an arrival between
    /// partitions.
    #[must_use]
    pub fn retarget(&self, device: DeviceId) -> IoTask {
        IoTask {
            device,
            ..self.clone()
        }
    }

    /// Worst-case device operation time `Ci`.
    #[must_use]
    pub fn wcet(&self) -> Duration {
        self.wcet
    }

    /// Period `Ti`.
    #[must_use]
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Relative deadline `Di` (implicit: equals the period unless overridden).
    #[must_use]
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Fixed priority `Pi` (larger value = higher priority).
    #[must_use]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Ideal start offset `δi` relative to each release.
    #[must_use]
    pub fn ideal_offset(&self) -> Duration {
        self.ideal_offset
    }

    /// Timing margin `θi` around the ideal start.
    #[must_use]
    pub fn margin(&self) -> Duration {
        self.margin
    }

    /// Release offset `Oi`: the task's first job releases at `Oi` instead
    /// of the epoch (paper §III.C — "the proposed methods can also be
    /// applied to I/O tasks with different release offsets"). Zero by
    /// default.
    #[must_use]
    pub fn release_offset(&self) -> Duration {
        self.release_offset
    }

    /// The tenant this task belongs to ([`TenantId::ANONYMOUS`] unless
    /// set at build time). Tenancy is routing/accounting metadata: it
    /// never participates in the timing model or schedule validation.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Maximum quality `Vmax`, obtained when starting exactly at `δi`.
    #[must_use]
    pub fn vmax(&self) -> f64 {
        self.vmax
    }

    /// Minimum quality `Vmin`, obtained when the job completes by its
    /// deadline but starts outside `[δi − θi, δi + θi]`.
    #[must_use]
    pub fn vmin(&self) -> f64 {
        self.vmin
    }

    /// The task utilisation `Ci / Ti`.
    #[must_use]
    pub fn utilisation(&self) -> f64 {
        self.wcet.as_micros() as f64 / self.period.as_micros() as f64
    }

    /// Overrides the priority (used by [`TaskSet::assign_dmpo`]).
    pub fn set_priority(&mut self, priority: Priority) {
        self.priority = priority;
    }

    /// Overrides `Vmax` (the paper sets `Vmax = Pi + 1` after DMPO).
    ///
    /// The builder invariant — both extrema finite, `Vmax ≥ Vmin` — is
    /// preserved: a non-finite value is ignored, and `Vmin` is clamped
    /// down when the new peak undercuts it. The quality layer treats a
    /// violated invariant as a programming error (it panics), so it must
    /// be unrepresentable here, not merely discouraged.
    pub fn set_vmax(&mut self, vmax: f64) {
        if vmax.is_finite() {
            self.vmax = vmax;
            self.vmin = self.vmin.min(vmax);
        }
    }

    /// Overrides `Vmin` (same invariant handling as [`IoTask::set_vmax`]:
    /// non-finite values are ignored, `Vmax` is raised to cover the new
    /// floor).
    pub fn set_vmin(&mut self, vmin: f64) {
        if vmin.is_finite() {
            self.vmin = vmin;
            self.vmax = self.vmax.max(vmin);
        }
    }
}

/// Builder for [`IoTask`]; see the [module documentation](self) for an
/// example.
#[derive(Debug, Clone)]
pub struct IoTaskBuilder {
    id: TaskId,
    device: DeviceId,
    wcet: Duration,
    period: Duration,
    deadline: Option<Duration>,
    priority: Priority,
    ideal_offset: Duration,
    margin: Duration,
    vmax: f64,
    vmin: f64,
    release_offset: Duration,
    tenant: TenantId,
}

impl IoTaskBuilder {
    /// Sets the worst-case device operation time `Ci`.
    #[must_use]
    pub fn wcet(mut self, wcet: Duration) -> Self {
        self.wcet = wcet;
        self
    }

    /// Sets the period `Ti`.
    #[must_use]
    pub fn period(mut self, period: Duration) -> Self {
        self.period = period;
        self
    }

    /// Sets an explicit relative deadline `Di` (defaults to the period).
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the fixed priority `Pi`.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the ideal start offset `δi`.
    #[must_use]
    pub fn ideal_offset(mut self, offset: Duration) -> Self {
        self.ideal_offset = offset;
        self
    }

    /// Sets the timing margin `θi`.
    #[must_use]
    pub fn margin(mut self, margin: Duration) -> Self {
        self.margin = margin;
        self
    }

    /// Sets the quality extrema (`Vmax`, `Vmin`).
    #[must_use]
    pub fn quality(mut self, vmax: f64, vmin: f64) -> Self {
        self.vmax = vmax;
        self.vmin = vmin;
        self
    }

    /// Sets the release offset `Oi` (§III.C; must be smaller than the
    /// period).
    #[must_use]
    pub fn release_offset(mut self, offset: Duration) -> Self {
        self.release_offset = offset;
        self
    }

    /// Sets the owning tenant (defaults to [`TenantId::ANONYMOUS`]).
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Validates and builds the task.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateTaskError`] if any model invariant is violated:
    /// `Ci > 0`, `Ti > 0`, `Ci ≤ Di ≤ Ti`, `δi + Ci ≤ Di` (a job starting at
    /// its ideal instant can still meet its deadline), `δi ≥ θi` and
    /// `δi + θi ≤ Di` (the quality window lies inside the release window),
    /// `Vmax ≥ Vmin`, and both quality values are finite.
    ///
    /// The paper's evaluation additionally enforces `θi ≥ Ci`; that is a
    /// workload-generation choice (`tagio-workload` applies it), not a model
    /// invariant, so the builder permits `θi < Ci`.
    pub fn build(self) -> Result<IoTask, ValidateTaskError> {
        let IoTaskBuilder {
            id,
            device,
            wcet,
            period,
            deadline,
            priority,
            ideal_offset,
            margin,
            vmax,
            vmin,
            release_offset,
            tenant,
        } = self;
        let deadline = deadline.unwrap_or(period);
        if wcet.is_zero() {
            return Err(ValidateTaskError::new(id, "wcet must be positive"));
        }
        if period.is_zero() {
            return Err(ValidateTaskError::new(id, "period must be positive"));
        }
        if deadline > period {
            return Err(ValidateTaskError::new(id, "deadline exceeds period"));
        }
        if wcet > deadline {
            return Err(ValidateTaskError::new(id, "wcet exceeds deadline"));
        }
        if ideal_offset + wcet > deadline {
            return Err(ValidateTaskError::new(
                id,
                "ideal start leaves no room to complete before the deadline",
            ));
        }
        if margin > ideal_offset {
            return Err(ValidateTaskError::new(
                id,
                "margin extends before the release (requires delta >= theta)",
            ));
        }
        if ideal_offset + margin > deadline {
            return Err(ValidateTaskError::new(
                id,
                "margin extends past the deadline (requires delta + theta <= D)",
            ));
        }
        if !vmax.is_finite() || !vmin.is_finite() || vmax < vmin {
            return Err(ValidateTaskError::new(
                id,
                "quality extrema must be finite with vmax >= vmin",
            ));
        }
        if release_offset >= period {
            return Err(ValidateTaskError::new(
                id,
                "release offset must be smaller than the period",
            ));
        }
        Ok(IoTask {
            id,
            device,
            wcet,
            period,
            deadline,
            priority,
            ideal_offset,
            margin,
            vmax,
            vmin,
            release_offset,
            tenant,
        })
    }
}

/// An ordered collection of I/O tasks `Γ = {τ1 … τn}`.
///
/// Tasks keep their insertion order; task ids must be unique.
///
/// ```
/// use tagio_core::task::{IoTask, TaskId, DeviceId, TaskSet};
/// use tagio_core::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut set = TaskSet::new();
/// set.push(
///     IoTask::builder(TaskId(0), DeviceId(0))
///         .wcet(Duration::from_micros(100))
///         .period(Duration::from_millis(4))
///         .ideal_offset(Duration::from_millis(1))
///         .margin(Duration::from_micros(1000))
///         .build()?,
/// )?;
/// assert_eq!(set.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskSet {
    tasks: Vec<IoTask>,
}

impl TaskSet {
    /// Creates an empty task set.
    #[must_use]
    pub fn new() -> Self {
        TaskSet { tasks: Vec::new() }
    }

    /// Adds a task.
    ///
    /// # Errors
    /// Returns [`ValidateTaskError`] if a task with the same id exists.
    pub fn push(&mut self, task: IoTask) -> Result<(), ValidateTaskError> {
        if self.tasks.iter().any(|t| t.id() == task.id()) {
            return Err(ValidateTaskError::new(task.id(), "duplicate task id"));
        }
        self.tasks.push(task);
        Ok(())
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the set holds no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over tasks in insertion order.
    pub fn iter(&self) -> core::slice::Iter<'_, IoTask> {
        self.tasks.iter()
    }

    /// Looks up a task by id.
    #[must_use]
    pub fn get(&self, id: TaskId) -> Option<&IoTask> {
        self.tasks.iter().find(|t| t.id() == id)
    }

    /// Total utilisation `U = Σ Ci/Ti`.
    #[must_use]
    pub fn utilisation(&self) -> f64 {
        self.tasks.iter().map(IoTask::utilisation).sum()
    }

    /// The hyper-period (LCM of all periods).
    ///
    /// Returns [`Duration::ZERO`] for an empty set.
    #[must_use]
    pub fn hyperperiod(&self) -> Duration {
        self.tasks
            .iter()
            .map(IoTask::period)
            .reduce(lcm)
            .unwrap_or(Duration::ZERO)
    }

    /// Jobs per hyper-period, `Σ H/Tᵢ`, counted without building them:
    /// the length of [`JobSet::expand`](crate::job::JobSet::expand)'s
    /// set. `None` when the hyper-period or the count overflows `u64`.
    #[must_use]
    pub fn job_count(&self) -> Option<u64> {
        let mut periods = self.tasks.iter().map(IoTask::period);
        let Some(first) = periods.next() else {
            return Some(0);
        };
        let hyperperiod = periods.try_fold(first, checked_lcm)?.as_micros();
        self.tasks.iter().try_fold(0u64, |count, t| {
            count.checked_add(hyperperiod.checked_div(t.period().as_micros())?)
        })
    }

    /// Assigns deadline-monotonic priorities: the shortest relative deadline
    /// receives the highest priority (largest numeric value), ties broken by
    /// task id (smaller id wins). Also sets `Vmax = Pi + 1` as in the paper's
    /// evaluation (§V.A), leaving `Vmin` untouched.
    pub fn assign_dmpo(&mut self) {
        let mut order: Vec<usize> = (0..self.tasks.len()).collect();
        // Longest deadline first => gets the lowest priority value 0.
        order.sort_by(|&a, &b| {
            self.tasks[b]
                .deadline()
                .cmp(&self.tasks[a].deadline())
                .then(self.tasks[b].id().cmp(&self.tasks[a].id()))
        });
        for (level, idx) in order.into_iter().enumerate() {
            let p = Priority(level as u32);
            self.tasks[idx].set_priority(p);
            let vmax = f64::from(p.0) + 1.0;
            self.tasks[idx].set_vmax(vmax);
        }
    }

    /// Sets a common `Vmin` on every task (the paper uses a global
    /// `Vmin = 1`).
    pub fn set_global_vmin(&mut self, vmin: f64) {
        for t in &mut self.tasks {
            t.set_vmin(vmin);
        }
    }

    /// Splits the set into per-device partitions (fully-partitioned model,
    /// paper §III). Partitions are keyed by [`DeviceId`] and preserve task
    /// order.
    #[must_use]
    pub fn partitions(&self) -> BTreeMap<DeviceId, TaskSet> {
        let mut map: BTreeMap<DeviceId, TaskSet> = BTreeMap::new();
        for t in &self.tasks {
            map.entry(t.device()).or_default().tasks.push(t.clone());
        }
        map
    }
}

impl FromIterator<IoTask> for TaskSet {
    /// Collects tasks into a set.
    ///
    /// # Panics
    /// Panics on duplicate task ids; use [`TaskSet::push`] for fallible
    /// insertion.
    fn from_iter<I: IntoIterator<Item = IoTask>>(iter: I) -> Self {
        let mut set = TaskSet::new();
        for t in iter {
            set.push(t).expect("duplicate task id in FromIterator");
        }
        set
    }
}

impl Extend<IoTask> for TaskSet {
    /// # Panics
    /// Panics on duplicate task ids.
    fn extend<I: IntoIterator<Item = IoTask>>(&mut self, iter: I) {
        for t in iter {
            self.push(t).expect("duplicate task id in Extend");
        }
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a IoTask;
    type IntoIter = core::slice::Iter<'a, IoTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

impl IntoIterator for TaskSet {
    type Item = IoTask;
    type IntoIter = std::vec::IntoIter<IoTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u32, period_ms: u64, wcet_us: u64) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(wcet_us))
            .period(Duration::from_millis(period_ms))
            .ideal_offset(Duration::from_millis(period_ms) / 2)
            .margin(Duration::from_millis(period_ms) / 4)
            .build()
            .expect("valid test task")
    }

    #[test]
    fn builder_defaults_implicit_deadline() {
        let t = task(0, 10, 100);
        assert_eq!(t.deadline(), t.period());
        assert_eq!(t.device(), DeviceId(0));
    }

    #[test]
    fn builder_rejects_zero_wcet() {
        let err = IoTask::builder(TaskId(1), DeviceId(0))
            .period(Duration::from_millis(1))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("wcet"));
    }

    #[test]
    fn builder_rejects_zero_period() {
        assert!(IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(1))
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_deadline_longer_than_period() {
        assert!(IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(1))
            .period(Duration::from_millis(1))
            .deadline(Duration::from_millis(2))
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_margin_before_release() {
        // delta < theta: quality window would start before the release.
        assert!(IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(10))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(50))
            .margin(Duration::from_micros(100))
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_margin_past_deadline() {
        assert!(IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(10))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(950))
            .margin(Duration::from_micros(100))
            .build()
            .is_err());
    }

    #[test]
    fn quality_overrides_preserve_the_builder_invariant() {
        let mut t = IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(10))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(500))
            .margin(Duration::from_micros(100))
            .quality(5.0, 2.0)
            .build()
            .unwrap();
        // Non-finite overrides are ignored outright.
        t.set_vmax(f64::NAN);
        t.set_vmax(f64::INFINITY);
        t.set_vmin(f64::NEG_INFINITY);
        assert_eq!((t.vmax(), t.vmin()), (5.0, 2.0));
        // Crossing overrides drag the other extremum along.
        t.set_vmax(1.0);
        assert_eq!((t.vmax(), t.vmin()), (1.0, 1.0));
        t.set_vmin(3.0);
        assert_eq!((t.vmax(), t.vmin()), (3.0, 3.0));
    }

    #[test]
    fn retarget_moves_only_the_device() {
        let t = IoTask::builder(TaskId(3), DeviceId(0))
            .wcet(Duration::from_micros(10))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(500))
            .margin(Duration::from_micros(100))
            .build()
            .unwrap();
        let moved = t.retarget(DeviceId(7));
        assert_eq!(moved.device(), DeviceId(7));
        assert_eq!(moved.id(), t.id());
        assert_eq!(moved.wcet(), t.wcet());
        assert_eq!(moved.period(), t.period());
        assert_eq!(moved.ideal_offset(), t.ideal_offset());
    }

    #[test]
    fn builder_permits_margin_below_wcet() {
        // theta >= C is an evaluation-setup rule, not a model invariant.
        assert!(IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(300))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(500))
            .margin(Duration::from_micros(200))
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_ideal_start_too_late() {
        assert!(IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(200))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(900))
            .margin(Duration::from_micros(0))
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_inverted_quality() {
        assert!(IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(10))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(500))
            .margin(Duration::from_micros(100))
            .quality(0.0, 1.0)
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_offset_at_or_past_period() {
        assert!(IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(10))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(500))
            .margin(Duration::from_micros(100))
            .release_offset(Duration::from_millis(1))
            .build()
            .is_err());
    }

    #[test]
    fn builder_accepts_offset_within_period() {
        let t = IoTask::builder(TaskId(1), DeviceId(0))
            .wcet(Duration::from_micros(10))
            .period(Duration::from_millis(1))
            .ideal_offset(Duration::from_micros(500))
            .margin(Duration::from_micros(100))
            .release_offset(Duration::from_micros(999))
            .build()
            .unwrap();
        assert_eq!(t.release_offset(), Duration::from_micros(999));
    }

    #[test]
    fn utilisation_is_c_over_t() {
        let t = task(0, 10, 1000); // 1ms / 10ms
        assert!((t.utilisation() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn taskset_rejects_duplicate_ids() {
        let mut set = TaskSet::new();
        set.push(task(0, 10, 100)).unwrap();
        assert!(set.push(task(0, 20, 100)).is_err());
    }

    #[test]
    fn hyperperiod_is_lcm_of_periods() {
        let set: TaskSet = vec![task(0, 10, 100), task(1, 12, 100), task(2, 15, 100)]
            .into_iter()
            .collect();
        assert_eq!(set.hyperperiod(), Duration::from_millis(60));
    }

    #[test]
    fn hyperperiod_of_empty_set_is_zero() {
        assert_eq!(TaskSet::new().hyperperiod(), Duration::ZERO);
    }

    #[test]
    fn job_count_is_the_expansion_length_or_none_on_overflow() {
        let set: TaskSet = vec![task(0, 10, 100), task(1, 12, 100), task(2, 15, 100)]
            .into_iter()
            .collect();
        assert_eq!(set.job_count(), Some(6 + 5 + 4));
        let expanded = crate::job::JobSet::expand(&set).len();
        assert_eq!(set.job_count(), Some(expanded as u64));
        assert_eq!(TaskSet::new().job_count(), Some(0));
        // Consecutive periods are co-prime: 2³² ms and 2³² + 1 ms have a
        // hyper-period past `u64::MAX` µs, which `hyperperiod` panics on.
        let overflowing: TaskSet = vec![task(0, 1 << 32, 100), task(1, (1 << 32) + 1, 100)]
            .into_iter()
            .collect();
        assert_eq!(overflowing.job_count(), None);
    }

    #[test]
    fn dmpo_orders_by_deadline_and_sets_vmax() {
        let mut set: TaskSet = vec![task(0, 40, 100), task(1, 10, 100), task(2, 20, 100)]
            .into_iter()
            .collect();
        set.assign_dmpo();
        let p0 = set.get(TaskId(0)).unwrap().priority();
        let p1 = set.get(TaskId(1)).unwrap().priority();
        let p2 = set.get(TaskId(2)).unwrap().priority();
        // Shortest deadline (task 1, 10ms) gets the highest priority value.
        assert!(p1 > p2 && p2 > p0);
        assert_eq!(set.get(TaskId(1)).unwrap().vmax(), f64::from(p1.0) + 1.0);
    }

    #[test]
    fn dmpo_breaks_ties_by_task_id() {
        let mut set: TaskSet = vec![task(3, 10, 100), task(1, 10, 100)]
            .into_iter()
            .collect();
        set.assign_dmpo();
        assert!(
            set.get(TaskId(1)).unwrap().priority() > set.get(TaskId(3)).unwrap().priority(),
            "equal deadlines: smaller id wins"
        );
    }

    #[test]
    fn partitions_group_by_device() {
        let mut set = TaskSet::new();
        let mk = |id: u32, dev: u32| {
            IoTask::builder(TaskId(id), DeviceId(dev))
                .wcet(Duration::from_micros(100))
                .period(Duration::from_millis(10))
                .ideal_offset(Duration::from_millis(5))
                .margin(Duration::from_micros(2500))
                .build()
                .unwrap()
        };
        set.push(mk(0, 0)).unwrap();
        set.push(mk(1, 1)).unwrap();
        set.push(mk(2, 0)).unwrap();
        let parts = set.partitions();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[&DeviceId(0)].len(), 2);
        assert_eq!(parts[&DeviceId(1)].len(), 1);
    }

    #[test]
    fn set_global_vmin_applies_to_all() {
        let mut set: TaskSet = vec![task(0, 10, 100), task(1, 20, 100)]
            .into_iter()
            .collect();
        set.set_global_vmin(1.0);
        assert!(set.iter().all(|t| t.vmin() == 1.0));
    }

    #[test]
    fn taskset_utilisation_sums_tasks() {
        let set: TaskSet = vec![task(0, 10, 1000), task(1, 10, 2000)]
            .into_iter()
            .collect();
        assert!((set.utilisation() - 0.3).abs() < 1e-12);
    }
}
