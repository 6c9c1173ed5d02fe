//! Run-time system events for *online* scheduling.
//!
//! The paper's methods are offline: a task set is fixed, a schedule is
//! synthesised once, and the controller replays it forever. A deployed
//! system is not that static — timed I/O requests appear and disappear,
//! the application switches operating modes, and device operations take
//! longer under load. This module is the shared vocabulary for those
//! disturbances: a [`SystemEvent`] stream drives the online scheduling
//! service (`tagio-online`), which admits, repairs or sheds against a
//! live [`Schedule`](crate::schedule::Schedule).
//!
//! Events carry plain model types ([`IoTask`], [`TaskId`], [`DeviceId`])
//! so any layer — scenario generators, trace files, the controller
//! simulator — can produce or consume them without knowing the service.

use crate::task::{DeviceId, IoTask, TaskId};
use crate::time::Time;
use core::fmt;

/// Identifier of an operating mode (a named activation pattern over a
/// task pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ModeId(pub u32);

impl fmt::Display for ModeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An operating mode: which tasks of the service's known pool are active.
///
/// A mode change is a batch reconfiguration — tasks leaving the active set
/// depart, tasks entering it arrive (subject to admission control).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mode {
    /// The mode's identity.
    pub id: ModeId,
    /// Tasks active in this mode, by id. Order is irrelevant; duplicates
    /// are ignored by consumers.
    pub active: Vec<TaskId>,
}

/// One run-time disturbance against a live schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemEvent {
    /// A new timed I/O request stream asks to join the system. The online
    /// service runs admission control and either integrates the task into
    /// the running schedule or rejects it.
    Arrival(IoTask),
    /// An admitted task leaves; its jobs are removed from the schedule
    /// (trivially feasibility-preserving).
    Departure(TaskId),
    /// Switch to `mode`: departures for active tasks not in the mode,
    /// arrivals (re-admissions from the pool) for inactive ones that are.
    ModeChange(Mode),
    /// Device operations on `device` now take `percent`% of their nominal
    /// worst case (a value above 100 models overload, below 100 relief).
    /// The service re-validates and sheds load if the schedule no longer
    /// fits.
    UtilisationSpike {
        /// The affected partition.
        device: DeviceId,
        /// New WCET as a percentage of the *nominal* (admission-time)
        /// WCET. Clamped to at least 1 µs per task by consumers.
        percent: u32,
    },
    /// The partition serving `device` crashed and restarted empty. The
    /// partition loses all live state (active tasks, schedule, spike
    /// scaling); a fleet router reacts by mass re-admitting the dead
    /// partition's tasks onto surviving partitions via its retry
    /// machinery, diagnosing the ones it cannot rehome.
    PartitionDeath {
        /// The partition that died.
        device: DeviceId,
    },
}

impl SystemEvent {
    /// The event re-bound to `device`: an arrival's task is re-targeted
    /// ([`IoTask::retarget`]) and a spike renames its partition; the
    /// device-free kinds are returned unchanged. This is the routing
    /// primitive of a multi-partition fleet — an arrival rejected by one
    /// partition is re-offered to another by retargeting it.
    #[must_use]
    pub fn retargeted(&self, device: DeviceId) -> SystemEvent {
        match self {
            SystemEvent::Arrival(task) => SystemEvent::Arrival(task.retarget(device)),
            SystemEvent::UtilisationSpike { percent, .. } => SystemEvent::UtilisationSpike {
                device,
                percent: *percent,
            },
            SystemEvent::PartitionDeath { .. } => SystemEvent::PartitionDeath { device },
            other => other.clone(),
        }
    }
}

/// A [`SystemEvent`] stamped with its occurrence instant (relative to the
/// schedule epoch). Event traces are ordered by `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// When the event occurs.
    pub at: Time,
    /// What happens.
    pub event: SystemEvent,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TenantId;
    use crate::time::Duration;

    fn task(id: u32) -> IoTask {
        IoTask::builder(TaskId(id), DeviceId(0))
            .wcet(Duration::from_micros(100))
            .period(Duration::from_millis(4))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .build()
            .unwrap()
    }

    #[test]
    fn timed_events_order_by_instant() {
        let mut trace = [
            TimedEvent {
                at: Time::from_millis(9),
                event: SystemEvent::Departure(TaskId(1)),
            },
            TimedEvent {
                at: Time::from_millis(2),
                event: SystemEvent::Arrival(task(2)),
            },
        ];
        trace.sort_by_key(|e| e.at);
        assert_eq!(trace[0].at, Time::from_millis(2));
        assert!(matches!(trace[0].event, SystemEvent::Arrival(_)));
    }

    #[test]
    fn arrivals_carry_their_tenant_through_retargeting() {
        let tenanted = IoTask::builder(TaskId(0), DeviceId(0))
            .wcet(Duration::from_micros(100))
            .period(Duration::from_millis(4))
            .ideal_offset(Duration::from_millis(2))
            .margin(Duration::from_millis(1))
            .tenant(TenantId(7))
            .build()
            .unwrap();
        match SystemEvent::Arrival(tenanted).retargeted(DeviceId(3)) {
            SystemEvent::Arrival(t) => {
                assert_eq!(t.device(), DeviceId(3));
                assert_eq!(t.tenant(), TenantId(7));
            }
            other => panic!("{other:?}"),
        }
        // The anonymous default.
        assert_eq!(task(1).tenant(), TenantId(0));
        assert!(TenantId::default().is_anonymous());
    }

    #[test]
    fn retargeting_moves_arrivals_and_spikes_only() {
        let arrival = SystemEvent::Arrival(task(0));
        match arrival.retargeted(DeviceId(2)) {
            SystemEvent::Arrival(t) => {
                assert_eq!(t.device(), DeviceId(2));
                assert_eq!(t.id(), TaskId(0));
                assert_eq!(t.wcet(), task(0).wcet());
            }
            other => panic!("{other:?}"),
        }
        let spike = SystemEvent::UtilisationSpike {
            device: DeviceId(0),
            percent: 150,
        };
        assert_eq!(
            spike.retargeted(DeviceId(1)),
            SystemEvent::UtilisationSpike {
                device: DeviceId(1),
                percent: 150,
            },
            "spikes follow the new partition"
        );
        let depart = SystemEvent::Departure(TaskId(7));
        assert_eq!(depart.retargeted(DeviceId(9)), depart);
        let death = SystemEvent::PartitionDeath {
            device: DeviceId(0),
        };
        assert_eq!(
            death.retargeted(DeviceId(5)),
            SystemEvent::PartitionDeath {
                device: DeviceId(5),
            },
            "deaths follow the new partition"
        );
    }

    #[test]
    fn mode_display_and_identity() {
        assert_eq!(ModeId(3).to_string(), "m3");
        let m = Mode {
            id: ModeId(0),
            active: vec![TaskId(1), TaskId(2)],
        };
        assert_eq!(m.clone(), m);
    }
}
