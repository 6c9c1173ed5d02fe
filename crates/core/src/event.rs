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

use crate::task::{DeviceId, IoTask, TaskId, TenantId};
use crate::time::Time;
use core::fmt;
use serde::{Deserialize, Serialize};

/// Identifier of an operating mode (a named activation pattern over a
/// task pool).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mode {
    /// The mode's identity.
    pub id: ModeId,
    /// Tasks active in this mode, by id. Order is irrelevant; duplicates
    /// are ignored by consumers.
    pub active: Vec<TaskId>,
}

/// One run-time disturbance against a live schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// A short lowercase tag naming the event kind (used by trace formats
    /// and per-kind statistics).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SystemEvent::Arrival(_) => "arrival",
            SystemEvent::Departure(_) => "departure",
            SystemEvent::ModeChange(_) => "mode-change",
            SystemEvent::UtilisationSpike { .. } => "spike",
            SystemEvent::PartitionDeath { .. } => "death",
        }
    }

    /// The device partition the event names, when it names one: an
    /// arrival's task device, a spike's target, or a death's victim.
    /// Departures and mode changes are device-free (they are resolved by
    /// task ownership) and return `None`. Fleet routers read this as the
    /// event's *origin* partition hint.
    #[must_use]
    pub fn device(&self) -> Option<DeviceId> {
        match self {
            SystemEvent::Arrival(task) => Some(task.device()),
            SystemEvent::UtilisationSpike { device, .. }
            | SystemEvent::PartitionDeath { device } => Some(*device),
            SystemEvent::Departure(_) | SystemEvent::ModeChange(_) => None,
        }
    }

    /// The tenant the event acts for, when it carries one: an arrival's
    /// task tenant. Every other kind is tenant-free — departures and mode
    /// changes are resolved by task ownership, spikes and deaths are
    /// infrastructure events — and returns `None`. Fleet routers use this
    /// for per-tenant admission accounting and quota enforcement.
    #[must_use]
    pub fn tenant(&self) -> Option<TenantId> {
        match self {
            SystemEvent::Arrival(task) => Some(task.tenant()),
            SystemEvent::Departure(_)
            | SystemEvent::ModeChange(_)
            | SystemEvent::UtilisationSpike { .. }
            | SystemEvent::PartitionDeath { .. } => None,
        }
    }

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// When the event occurs.
    pub at: Time,
    /// What happens.
    pub event: SystemEvent,
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn kinds_name_every_variant() {
        assert_eq!(SystemEvent::Arrival(task(0)).kind(), "arrival");
        assert_eq!(SystemEvent::Departure(TaskId(0)).kind(), "departure");
        assert_eq!(
            SystemEvent::ModeChange(Mode {
                id: ModeId(1),
                active: vec![TaskId(0)],
            })
            .kind(),
            "mode-change"
        );
        assert_eq!(
            SystemEvent::UtilisationSpike {
                device: DeviceId(0),
                percent: 150,
            }
            .kind(),
            "spike"
        );
        assert_eq!(
            SystemEvent::PartitionDeath {
                device: DeviceId(2),
            }
            .kind(),
            "death"
        );
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
        assert_eq!(trace[0].event.kind(), "arrival");
    }

    #[test]
    fn events_expose_their_device() {
        assert_eq!(SystemEvent::Arrival(task(0)).device(), Some(DeviceId(0)));
        assert_eq!(SystemEvent::Departure(TaskId(1)).device(), None);
        let spike = SystemEvent::UtilisationSpike {
            device: DeviceId(4),
            percent: 120,
        };
        assert_eq!(spike.device(), Some(DeviceId(4)));
        let mode = SystemEvent::ModeChange(Mode {
            id: ModeId(0),
            active: vec![],
        });
        assert_eq!(mode.device(), None);
        let death = SystemEvent::PartitionDeath {
            device: DeviceId(6),
        };
        assert_eq!(death.device(), Some(DeviceId(6)));
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
        let arrival = SystemEvent::Arrival(tenanted);
        assert_eq!(arrival.tenant(), Some(TenantId(7)));
        assert_eq!(arrival.retargeted(DeviceId(3)).tenant(), Some(TenantId(7)));
        // The anonymous default and the tenant-free kinds.
        assert_eq!(SystemEvent::Arrival(task(1)).tenant(), Some(TenantId(0)));
        assert!(TenantId::default().is_anonymous());
        assert_eq!(SystemEvent::Departure(TaskId(1)).tenant(), None);
        assert_eq!(
            SystemEvent::PartitionDeath {
                device: DeviceId(0),
            }
            .tenant(),
            None
        );
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
            spike.retargeted(DeviceId(1)).device(),
            Some(DeviceId(1)),
            "spikes follow the new partition"
        );
        let depart = SystemEvent::Departure(TaskId(7));
        assert_eq!(depart.retargeted(DeviceId(9)), depart);
        let death = SystemEvent::PartitionDeath {
            device: DeviceId(0),
        };
        assert_eq!(
            death.retargeted(DeviceId(5)).device(),
            Some(DeviceId(5)),
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
