//! The controller memory (paper §IV): stores pre-loaded I/O tasks and
//! serves fetches from the controller processors.
//!
//! The paper reuses GPIOCP's memory unit, which exposes an external port
//! for pre-loading (Phase 1) and internal ports for the synchronisers'
//! fetch-and-translate during execution (Phase 3). Capacity mirrors the
//! synthesised BRAM budget (32 KB in Table I).

use crate::command::CommandBlock;
use core::fmt;
use std::collections::BTreeMap;
use tagio_core::task::TaskId;

/// Pre-loading failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PreloadError {
    /// The memory cannot hold the block.
    CapacityExceeded {
        /// Bytes that would be used.
        needed: usize,
        /// Bytes available.
        capacity: usize,
    },
    /// The task already has a block loaded.
    AlreadyLoaded {
        /// The duplicated task.
        task: TaskId,
    },
}

impl fmt::Display for PreloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CapacityExceeded { needed, capacity } => {
                write!(
                    f,
                    "controller memory exceeded: need {needed} of {capacity} bytes"
                )
            }
            Self::AlreadyLoaded { task } => {
                write!(f, "task {task} already pre-loaded")
            }
        }
    }
}

impl std::error::Error for PreloadError {}

/// The pre-load command store.
///
/// ```
/// use tagio_controller::command::CommandBlock;
/// use tagio_controller::memory::ControllerMemory;
/// use tagio_core::task::TaskId;
///
/// # fn main() -> Result<(), tagio_controller::memory::PreloadError> {
/// let mut mem = ControllerMemory::with_capacity(1024);
/// mem.preload(TaskId(0), CommandBlock::pulse(3, 50))?;
/// assert!(mem.fetch(TaskId(0)).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerMemory {
    blocks: BTreeMap<TaskId, CommandBlock>,
    capacity: usize,
}

impl ControllerMemory {
    /// The Table I BRAM budget of the proposed controller (32 KB).
    pub const PAPER_CAPACITY: usize = 32 * 1024;

    /// A memory with the paper's 32 KB capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::PAPER_CAPACITY)
    }

    /// A memory with an explicit byte capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        ControllerMemory {
            blocks: BTreeMap::new(),
            capacity,
        }
    }

    /// Bytes currently used.
    #[must_use]
    pub fn used_bytes(&self) -> usize {
        self.blocks.values().map(CommandBlock::encoded_bytes).sum()
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pre-loaded tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when nothing is loaded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Pre-loads `block` for `task` (Phase 1, via Port A).
    ///
    /// # Errors
    /// [`PreloadError::CapacityExceeded`] if the block does not fit;
    /// [`PreloadError::AlreadyLoaded`] if the task already has a block.
    pub fn preload(&mut self, task: TaskId, block: CommandBlock) -> Result<(), PreloadError> {
        if self.blocks.contains_key(&task) {
            return Err(PreloadError::AlreadyLoaded { task });
        }
        let needed = self.used_bytes() + block.encoded_bytes();
        if needed > self.capacity {
            return Err(PreloadError::CapacityExceeded {
                needed,
                capacity: self.capacity,
            });
        }
        self.blocks.insert(task, block);
        Ok(())
    }

    /// Fetches the block of `task` (Phase 3, synchroniser port).
    #[must_use]
    pub fn fetch(&self, task: TaskId) -> Option<&CommandBlock> {
        self.blocks.get(&task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_and_fetch_roundtrip() {
        let mut mem = ControllerMemory::new();
        let block = CommandBlock::pulse(1, 10);
        mem.preload(TaskId(3), block.clone()).unwrap();
        assert_eq!(mem.fetch(TaskId(3)), Some(&block));
        assert_eq!(mem.fetch(TaskId(4)), None);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut mem = ControllerMemory::with_capacity(8);
        // pulse = 3 commands = 12 bytes > 8
        let err = mem
            .preload(TaskId(0), CommandBlock::pulse(0, 1))
            .unwrap_err();
        assert!(matches!(err, PreloadError::CapacityExceeded { .. }));
        assert!(mem.is_empty());
    }

    #[test]
    fn duplicate_preload_rejected() {
        let mut mem = ControllerMemory::new();
        mem.preload(TaskId(0), CommandBlock::sample()).unwrap();
        let err = mem.preload(TaskId(0), CommandBlock::sample()).unwrap_err();
        assert!(matches!(err, PreloadError::AlreadyLoaded { .. }));
    }

    #[test]
    fn used_bytes_tracks_blocks() {
        let mut mem = ControllerMemory::new();
        mem.preload(TaskId(0), CommandBlock::pulse(0, 1)).unwrap(); // 12
        mem.preload(TaskId(1), CommandBlock::sample()).unwrap(); // 4
        assert_eq!(mem.used_bytes(), 16);
        assert_eq!(mem.len(), 2);
    }

    #[test]
    fn paper_capacity_matches_table1() {
        assert_eq!(ControllerMemory::new().capacity(), 32 * 1024);
    }
}
