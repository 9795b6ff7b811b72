//! MLP-limited core model.
//!
//! Each core commits one instruction per nanosecond while it is not
//! blocked. Every `instructions_per_miss` committed instructions it emits
//! a memory request; it blocks when its miss window (memory-level
//! parallelism) is full. This is the standard first-order model for
//! memory-bound multiprogrammed throughput studies: IPC degrades exactly
//! with memory service time, which is what the Fig.-14 experiment
//! measures.

use serde::{Deserialize, Serialize};

use crate::workload::{Access, AccessStream};

/// Maximum outstanding misses per core (memory-level parallelism).
pub const DEFAULT_MLP: usize = 4;

/// One simulated core.
#[derive(Debug, Clone)]
pub struct Core {
    stream: AccessStream,
    /// Committed instructions.
    pub instructions: u64,
    /// Instructions until the next miss is generated.
    until_miss: u64,
    /// Outstanding misses.
    pub outstanding: usize,
    /// Maximum outstanding misses.
    pub mlp: usize,
    /// A generated access waiting to be enqueued by the controller.
    pending: Option<Access>,
}

/// What a core did during one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreEvent {
    /// Committed an instruction (possibly also generating a miss).
    Progress,
    /// Blocked on a full miss window.
    Stalled,
}

impl Core {
    /// Creates a core over the given access stream.
    pub fn new(stream: AccessStream) -> Self {
        let until_miss = stream.instructions_per_miss();
        Core {
            stream,
            instructions: 0,
            until_miss,
            outstanding: 0,
            mlp: DEFAULT_MLP,
            pending: None,
        }
    }

    /// Advances the core by one nanosecond. Returns the event, and the
    /// controller should drain [`take_request`](Self::take_request)
    /// afterwards.
    pub fn step(&mut self) -> CoreEvent {
        if self.stalled() {
            return CoreEvent::Stalled;
        }
        self.instructions += 1;
        self.until_miss -= 1;
        if self.until_miss == 0 {
            self.until_miss = self.stream.instructions_per_miss();
            self.pending = Some(self.stream.next_access());
        }
        CoreEvent::Progress
    }

    /// Whether the core is blocked: a generated request awaits the
    /// controller or the miss window is full.
    fn stalled(&self) -> bool {
        self.pending.is_some() || self.outstanding >= self.mlp
    }

    /// How many more steps, this one excluded, until an unstalled core
    /// generates its next request; `None` while it is stalled. The core
    /// stays as it is (stalled or not) until then or until a miss
    /// completes.
    pub(crate) fn next_request_in(&self) -> Option<u64> {
        (!self.stalled()).then_some(self.until_miss)
    }

    /// Performs `steps` steps in one add. An unstalled core commits one
    /// instruction per step and must not reach its next request
    /// (`steps < next_request_in()`); a stalled one stays as it is.
    pub(crate) fn skip(&mut self, steps: u64) {
        if self.stalled() {
            return;
        }
        debug_assert!(steps < self.until_miss, "a skip must stop before the next request");
        self.instructions += steps;
        self.until_miss -= steps;
    }

    /// Takes the generated request, if any, marking it outstanding.
    pub fn take_request(&mut self) -> Option<Access> {
        let access = self.pending.take()?;
        self.outstanding += 1;
        Some(access)
    }

    /// Notifies the core that one of its misses completed.
    ///
    /// # Panics
    ///
    /// Panics if no miss is outstanding.
    pub fn complete_miss(&mut self) {
        assert!(self.outstanding > 0, "no outstanding miss to complete");
        self.outstanding -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadParams;

    fn core() -> Core {
        Core::new(AccessStream::new(WorkloadParams::memory_intensive(100.0), 4, 7))
    }

    #[test]
    fn commits_until_miss_window_fills() {
        let mut c = core();
        // MPKI 100 → one miss per 10 instructions; MLP 4 → the core can
        // run 40 instructions before it must stall (requests unserviced).
        let mut committed = 0;
        for _ in 0..200 {
            if c.step() == CoreEvent::Progress {
                committed += 1;
            }
            let _ = c.take_request();
        }
        assert_eq!(committed, 40);
        assert_eq!(c.outstanding, 4);
    }

    #[test]
    fn completing_misses_unblocks() {
        let mut c = core();
        for _ in 0..100 {
            c.step();
            let _ = c.take_request();
        }
        assert_eq!(c.step(), CoreEvent::Stalled);
        c.complete_miss();
        assert_eq!(c.step(), CoreEvent::Progress);
    }

    #[test]
    fn pending_request_blocks_until_taken() {
        let mut c = core();
        for _ in 0..10 {
            c.step();
        }
        // 10th instruction generated a miss that was never drained.
        assert_eq!(c.step(), CoreEvent::Stalled);
        assert!(c.take_request().is_some());
        assert_eq!(c.step(), CoreEvent::Progress);
    }

    #[test]
    fn ipc_accounting() {
        let mut c = core();
        for _ in 0..10 {
            c.step();
            let _ = c.take_request();
        }
        // Drained misses never stall the core: one instruction per step.
        assert_eq!(c.instructions, 10);
    }

    #[test]
    fn skip_equals_single_steps() {
        let mut stepped = core();
        let mut skipped = core();
        for _ in 0..3 {
            let steps = skipped.next_request_in().expect("unstalled");
            skipped.skip(steps - 1);
            skipped.step();
            for _ in 0..steps {
                stepped.step();
            }
            assert_eq!(skipped.take_request(), stepped.take_request());
            assert_eq!(skipped.instructions, stepped.instructions);
        }
        // Stalled on a full window: a skip commits nothing.
        for _ in 0..100 {
            skipped.step();
            let _ = skipped.take_request();
        }
        assert_eq!(skipped.next_request_in(), None);
        let before = skipped.instructions;
        skipped.skip(1_000);
        assert_eq!(skipped.instructions, before);
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn complete_without_outstanding_panics() {
        core().complete_miss();
    }
}
