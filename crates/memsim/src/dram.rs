//! DDR5 channel model: banks, open rows, and timing constraints.
//!
//! Time is counted in nanoseconds (`u64`). Each bank tracks its open row
//! and the earliest time each command class may issue; the channel adds
//! periodic all-bank refresh and a shared data bus.

use serde::{Deserialize, Serialize};

/// DDR5 channel timing (ns), matching the paper's Table 6 where
/// applicable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTiming {
    /// ACT-to-column delay.
    pub t_rcd: u64,
    /// Precharge latency.
    pub t_rp: u64,
    /// Minimum row-open time.
    pub t_ras: u64,
    /// ACT-to-ACT same bank (`t_RAS + t_RP`).
    pub t_rc: u64,
    /// Data-bus occupancy of one burst.
    pub t_burst: u64,
    /// All-bank refresh latency.
    pub t_rfc: u64,
    /// Refresh interval.
    pub t_refi: u64,
    /// Duration of one RFM / preventive-refresh operation (two row
    /// cycles: refresh both neighbors).
    pub t_rfm: u64,
    /// ACT-to-ACT delay to a different bank in the *same* bank group.
    pub t_rrd_l: u64,
    /// ACT-to-ACT delay across bank groups.
    pub t_rrd_s: u64,
    /// Four-activate window: at most four ACTs per rolling window.
    pub t_faw: u64,
    /// Banks per bank group.
    pub banks_per_group: usize,
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming {
            t_rcd: 14,
            t_rp: 14,
            t_ras: 32,
            t_rc: 46,
            t_burst: 4,
            t_rfc: 295,
            t_refi: 3900,
            t_rfm: 92,
            t_rrd_l: 5,
            t_rrd_s: 2,
            t_faw: 13,
            banks_per_group: 4,
        }
    }
}

/// One DRAM bank's scheduling state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankState {
    /// The open row, if any.
    pub open_row: Option<u32>,
    /// Earliest time the next ACT may issue.
    pub next_act: u64,
    /// Earliest time the next PRE may issue.
    pub next_pre: u64,
    /// Earliest time a column command may issue.
    pub next_col: u64,
    /// Activations this bank has issued (statistics).
    pub activations: u64,
}

/// A DDR5 channel: a set of banks plus refresh bookkeeping.
#[derive(Debug, Clone)]
pub struct DramChannel {
    timing: DramTiming,
    banks: Vec<BankState>,
    /// Earliest time the shared data bus is free.
    bus_free: u64,
    /// Next scheduled periodic refresh.
    next_refresh: u64,
    /// Total refreshes issued.
    pub refreshes: u64,
    /// Total preventive-refresh/RFM operations issued (statistics).
    pub preventive_ops: u64,
    /// Timestamps of the last four ACTs (tFAW rolling window).
    recent_acts: [Option<u64>; 4],
    /// Last ACT time per bank group (tRRD enforcement).
    last_act_in_group: Vec<Option<u64>>,
}

impl DramChannel {
    /// Creates a channel with `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    pub fn new(banks: usize, timing: DramTiming) -> Self {
        assert!(banks > 0, "need at least one bank");
        let groups = banks.div_ceil(timing.banks_per_group.max(1));
        DramChannel {
            timing,
            banks: vec![BankState::default(); banks],
            bus_free: 0,
            next_refresh: timing.t_refi,
            refreshes: 0,
            preventive_ops: 0,
            recent_acts: [None; 4],
            last_act_in_group: vec![None; groups.max(1)],
        }
    }

    /// The bank group of a bank.
    pub fn group_of(&self, bank: usize) -> usize {
        bank / self.timing.banks_per_group.max(1)
    }

    /// The earliest time an ACT may issue to `bank` under tFAW and tRRD.
    fn act_window_opens(&self, bank: usize) -> u64 {
        let t = &self.timing;
        let mut opens = 0;
        // tFAW: with four prior ACTs tracked, the oldest must have left
        // the rolling window.
        if self.recent_acts.iter().all(Option::is_some) {
            let oldest = self.recent_acts.iter().flatten().copied().min().expect("all some");
            opens = oldest + t.t_faw;
        }
        // Same-group spacing (tRRD_L).
        if let Some(last) = self.last_act_in_group[self.group_of(bank)] {
            opens = opens.max(last + t.t_rrd_l);
        }
        // Any-bank spacing (tRRD_S).
        if let Some(newest) = self.recent_acts.iter().flatten().copied().max() {
            opens = opens.max(newest + t.t_rrd_s);
        }
        opens
    }

    /// Records an ACT at `now` for the window trackers.
    fn record_act(&mut self, bank: usize, now: u64) {
        // Replace an empty slot, else the oldest timestamp.
        let idx = self
            .recent_acts
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.map(|v| v + 1).unwrap_or(0))
            .map(|(i, _)| i)
            .expect("four slots");
        self.recent_acts[idx] = Some(now);
        let group = self.group_of(bank);
        self.last_act_in_group[group] = Some(now);
    }

    /// The timing table.
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    /// Immutable view of a bank's state.
    pub fn bank(&self, bank: usize) -> &BankState {
        &self.banks[bank]
    }

    /// Issues periodic refresh if due at time `now`; returns `true` if a
    /// refresh occupied the channel (all banks blocked for `t_RFC`).
    pub fn maybe_refresh(&mut self, now: u64) -> bool {
        if now < self.next_refresh {
            return false;
        }
        self.next_refresh += self.timing.t_refi;
        self.refreshes += 1;
        let free_at = now + self.timing.t_rfc;
        for bank in &mut self.banks {
            bank.open_row = None;
            bank.next_act = bank.next_act.max(free_at);
            bank.next_col = bank.next_col.max(free_at);
            bank.next_pre = bank.next_pre.max(free_at);
        }
        true
    }

    /// When the next periodic refresh is due.
    pub(crate) fn next_refresh(&self) -> u64 {
        self.next_refresh
    }

    /// The earliest time [`service`](Self::service) of `row` on `bank`
    /// issues a command, given the channel's state now: the column
    /// access of a row hit once the bank and the data bus are free, the
    /// PRE of a conflict, or the ACT of a closed bank once the bank,
    /// tFAW and tRRD allow it.
    ///
    /// Other banks' commands only move the bus and the ACT windows
    /// later, and a refresh or block only raises the bank's own limits,
    /// so until this bank's open row or the requested row changes, the
    /// value is a lower bound on when servicing `row` can change
    /// anything.
    pub(crate) fn ready_at(&self, bank: usize, row: u32) -> u64 {
        let state = &self.banks[bank];
        match state.open_row {
            Some(open) if open == row => state.next_col.max(self.bus_free),
            Some(_) => state.next_pre,
            None => state.next_act.max(self.act_window_opens(bank)),
        }
    }

    /// Whether `row` is open in `bank`.
    pub fn is_row_hit(&self, bank: usize, row: u32) -> bool {
        self.banks[bank].open_row == Some(row)
    }

    /// Attempts to advance service of a request on `bank` at time `now`.
    /// Returns `Some(completion_time)` when the column access issued this
    /// call; `None` when the bank is still preparing (PRE/ACT in flight
    /// or timing not met).
    ///
    /// The scheduler calls this each time the bank is the chosen
    /// candidate; the method performs at most one command transition per
    /// call (PRE, then ACT, then the column access).
    pub fn service(&mut self, bank: usize, row: u32, now: u64) -> Option<u64> {
        if now < self.ready_at(bank, row) {
            return None;
        }
        let t = self.timing;
        let state = &mut self.banks[bank];
        match state.open_row {
            Some(open) if open == row => {
                // Row hit: issue the column access.
                self.bus_free = now + t.t_burst;
                Some(now + t.t_burst)
            }
            Some(_) => {
                // Conflict: precharge.
                state.open_row = None;
                state.next_act = state.next_act.max(now + t.t_rp);
                None
            }
            None => {
                // Closed: activate.
                state.open_row = Some(row);
                state.activations += 1;
                state.next_col = now + t.t_rcd;
                state.next_pre = now + t.t_ras;
                state.next_act = now + t.t_rc;
                self.record_act(bank, now);
                None
            }
        }
    }

    /// Blocks `bank` for a preventive refresh / RFM of duration
    /// `duration` starting at `now` (the mitigation's cost).
    pub fn block_bank(&mut self, bank: usize, now: u64, duration: u64) {
        let state = &mut self.banks[bank];
        state.open_row = None;
        let free_at = now + duration;
        state.next_act = state.next_act.max(free_at);
        state.next_col = state.next_col.max(free_at);
        state.next_pre = state.next_pre.max(free_at);
        self.preventive_ops += 1;
    }

    /// Blocks every bank (a channel-wide back-off / RFM-all).
    pub fn block_all(&mut self, now: u64, duration: u64) {
        for bank in 0..self.banks.len() {
            self.block_bank(bank, now, duration);
        }
        // block_bank counted each bank; collapse to one logical op.
        self.preventive_ops -= self.banks.len() as u64;
        self.preventive_ops += 1;
    }

    /// Total activations across banks.
    pub fn total_activations(&self) -> u64 {
        self.banks.iter().map(|b| b.activations).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn another_banks_command_never_brings_a_bank_forward(
            ops in prop::collection::vec((0usize..8, 0u32..3, 0u64..12), 1..300),
        ) {
            // The system's wake times rely on this: a bank's ready time
            // moves only later when other banks issue commands.
            let mut ch = DramChannel::new(8, DramTiming::default());
            let ready = |ch: &DramChannel, skip: usize| -> Vec<u64> {
                (0..8)
                    .filter(|&b| b != skip)
                    .flat_map(|b| (0..3).map(move |r| (b, r)))
                    .map(|(b, r)| ch.ready_at(b, r))
                    .collect()
            };
            let mut now = 0;
            for (bank, row, dt) in ops {
                now += dt;
                let before = ready(&ch, bank);
                ch.service(bank, row, now);
                let after = ready(&ch, bank);
                prop_assert!(before.iter().zip(&after).all(|(b, a)| a >= b));
            }
        }
    }

    #[test]
    fn service_issues_from_ready_at_on() {
        let mut ch = DramChannel::new(8, DramTiming::default());
        // ACTs to bank 0 and, in another group, bank 4.
        ch.service(0, 1, 0);
        ch.service(4, 1, 2);
        // Row hit: tRCD, then the bus.
        assert_eq!(ch.ready_at(0, 1), 14);
        assert_eq!(ch.service(0, 1, 14), Some(18));
        assert_eq!(ch.ready_at(4, 1), 18, "bank 4's tRCD ends at 16, the bus at 18");
        // Conflict: tRAS. Closed: tRRD_L within the group.
        assert_eq!(ch.ready_at(0, 2), 32);
        assert_eq!(ch.ready_at(1, 2), 5);
        assert_eq!(ch.service(1, 2, 4), None);
        assert!(!ch.is_row_hit(1, 2));
    }

    #[test]
    fn service_sequences_act_then_column() {
        let mut ch = DramChannel::new(4, DramTiming::default());
        // First call activates.
        assert_eq!(ch.service(0, 10, 0), None);
        assert!(ch.is_row_hit(0, 10));
        // Column must wait tRCD.
        assert_eq!(ch.service(0, 10, 5), None);
        let done = ch.service(0, 10, 14).expect("column issues at tRCD");
        assert_eq!(done, 14 + 4);
    }

    #[test]
    fn row_conflict_precharges_first() {
        let mut ch = DramChannel::new(4, DramTiming::default());
        ch.service(0, 10, 0);
        // PRE not allowed before tRAS.
        assert_eq!(ch.service(0, 20, 10), None);
        assert!(ch.is_row_hit(0, 10));
        // At tRAS, PRE happens.
        assert_eq!(ch.service(0, 20, 32), None);
        assert!(!ch.is_row_hit(0, 10));
        // ACT after tRP.
        assert_eq!(ch.service(0, 20, 32 + 14), None);
        assert!(ch.is_row_hit(0, 20));
    }

    #[test]
    fn same_bank_act_respects_trc() {
        let mut ch = DramChannel::new(1, DramTiming::default());
        ch.service(0, 1, 0); // ACT at 0
                             // PRE at 32, row closed; ACT legal only at tRC = 46.
        ch.service(0, 2, 32);
        assert_eq!(ch.service(0, 2, 40), None);
        assert!(!ch.is_row_hit(0, 2));
        ch.service(0, 2, 46);
        assert!(ch.is_row_hit(0, 2));
    }

    #[test]
    fn bus_serializes_banks() {
        let mut ch = DramChannel::new(8, DramTiming::default());
        ch.service(0, 1, 0);
        // Bank 4 is in another group: ACT legal after tRRD_S = 2.
        ch.service(4, 1, 2);
        assert!(ch.is_row_hit(4, 1));
        let a = ch.service(0, 1, 14).unwrap();
        assert_eq!(a, 18);
        // Bank 4's column is timing-ready at 16 but the bus is busy
        // until 18.
        assert_eq!(ch.service(4, 1, 16), None);
        let b = ch.service(4, 1, 18).unwrap();
        assert_eq!(b, 22);
    }

    #[test]
    fn refresh_blocks_everything() {
        let mut ch = DramChannel::new(2, DramTiming::default());
        assert!(!ch.maybe_refresh(100));
        assert!(ch.maybe_refresh(3900));
        assert_eq!(ch.refreshes, 1);
        // ACT blocked until 3900 + tRFC.
        assert_eq!(ch.service(0, 1, 3900 + 100), None);
        ch.service(0, 1, 3900 + 295);
        assert!(ch.is_row_hit(0, 1));
    }

    #[test]
    fn block_bank_delays_and_counts() {
        let mut ch = DramChannel::new(2, DramTiming::default());
        ch.block_bank(0, 0, 92);
        assert_eq!(ch.preventive_ops, 1);
        assert_eq!(ch.service(0, 1, 50), None);
        ch.service(0, 1, 92);
        assert!(ch.is_row_hit(0, 1));
        // Other bank unaffected by the block, only by tRRD_L (same
        // group): legal 5 ns after the ACT at t = 92.
        ch.service(1, 1, 97);
        assert!(ch.is_row_hit(1, 1));
    }

    #[test]
    fn block_all_counts_once() {
        let mut ch = DramChannel::new(8, DramTiming::default());
        ch.block_all(0, 100);
        assert_eq!(ch.preventive_ops, 1);
    }

    #[test]
    fn trrd_spaces_activations_across_banks() {
        let mut ch = DramChannel::new(8, DramTiming::default());
        ch.service(0, 1, 0); // ACT at t=0
        assert!(ch.is_row_hit(0, 1));
        // Same group (banks 0-3): blocked until tRRD_L = 5.
        ch.service(1, 1, 3);
        assert!(!ch.is_row_hit(1, 1));
        ch.service(1, 1, 5);
        assert!(ch.is_row_hit(1, 1));
        // Different group (bank 4): only tRRD_S = 2 from the newest ACT.
        ch.service(4, 1, 6);
        assert!(!ch.is_row_hit(4, 1), "tRRD_S from the ACT at t=5");
        ch.service(4, 1, 7);
        assert!(ch.is_row_hit(4, 1));
    }

    #[test]
    fn tfaw_limits_activation_bursts() {
        let mut ch = DramChannel::new(16, DramTiming::default());
        // Four ACTs in different groups, spaced by tRRD_S.
        let mut now = 0u64;
        for bank in [0usize, 4, 8, 12] {
            ch.service(bank, 1, now);
            assert!(ch.is_row_hit(bank, 1), "bank {bank} at {now}");
            now += 2;
        }
        // A fifth ACT must wait until the oldest (t=0) leaves the window.
        ch.service(1, 1, now + 2);
        assert!(!ch.is_row_hit(1, 1), "fifth ACT inside tFAW must stall");
        ch.service(1, 1, 13);
        assert!(ch.is_row_hit(1, 1));
    }

    #[test]
    fn activation_statistics() {
        let mut ch = DramChannel::new(2, DramTiming::default());
        ch.service(0, 1, 0);
        // Same bank group: the second ACT waits out tRRD_L.
        ch.service(1, 2, 5);
        assert_eq!(ch.total_activations(), 2);
    }
}
