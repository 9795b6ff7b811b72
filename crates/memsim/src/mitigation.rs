//! Read-disturbance mitigation mechanisms (paper §6.3, Fig. 14).
//!
//! Four mechanisms, configured by an effective read-disturbance
//! threshold (the RDT minus any guardband):
//!
//! - [`Graphene`] — memory-controller-side Misra–Gries counter table;
//!   preventively refreshes an aggressor's neighbors when its counter
//!   reaches `RDT/4` \[Park et al., MICRO'20\].
//! - [`Para`] — stateless probabilistic refresh: every activation
//!   triggers a neighbor refresh with probability `∝ 1/RDT`
//!   \[Kim et al., ISCA'14\].
//! - [`Prac`] — in-DRAM per-row activation counters with back-off: when
//!   a row's counter crosses the alert threshold the DRAM raises ABO and
//!   the controller issues RFMs, blocking the channel
//!   \[JEDEC JESD79-5C\].
//! - [`Mint`] — minimalist in-DRAM tracker: one mitigation per tREFI
//!   suffices when the RDT exceeds the activations-per-tREFI bound;
//!   below it, periodic RFMs are inserted every `RDT/2` activations
//!   \[Qureshi et al., 2024\].
//!
//! Every mechanism is *profile-driven*: it consults a
//! [`MitigationProfile`] for the effective threshold of the row being
//! activated, so spatially strong regions trigger less often. A flat
//! profile ([`MitigationProfile::flat`]) configures the classical
//! uniform threshold. [`MitigationKind::build`] instantiates any of them.
//!
//! Mechanisms report their preventive actions by appending to a
//! caller-owned buffer, so a simulator reuses one allocation for every
//! activation and refresh.
//!
//! The activation hook is run-length over a cycle of rows:
//! [`Mitigation::on_activate`] takes up to `max` activations that cycle
//! through distinct `rows`, stops right after the first activation that
//! acts, and returns how many it took. Every mechanism absorbs a quiet
//! stretch in one call, except in the cases below. The baseline, PRAC
//! and Graphene with every row of the cycle in its table use a closed
//! form: row `i` of `n` reaches the `left`-th of its own next
//! activations after `i + n·(left − 1) + 1` activations of the cycle.
//! MINT steps until it has seen the whole cycle, which fixes the RFM
//! interval it owes, then jumps by counter arithmetic. PARA loops
//! internally, one RNG draw per activation. Graphene's insert and
//! eviction cases and BlockHammer, which acts on every activation of a
//! row past its quota, take one activation per call. Passing one row
//! and `max = 1` is the plain per-activation hook.

use crate::profile::MitigationProfile;
use rand::RngCore;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use vrd_dram::hashing::FxHashMap;

/// Action requested by a mitigation in response to an activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MitigationAction {
    /// Refresh the two neighbors of `(bank, row)` — blocks that bank for
    /// one RFM duration.
    RefreshNeighbors {
        /// Bank of the aggressor.
        bank: usize,
        /// Aggressor row.
        row: u32,
    },
    /// Block one bank for the given duration in nanoseconds (a per-bank
    /// RFM slot).
    BlockBank {
        /// Bank to block.
        bank: usize,
        /// Block duration (ns).
        duration: u64,
    },
    /// Block the whole channel (ABO back-off / RFM-all) for the given
    /// duration in nanoseconds.
    BlockChannel {
        /// Block duration (ns).
        duration: u64,
    },
}

/// A read-disturbance mitigation mechanism.
///
/// Both hooks append the actions they request to `out` and never clear
/// it; the caller owns the buffer and empties it after applying them.
pub trait Mitigation: std::fmt::Debug {
    /// Performs between 1 and `max` (`max >= 1`) activations in `bank`
    /// of `rows[0], rows[1], …`, cycling through the non-empty slice of
    /// distinct `rows`, and returns how many it performed: activation `k`
    /// (0-based) is of `rows[k % rows.len()]`. It stops right after the
    /// first activation that appends an action, so any action belongs to
    /// the last activation performed, and the mechanism ends in the state
    /// the same activations would leave one call at a time with one row
    /// and `max = 1`.
    fn on_activate(
        &mut self,
        bank: usize,
        rows: &[u32],
        max: u64,
        out: &mut Vec<MitigationAction>,
    ) -> u64;

    /// Called on a periodic refresh (counters may also be maintained
    /// here).
    ///
    /// A refresh with no activation since the previous refresh must
    /// append nothing. A simulator may then cover several elapsed tREFIs
    /// with one call, which is how `simulate_attack` catches up after a
    /// long throttle.
    fn on_refresh(&mut self, out: &mut Vec<MitigationAction>) {
        let _ = out;
    }
}

/// Which mitigation to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MitigationKind {
    /// No mitigation (the baseline system).
    None,
    /// Graphene counter tables.
    Graphene,
    /// PARA probabilistic refresh.
    Para,
    /// PRAC per-row counters with back-off.
    Prac,
    /// MINT minimalist in-DRAM tracker.
    Mint,
    /// BlockHammer-style throttling of rapidly activated rows (an
    /// extension beyond the paper's Fig. 14 set; the paper cites
    /// throttling defenses in §2.3).
    BlockHammer,
}

impl MitigationKind {
    /// All mitigations evaluated in Fig. 14 (excluding the baseline).
    pub const EVALUATED: [MitigationKind; 4] = [
        MitigationKind::Graphene,
        MitigationKind::Prac,
        MitigationKind::Para,
        MitigationKind::Mint,
    ];

    /// The extended set including throttling (BlockHammer).
    pub const EXTENDED: [MitigationKind; 5] = [
        MitigationKind::Graphene,
        MitigationKind::Prac,
        MitigationKind::Para,
        MitigationKind::Mint,
        MitigationKind::BlockHammer,
    ];

    /// Instantiates the mechanism configured by `profile`'s per-region
    /// thresholds; [`MitigationProfile::flat`] configures one uniform
    /// threshold. `banks` sizes Graphene's per-bank tables (the
    /// bank-agnostic mechanisms key their state off the `(bank, row)`
    /// pairs they observe) and `seed` seeds the probabilistic ones (PARA).
    ///
    /// # Panics
    ///
    /// Panics when `banks` is zero.
    pub fn build(
        self,
        profile: &MitigationProfile,
        banks: usize,
        seed: u64,
    ) -> Box<dyn Mitigation> {
        assert!(banks >= 1, "need at least one bank");
        match self {
            MitigationKind::None => Box::new(NoMitigation),
            MitigationKind::Graphene => Box::new(Graphene::new(profile.clone(), banks)),
            MitigationKind::Para => Box::new(Para::new(profile.clone(), seed)),
            MitigationKind::Prac => Box::new(Prac::new(profile.clone())),
            MitigationKind::Mint => Box::new(Mint::new(profile.clone())),
            MitigationKind::BlockHammer => Box::new(BlockHammer::new(profile.clone())),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MitigationKind::None => "Baseline",
            MitigationKind::Graphene => "Graphene",
            MitigationKind::Para => "PARA",
            MitigationKind::Prac => "PRAC",
            MitigationKind::Mint => "MINT",
            MitigationKind::BlockHammer => "BlockHammer",
        }
    }
}

/// The baseline: never acts.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMitigation;

impl Mitigation for NoMitigation {
    fn on_activate(
        &mut self,
        _bank: usize,
        _rows: &[u32],
        max: u64,
        _out: &mut Vec<MitigationAction>,
    ) -> u64 {
        max
    }
}

/// Graphene: per-bank Misra–Gries tables.
#[derive(Debug)]
pub struct Graphene {
    thresholds: MitigationProfile,
    /// Counter table capacity per bank (sized for the worst-case
    /// trigger, so the weakest region stays fully tracked).
    capacity: usize,
    tables: Vec<RowMap<u32>>,
    /// Misra–Gries spillover counters.
    spill: Vec<u32>,
}

impl Graphene {
    /// Profile-driven Graphene: each row's preventive-refresh trigger is
    /// a quarter of its region's threshold. Tables are sized for the
    /// activation budget of one refresh window (`tREFW / tRC`
    /// activations) divided by the worst-case trigger.
    pub fn new(thresholds: MitigationProfile, banks: usize) -> Self {
        let trigger = (thresholds.min_threshold() / 4).max(1);
        let acts_per_window = 32_000_000 / 46; // DDR5 tREFW / tRC
        let capacity = ((acts_per_window / u64::from(trigger)) as usize).clamp(16, 4096);
        Graphene {
            thresholds,
            capacity,
            tables: (0..banks).map(|_| RowMap::default()).collect(),
            spill: vec![0; banks],
        }
    }

    /// The preventive-refresh trigger count for one row.
    pub fn trigger_for(&self, row: u32) -> u32 {
        (self.thresholds.threshold_for(row) / 4).max(1)
    }
}

impl Mitigation for Graphene {
    fn on_activate(
        &mut self,
        bank: usize,
        rows: &[u32],
        max: u64,
        out: &mut Vec<MitigationAction>,
    ) -> u64 {
        // A tracked row's counter stays below its trigger and moves only
        // on its own activations, so while every row of the cycle is
        // tracked the stretch to the first trigger is known exactly.
        // Otherwise the first row takes one activation.
        let table = &self.tables[bank];
        let left = |row: &u32| {
            table.get(row).map(|&c| u64::from(self.trigger_for(*row).saturating_sub(c)).max(1))
        };
        let tracked = match first_action(rows.iter().map(left)) {
            Some(action) => Some((rows, max, action)),
            None => first_action(rows[..1].iter().map(left)).map(|action| (&rows[..1], 1, action)),
        };
        if let Some((rows, max, action)) = tracked {
            let performed = max.min(action);
            let split = Split::new(performed, rows.len());
            let refreshed = (performed == action).then(|| rows[split.last()]);
            for (i, row) in rows.iter().enumerate() {
                let c = self.tables[bank].get_mut(row).expect("a tracked row");
                if refreshed == Some(*row) {
                    *c = 0;
                } else {
                    *c += split.share(i) as u32; // below the trigger
                }
            }
            if let Some(row) = refreshed {
                out.push(MitigationAction::RefreshNeighbors { bank, row });
            }
            return performed;
        }
        let row = rows[0];
        let trigger = self.trigger_for(row);
        let table = &mut self.tables[bank];
        if table.len() < self.capacity {
            let count = self.spill[bank] + 1;
            if count >= trigger {
                table.insert(row, 0);
                out.push(MitigationAction::RefreshNeighbors { bank, row });
            } else {
                table.insert(row, count);
            }
        } else {
            // Misra–Gries: increment the spillover and evict entries that
            // fall to it.
            self.spill[bank] += 1;
            let spill = self.spill[bank];
            table.retain(|_, c| *c > spill);
        }
        1
    }
}

/// PARA: refresh neighbors with probability `p ∝ 1 / RDT` per
/// activation.
#[derive(Debug)]
pub struct Para {
    thresholds: MitigationProfile,
    rng: ChaCha12Rng,
    /// Each row's [`Para::bound`] for the current call, reused by every
    /// call.
    bounds: Vec<u64>,
}

impl Para {
    /// Probability constant: `p = PARA_CONSTANT / threshold`. The value
    /// follows the security argument that an aggressor must survive
    /// `threshold` activations unrefreshed with negligible probability:
    /// `(1 - p)^T < 1e-13` gives `p ≈ 30 / T`.
    pub const PARA_CONSTANT: f64 = 30.0;

    /// Profile-driven PARA: each activation rolls with the probability
    /// derived from the activated row's region threshold, on one shared
    /// RNG stream — exactly one draw per activation, so every profile
    /// that assigns the same thresholds replays the same stream.
    pub fn new(thresholds: MitigationProfile, seed: u64) -> Self {
        Para { thresholds, rng: ChaCha12Rng::seed_from_u64(seed), bounds: Vec::new() }
    }

    fn p_of(threshold: u32) -> f64 {
        (Self::PARA_CONSTANT / f64::from(threshold.max(1))).min(1.0)
    }

    /// The integer form of `gen_bool(p)` for `p` in `[0, 1]`: `gen_bool`
    /// draws one word `x` and tests `(x >> 11) · 2⁻⁵³ < p`. The integer
    /// `x >> 11` is below 2⁵³ and the scaling is exact, so the test is
    /// `(x >> 11) < ⌈p · 2⁵³⌉` (2⁵³ for `p = 1`, which always passes).
    fn bound(p: f64) -> u64 {
        (p * (1u64 << 53) as f64).ceil() as u64
    }
}

impl Mitigation for Para {
    fn on_activate(
        &mut self,
        bank: usize,
        rows: &[u32],
        max: u64,
        out: &mut Vec<MitigationAction>,
    ) -> u64 {
        let thresholds = &self.thresholds;
        self.bounds.clear();
        self.bounds
            .extend(rows.iter().map(|&row| Self::bound(Self::p_of(thresholds.threshold_for(row)))));
        let mut i = 0;
        for performed in 1..=max {
            if (self.rng.next_u64() >> 11) < self.bounds[i] {
                out.push(MitigationAction::RefreshNeighbors { bank, row: rows[i] });
                return performed;
            }
            i += 1;
            if i == rows.len() {
                i = 0;
            }
        }
        max
    }
}

/// PRAC: per-row activation counters with alert back-off.
#[derive(Debug)]
pub struct Prac {
    thresholds: MitigationProfile,
    counters: RowMap<(usize, u32)>,
    /// Channel-wide stall of the ABO handshake (ns).
    backoff_ns: u64,
}

impl Prac {
    /// Profile-driven PRAC: each row alerts at three quarters of its
    /// region's threshold (the JEDEC NBO margin leaves room for
    /// in-flight activations).
    pub fn new(thresholds: MitigationProfile) -> Self {
        Prac { thresholds, counters: RowMap::default(), backoff_ns: 100 }
    }

    /// The alert threshold for one row.
    pub fn alert_for(&self, row: u32) -> u32 {
        ((u64::from(self.thresholds.threshold_for(row)) * 3 / 4) as u32).max(1)
    }
}

impl Mitigation for Prac {
    fn on_activate(
        &mut self,
        bank: usize,
        rows: &[u32],
        max: u64,
        out: &mut Vec<MitigationAction>,
    ) -> u64 {
        // A row's counter stays below its alert threshold between alerts
        // and moves only on its own activations.
        let action = first_action(rows.iter().map(|&row| {
            let c = self.counters.get(&(bank, row)).copied().unwrap_or(0);
            Some(u64::from(self.alert_for(row).saturating_sub(c)).max(1))
        }))
        .expect("PRAC counts every row");
        let performed = max.min(action);
        let split = Split::new(performed, rows.len());
        let alerted = (performed == action).then(|| rows[split.last()]);
        for (i, &row) in rows.iter().enumerate() {
            let c = self.counters.entry((bank, row)).or_insert(0);
            if alerted == Some(row) {
                *c = 0;
            } else {
                *c += split.share(i) as u32; // below the alert
            }
        }
        if let Some(row) = alerted {
            // The alerted DRAM refreshes the aggressor's neighbors during
            // the RFM the controller issues, and the ABO handshake stalls
            // the channel briefly.
            out.push(MitigationAction::RefreshNeighbors { bank, row });
            out.push(MitigationAction::BlockChannel { duration: self.backoff_ns });
        }
        performed
    }
}

/// MINT: one tracked mitigation per tREFI, plus inserted RFMs when the
/// threshold is below the per-tREFI activation bound.
#[derive(Debug)]
pub struct Mint {
    thresholds: MitigationProfile,
    /// RFM interval currently owed: the smallest interval among the
    /// regions activated since the last inserted RFM; `None` when no
    /// activated region needs inserted RFMs.
    pending_interval: Option<u32>,
    acts: u32,
    /// RFM duration (ns).
    rfm_ns: u64,
    /// The row MINT currently tracks for the REF-time mitigation.
    selected: Option<(usize, u32)>,
}

impl Mint {
    /// Activations that fit in one tREFI at back-to-back row cycles.
    pub const ACTS_PER_TREFI: u32 = 3900 / 46;

    /// Profile-driven MINT: regions whose threshold is below the
    /// per-tREFI activation bound owe inserted RFMs at that region's
    /// interval; activation streams confined to strong regions insert
    /// none. The owed interval is the minimum over regions activated
    /// since the last RFM, so an all-equal-threshold profile reproduces
    /// the flat RFM schedule exactly.
    pub fn new(thresholds: MitigationProfile) -> Self {
        Mint { thresholds, pending_interval: None, acts: 0, rfm_ns: 350, selected: None }
    }

    fn interval_of(threshold: u32) -> Option<u32> {
        if threshold >= Self::ACTS_PER_TREFI {
            None
        } else {
            Some((threshold / 2).max(1))
        }
    }

    /// One activation of `(bank, row)`; returns whether it inserted an
    /// RFM.
    fn step(&mut self, bank: usize, row: u32, out: &mut Vec<MitigationAction>) -> bool {
        // Reservoir-style selection: remember the most recent activation
        // (a 1-deep uniform sampler is enough for the overhead study).
        self.selected = Some((bank, row));
        if let Some(interval) = Self::interval_of(self.thresholds.threshold_for(row)) {
            self.pending_interval =
                Some(self.pending_interval.map_or(interval, |p| p.min(interval)));
        }
        if let Some(pending) = self.pending_interval {
            self.acts += 1;
            if self.acts >= pending {
                self.acts = 0;
                self.pending_interval = None;
                out.push(MitigationAction::BlockChannel { duration: self.rfm_ns });
                return true;
            }
        }
        false
    }
}

impl Mitigation for Mint {
    fn on_activate(
        &mut self,
        bank: usize,
        rows: &[u32],
        max: u64,
        out: &mut Vec<MitigationAction>,
    ) -> u64 {
        let n = rows.len() as u64;
        for (performed, &row) in (1..=max.min(n)).zip(rows) {
            if self.step(bank, row, out) {
                return performed;
            }
        }
        if max <= n {
            return max;
        }
        // Every row of the cycle has been seen since the last RFM, so the
        // owed interval no longer changes and only the count moves: the
        // next RFM lands `pending - acts` activations on (`acts` stays
        // below `pending` after every activation).
        let rest = max - n;
        let to_rfm = self.pending_interval.map(|p| u64::from(p - self.acts));
        let jump = to_rfm.map_or(rest, |to_rfm| rest.min(to_rfm));
        let performed = n + jump;
        self.selected = Some((bank, rows[Split::new(performed, rows.len()).last()]));
        if to_rfm == Some(jump) {
            self.acts = 0;
            self.pending_interval = None;
            out.push(MitigationAction::BlockChannel { duration: self.rfm_ns });
        } else if to_rfm.is_some() {
            self.acts += jump as u32; // jump < pending - acts
        }
        performed
    }

    fn on_refresh(&mut self, out: &mut Vec<MitigationAction>) {
        // The per-REF mitigation refreshes the sampled row's neighbors
        // inside the REF envelope — modeled as one neighbor refresh.
        if let Some((bank, row)) = self.selected.take() {
            out.push(MitigationAction::RefreshNeighbors { bank, row });
        }
    }
}

/// BlockHammer-style throttling: rows whose activation count within a
/// blacklisting window exceeds a quota derived from the threshold get
/// their subsequent activations delayed, so the row physically cannot
/// reach the threshold before the refresh window resets it.
#[derive(Debug)]
pub struct BlockHammer {
    thresholds: MitigationProfile,
    counters: RowMap<(usize, u32)>,
    /// Activations seen since the last window reset.
    window_acts: u64,
    /// Window length in activations (≈ one refresh window of row cycles).
    window_len: u64,
}

impl BlockHammer {
    /// Profile-driven BlockHammer: each row may receive at most its
    /// region's threshold of activations per refresh window; throttling
    /// engages at half that, with a delay sized so the remaining budget
    /// cannot be spent within the window.
    pub fn new(thresholds: MitigationProfile) -> Self {
        let window_len = 32_000_000 / 46; // tREFW / tRC activations
        BlockHammer { thresholds, counters: RowMap::default(), window_acts: 0, window_len }
    }

    /// The activation quota for one row.
    pub fn quota_for(&self, row: u32) -> u32 {
        (self.thresholds.threshold_for(row) / 2).max(1)
    }

    /// Throttle delay per over-quota activation of one row (ns): sized
    /// so `quota` further ACTs span more than one refresh window.
    pub fn throttle_ns_for(&self, row: u32) -> u64 {
        (32_000_000 / u64::from(self.quota_for(row))).max(100)
    }
}

impl Mitigation for BlockHammer {
    /// Once a row passes its quota every activation of it acts, so a
    /// closed form barely pays: with one, attacks on 1–8 victims averaged
    /// 1.0–2.5 activations per call. BlockHammer takes one activation of
    /// the first row per call.
    fn on_activate(
        &mut self,
        bank: usize,
        rows: &[u32],
        _max: u64,
        out: &mut Vec<MitigationAction>,
    ) -> u64 {
        let row = rows[0];
        self.window_acts += 1;
        if self.window_acts >= self.window_len {
            self.window_acts = 0;
            self.counters.clear();
        }
        let quota = self.quota_for(row);
        let throttle_ns = self.throttle_ns_for(row);
        let c = self.counters.entry((bank, row)).or_insert(0);
        *c += 1;
        if *c > quota {
            out.push(MitigationAction::BlockBank { bank, duration: throttle_ns });
        }
        1
    }
}

/// A counter per key, for the counter tables keyed by rows the
/// simulators generate. No output depends on iteration order:
/// Graphene's `retain` only filters.
type RowMap<K> = FxHashMap<K, u32>;

/// The closed form of a quiet stretch over a cycle of `n` rows in which
/// row `i` acts on the `left_i`-th of its own next activations
/// (`left_i >= 1`): it does so after `i + n·(left_i − 1) + 1`
/// activations of the cycle, and the first row to act does so after
/// the least of these. The residues mod `n` differ, so that row is the
/// last activated one. `None` when any row's `left` is `None`.
fn first_action(lefts: impl ExactSizeIterator<Item = Option<u64>>) -> Option<u64> {
    let n = lefts.len() as u64;
    lefts
        .enumerate()
        .try_fold(u64::MAX, |first, (i, left)| Some(first.min(i as u64 + n * (left? - 1) + 1)))
}

/// How the first `performed` activations of a cycle over `n` rows fall
/// on its rows.
pub(crate) struct Split {
    q: u64,
    r: usize,
    n: usize,
}

impl Split {
    pub(crate) fn new(performed: u64, n: usize) -> Self {
        Split { q: performed / n as u64, r: (performed % n as u64) as usize, n }
    }

    /// The activations of row `i`. It is at most the row's `left` in
    /// [`first_action`], so it fits in a `u32` where `left` does.
    pub(crate) fn share(&self, i: usize) -> u64 {
        self.q + u64::from(i < self.r)
    }

    /// The row of the last activation, for `performed >= 1`.
    pub(crate) fn last(&self) -> usize {
        if self.r == 0 {
            self.n - 1
        } else {
            self.r - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile_of(region_rows: u32, regions: &[u32], fallback: u32) -> MitigationProfile {
        MitigationProfile {
            region_rows,
            regions: regions.to_vec(),
            fallback_threshold: fallback,
            ..MitigationProfile::flat(fallback)
        }
    }

    /// One activation's actions.
    fn act(m: &mut dyn Mitigation, bank: usize, row: u32) -> Vec<MitigationAction> {
        let mut out = Vec::new();
        assert_eq!(m.on_activate(bank, &[row], 1, &mut out), 1);
        out
    }

    /// One periodic refresh's actions.
    fn refresh(m: &mut dyn Mitigation) -> Vec<MitigationAction> {
        let mut out = Vec::new();
        m.on_refresh(&mut out);
        out
    }

    #[test]
    fn baseline_never_acts() {
        let mut m = MitigationKind::None.build(&MitigationProfile::flat(128), 4, 0);
        for i in 0..1000 {
            assert!(act(m.as_mut(), 0, i % 7).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "need at least one bank")]
    fn build_rejects_zero_banks() {
        let _ = MitigationKind::Graphene.build(&MitigationProfile::flat(128), 0, 0);
    }

    #[test]
    fn mechanisms_append_to_the_buffer_and_never_clear_it() {
        // A buffer that already holds an action must keep it at index 0
        // and receive exactly what an empty buffer receives after it.
        let sentinel = MitigationAction::BlockBank { bank: 9, duration: 1 };
        let profile = MitigationProfile::flat(64);
        for kind in [MitigationKind::None].into_iter().chain(MitigationKind::EXTENDED) {
            let mut fresh = kind.build(&profile, 2, 3);
            let mut prefilled = kind.build(&profile, 2, 3);
            let mut appended = 0;
            for i in 0..2_000u32 {
                let (mut expected, mut out) = (Vec::new(), vec![sentinel]);
                if i % 100 == 99 {
                    fresh.on_refresh(&mut expected);
                    prefilled.on_refresh(&mut out);
                } else {
                    let (bank, max) = (i as usize % 2, u64::from(i % 7) + 1);
                    let rows = &[i % 5, 5 + i % 3][..1 + i as usize % 2];
                    assert_eq!(
                        fresh.on_activate(bank, rows, max, &mut expected),
                        prefilled.on_activate(bank, rows, max, &mut out),
                        "{} performed differently at call {i}",
                        kind.name()
                    );
                }
                assert_eq!(out[0], sentinel, "{} cleared the buffer at call {i}", kind.name());
                assert_eq!(out[1..], expected[..], "{} diverged at call {i}", kind.name());
                appended += expected.len();
            }
            assert_eq!(appended > 0, kind != MitigationKind::None, "{} actions", kind.name());
        }
    }

    #[test]
    fn a_refresh_with_no_activation_since_the_last_appends_nothing() {
        // `simulate_attack` covers several elapsed tREFIs with one call.
        use rand::Rng;
        let mut rng = ChaCha12Rng::seed_from_u64(29);
        let mut first_refresh_acted = 0;
        for kind in [MitigationKind::None].into_iter().chain(MitigationKind::EXTENDED) {
            for profile in [MitigationProfile::flat(16), profile_of(4, &[8, 64, 512], 40)] {
                let mut m = kind.build(&profile, 2, 5);
                let mut out = Vec::new();
                for round in 0..200 {
                    for _ in 0..rng.gen_range(0..60) {
                        let rows = [rng.gen_range(0..16), rng.gen_range(16..32)];
                        let (bank, max) = (rng.gen_range(0..2), rng.gen_range(1..100));
                        m.on_activate(bank, &rows[..rng.gen_range(1..=2)], max, &mut out);
                    }
                    first_refresh_acted += refresh(m.as_mut()).len();
                    assert!(refresh(m.as_mut()).is_empty(), "{} round {round}", kind.name());
                }
            }
        }
        assert!(first_refresh_acted > 0, "MINT's first refresh after activity must act");
    }

    #[test]
    fn graphene_triggers_at_quarter_threshold() {
        let mut g = Graphene::new(MitigationProfile::flat(1024), 2);
        assert_eq!(g.trigger_for(42), 256);
        let refreshes: usize = (0..256).map(|_| act(&mut g, 0, 42).len()).sum();
        assert_eq!(refreshes, 1, "the 256th activation of one row must trigger");
    }

    #[test]
    fn graphene_tracks_heavy_hitters_despite_noise() {
        let mut g = Graphene::new(MitigationProfile::flat(1024), 1);
        let mut refreshed_hot = false;
        for i in 0..100_000u32 {
            // One hot row hammered among a stream of one-off rows.
            let row = if i % 3 == 0 { 7 } else { 1000 + i };
            for a in act(&mut g, 0, row) {
                if a == (MitigationAction::RefreshNeighbors { bank: 0, row: 7 }) {
                    refreshed_hot = true;
                }
            }
        }
        assert!(refreshed_hot, "Graphene must catch the heavy hitter");
    }

    #[test]
    fn para_probability_scales_inverse_threshold() {
        assert!((Para::p_of(1024) - 30.0 / 1024.0).abs() < 1e-12);
        assert!((Para::p_of(128) - 30.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn para_bound_decides_every_draw_as_gen_bool_does() {
        use rand::Rng;
        let mut ps = vec![1.0];
        ps.extend((1..=4096).chain([u32::MAX]).map(Para::p_of));
        for k in 0..64u64 {
            let p = k as f64 / (1u64 << 53) as f64;
            ps.extend(
                [p, p.next_down(), p.next_up()].into_iter().filter(|p| (0.0..=1.0).contains(p)),
            );
        }
        let mut words = ChaCha12Rng::seed_from_u64(31337);
        let mut draws = words.clone();
        for p in ps {
            let bound = Para::bound(p);
            for _ in 0..64 {
                assert_eq!((words.next_u64() >> 11) < bound, draws.gen_bool(p), "p = {p:e}");
            }
            // `gen_bool`'s test on the words whose top 53 bits sit on
            // either side of the bound, which random draws rarely hit.
            for m in [bound.saturating_sub(1), bound].into_iter().filter(|&m| m < 1 << 53) {
                let x = m as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(m < bound, x < p, "p = {p:e}, m = {m}");
            }
        }
        assert_eq!(words.next_u64(), draws.next_u64(), "both streams consumed the same words");
    }

    #[test]
    fn para_empirical_rate_matches_p() {
        let mut para = Para::new(MitigationProfile::flat(300), 9); // p = 0.1
        let hits: usize = (0..20_000u32).map(|i| act(&mut para, 0, i).len()).sum();
        let rate = f64::from(hits as u32) / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn prac_backs_off_at_alert() {
        let mut prac = Prac::new(MitigationProfile::flat(128));
        let mut actions = Vec::new();
        for _ in 0..96 {
            actions = act(&mut prac, 1, 5);
        }
        assert_eq!(actions.len(), 2);
        assert!(matches!(actions[1], MitigationAction::BlockChannel { .. }));
        // Counter reset: the next 95 activations are free.
        for _ in 0..95 {
            assert!(act(&mut prac, 1, 5).is_empty());
        }
    }

    #[test]
    fn mint_inserts_no_rfms_at_high_threshold() {
        let mut m = Mint::new(MitigationProfile::flat(1024));
        for i in 0..10_000u32 {
            assert!(act(&mut m, 0, i % 3).is_empty());
        }
    }

    #[test]
    fn mint_inserts_rfms_at_low_threshold() {
        // Effective threshold 64 < ACTS_PER_TREFI (84): RFM every 32 acts.
        let mut m = Mint::new(MitigationProfile::flat(64));
        let blocks = (0..320u32)
            .flat_map(|i| act(&mut m, 0, i))
            .filter(|a| matches!(a, MitigationAction::BlockChannel { .. }))
            .count();
        assert_eq!(blocks, 10);
    }

    #[test]
    fn mint_mitigates_sampled_row_at_refresh() {
        let mut m = Mint::new(MitigationProfile::flat(1024));
        act(&mut m, 3, 77);
        assert_eq!(refresh(&mut m), vec![MitigationAction::RefreshNeighbors { bank: 3, row: 77 }]);
        assert!(refresh(&mut m).is_empty(), "nothing sampled since");
    }

    #[test]
    fn kind_names() {
        assert_eq!(MitigationKind::Graphene.name(), "Graphene");
        assert_eq!(MitigationKind::EVALUATED.len(), 4);
        assert_eq!(MitigationKind::EXTENDED.len(), 5);
        assert_eq!(MitigationKind::BlockHammer.name(), "BlockHammer");
    }

    #[test]
    fn blockhammer_throttles_over_quota() {
        let mut bh = BlockHammer::new(MitigationProfile::flat(128));
        assert_eq!(bh.quota_for(9), 64);
        for _ in 0..64 {
            assert!(act(&mut bh, 0, 9).is_empty());
        }
        let actions = act(&mut bh, 0, 9);
        assert!(matches!(actions[..], [MitigationAction::BlockBank { bank: 0, .. }]));
    }

    #[test]
    fn blockhammer_ignores_benign_rows() {
        let mut bh = BlockHammer::new(MitigationProfile::flat(1024));
        for i in 0..10_000u32 {
            assert!(act(&mut bh, 0, i).is_empty(), "one-shot rows never throttle");
        }
    }

    #[test]
    fn blockhammer_window_resets_counters() {
        let mut bh = BlockHammer::new(MitigationProfile::flat(64));
        // Exceed the quota, then push past the window length with other
        // rows; the hot row's counter must clear.
        let mut out = Vec::new();
        for _ in 0..40 {
            bh.on_activate(0, &[1], 1, &mut out);
        }
        let window = 32_000_000 / 46;
        for i in 0..window as u32 {
            bh.on_activate(0, &[1000 + i], 1, &mut out);
        }
        assert!(act(&mut bh, 0, 1).is_empty(), "window reset must clear counters");
    }

    #[test]
    fn graphene_trigger_follows_regions() {
        // Rows 0..100 at threshold 400 (trigger 100), rows 100.. at 1600
        // (trigger 400).
        let mut g = Graphene::new(profile_of(100, &[400, 1600], 400), 1);
        assert_eq!(g.trigger_for(50), 100);
        assert_eq!(g.trigger_for(150), 400);
        let weak: usize = (0..400).map(|_| act(&mut g, 0, 50).len()).sum();
        let strong: usize = (0..400).map(|_| act(&mut g, 0, 150).len()).sum();
        assert_eq!(weak, 4, "weak row refreshes every 100 acts");
        assert_eq!(strong, 1, "strong row refreshes every 400 acts");
    }

    #[test]
    fn para_probability_follows_regions() {
        // The strong region empirically refreshes about 10x less often.
        let mut para = Para::new(profile_of(100, &[300, 3000], 300), 7);
        let mut weak = 0usize;
        let mut strong = 0usize;
        for _ in 0..20_000 {
            weak += act(&mut para, 0, 10).len();
            strong += act(&mut para, 0, 110).len();
        }
        let ratio = weak as f64 / strong.max(1) as f64;
        assert!((5.0..20.0).contains(&ratio), "weak/strong refresh ratio {ratio}");
    }

    #[test]
    fn prac_alert_follows_regions() {
        let mut prac = Prac::new(profile_of(10, &[128, 1280], 128));
        assert_eq!(prac.alert_for(5), 96);
        assert_eq!(prac.alert_for(15), 960);
        for _ in 0..95 {
            assert!(act(&mut prac, 0, 5).is_empty());
        }
        assert_eq!(act(&mut prac, 0, 5).len(), 2, "weak row alerts at 96");
        for _ in 0..959 {
            assert!(act(&mut prac, 0, 15).is_empty());
        }
        assert_eq!(act(&mut prac, 0, 15).len(), 2, "strong row alerts at 960");
    }

    #[test]
    fn mint_skips_rfms_for_strong_regions() {
        // Weak region below ACTS_PER_TREFI owes RFMs; the strong region
        // does not.
        let profile = profile_of(10, &[64, 1024], 64);
        let blocks = |row: u32, acts: usize| {
            let mut m = Mint::new(profile.clone());
            (0..acts)
                .flat_map(|_| act(&mut m, 0, row))
                .filter(|a| matches!(a, MitigationAction::BlockChannel { .. }))
                .count()
        };
        assert_eq!(blocks(15, 1000), 0, "strong-region stream inserts no RFMs");
        assert_eq!(blocks(5, 320), 10, "weak-region stream keeps the uniform cadence");
    }

    #[test]
    fn mint_mixed_stream_owes_the_weak_interval() {
        let mut m = Mint::new(profile_of(10, &[64, 1024], 64));
        // One weak-region activation arms the RFM cadence; strong-region
        // activations still count toward the owed RFM.
        assert!(act(&mut m, 0, 5).is_empty());
        let mut acts = 1;
        let mut blocked_at = None;
        for _ in 0..100 {
            acts += 1;
            if !act(&mut m, 0, 15).is_empty() {
                blocked_at = Some(acts);
                break;
            }
        }
        assert_eq!(blocked_at, Some(32), "RFM lands 32 acts after the weak activation armed it");
    }

    #[test]
    fn blockhammer_quota_follows_regions() {
        let mut bh = BlockHammer::new(profile_of(10, &[128, 1024], 128));
        assert_eq!(bh.quota_for(5), 64);
        assert_eq!(bh.quota_for(15), 512);
        for _ in 0..64 {
            assert!(act(&mut bh, 0, 5).is_empty());
        }
        assert!(!act(&mut bh, 0, 5).is_empty(), "weak row throttles past 64");
        for _ in 0..512 {
            assert!(act(&mut bh, 0, 15).is_empty());
        }
        assert!(!act(&mut bh, 0, 15).is_empty(), "strong row throttles past 512");
    }
}
