//! The recovery layer: deadline-driven retries, backoff and upload failover.
//!
//! The paper's protocol assumes every honest link eventually delivers; the
//! fault layer (DESIGN.md §6) broke that assumption, and until now a lost
//! upload or broadcast was simply gone — every transient fault permanently
//! shrank the filter's view `P' ≤ P` and eroded the trimmed-mean margin.
//! This module turns the fire-and-forget upload/broadcast phases into
//! *deadline-driven exchanges*:
//!
//! * [`RecoveryPolicy`] — the knobs: per-attempt timeout, retry budget,
//!   exponential-backoff-with-jitter schedule, upload failover, a
//!   per-message virtual deadline, and what to do when a round still ends
//!   up degraded ([`DegradedMode`]);
//! * [`ResilientTransport`] — a decorator over any [`Transport`] that
//!   realizes the policy per message and accounts every extra transmission;
//! * [`UploadReport`] — the attempt-level outcome of one tracked upload
//!   (attempts, failover, deadline misses, virtual time consumed).
//!
//! Determinism: every retry decision is a pure function of
//! `(seed, round, link, attempt)` — backoff jitter draws from the `"RTRY"`
//! stream, downlink retransmission loss from the `"RCVR"` stream, each RNG
//! constructed fresh per draw from its full label path, never carried
//! across messages. A disabled policy ([`RecoveryPolicy::is_disabled`])
//! makes the decorator delivery-for-delivery identical to the wrapped
//! transport: no extra RNG draw, no extra counter, bit-exact behaviour
//! (property-tested in `crates/sim/tests/recovery.rs`).
//!
//! Time is *virtual*: the simulator has no wall clock, so timeouts,
//! backoff waits and deadlines are modelled in milliseconds of simulated
//! link time per message. A failed attempt costs
//! [`RecoveryPolicy::attempt_timeout_ms`] (the sender waited that long for
//! an ack that never came), each retry first waits its backoff delay, and
//! once a message's accumulated virtual time would overrun
//! [`RecoveryPolicy::round_deadline_ms`] the exchange stops with a
//! recorded deadline miss instead of retrying forever.

use fedms_tensor::pool::BufferPool;
use fedms_tensor::rng::rng_for;
use fedms_tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::fault::FaultClass;
use crate::threat::NetThreat;
use crate::transport::{Broadcast, Delivery, DeliveryOutcome, Dissemination, Transport, Upload};
use crate::{CommStats, FaultPlan, Result, SimError};

/// RNG label for backoff jitter ("RTRY").
const RETRY_LABEL: u64 = 0x52_54_52_59;
/// RNG label for downlink retransmission loss ("RCVR").
const RECOVER_LABEL: u64 = 0x52_43_56_52;

/// Stable identifier of one client→server uplink, used as an RNG label so
/// backoff schedules are a pure function of `(seed, round, link, attempt)`.
pub fn uplink_id(client: usize, server: usize) -> u64 {
    (1u64 << 40) | ((client as u64) << 20) | server as u64
}

/// Stable identifier of one server→client downlink (see [`uplink_id`]).
pub fn downlink_id(server: usize, client: usize) -> u64 {
    (2u64 << 40) | ((server as u64) << 20) | client as u64
}

/// What to do when, even after recovery, a client's view is too degraded
/// for the quorum guard (`P' ≤ 2B` distinct models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DegradedMode {
    /// Abort the round with the typed [`SimError::DegradedQuorum`] (the
    /// pre-recovery behaviour, and the safe default).
    #[default]
    Abort,
    /// Proceed degraded: the affected client skips the global update and
    /// keeps its locally trained model for the round. Filtering a
    /// sub-quorum view would let Byzantine servers dominate it, so local
    /// continuation is the only safe degraded action; clients whose view
    /// stayed above quorum still filter normally (the
    /// `AdaptiveTrimmedMean` path handles their shrunken `P'`).
    Proceed,
}

/// Retry/backoff/failover policy of a [`ResilientTransport`].
///
/// The default policy is [`RecoveryPolicy::disabled`]: zero retry budget,
/// no failover — the decorator then behaves exactly like the transport it
/// wraps. [`RecoveryPolicy::standard`] is a sane starting point for lossy
/// federations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Retries per message *beyond* the first attempt, per target (the
    /// original server and, separately, the failover server each get a
    /// full budget). 0 = never retry.
    #[serde(default)]
    pub retry_budget: u32,
    /// Virtual cost in ms of a failed attempt: how long the sender waits
    /// for an ack before declaring the attempt lost.
    #[serde(default)]
    pub attempt_timeout_ms: u64,
    /// Base of the exponential backoff, in ms. Retry `n` waits roughly
    /// `base · 2ⁿ` (half deterministic, half jitter), capped at
    /// [`RecoveryPolicy::backoff_cap_ms`].
    #[serde(default)]
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff wait, in ms.
    #[serde(default)]
    pub backoff_cap_ms: u64,
    /// When the target server stays unresponsive across the whole retry
    /// budget (or is crashed — a persistent fault skips the futile
    /// retries), re-upload to a deterministically chosen alternate server.
    #[serde(default)]
    pub failover: bool,
    /// Per-message virtual deadline in ms; an exchange whose next attempt
    /// could not complete inside it stops with a recorded deadline miss.
    /// 0 = no deadline.
    #[serde(default)]
    pub round_deadline_ms: u64,
    /// Proceed degraded or abort when a client's view ends up below
    /// quorum anyway.
    #[serde(default)]
    pub on_degraded: DegradedMode,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::disabled()
    }
}

impl RecoveryPolicy {
    /// The no-op policy: no retries, no failover, no deadline. A
    /// [`ResilientTransport`] running this policy is bit-identical to the
    /// transport it wraps.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            retry_budget: 0,
            attempt_timeout_ms: 50,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            failover: false,
            round_deadline_ms: 0,
            on_degraded: DegradedMode::Abort,
        }
    }

    /// A sane starting point for lossy federations: 3 retries per target,
    /// 50 ms attempt timeout, 10 ms backoff base capped at 1 s, failover
    /// on, 2 s per-message deadline, abort on degraded quorum.
    pub fn standard() -> Self {
        RecoveryPolicy {
            retry_budget: 3,
            failover: true,
            round_deadline_ms: 2_000,
            ..RecoveryPolicy::disabled()
        }
    }

    /// Whether the policy never changes delivery behaviour (no retries and
    /// no failover). `on_degraded` is deliberately ignored: it gates the
    /// filter phase, not the transport.
    pub fn is_disabled(&self) -> bool {
        self.retry_budget == 0 && !self.failover
    }

    /// Boxes a configured base transport for the engine: wrapped in a
    /// [`ResilientTransport`] running this policy, or bare when the policy
    /// is disabled — a disabled decorator is bit-identical, but leaving it
    /// out keeps "trivial config = trivial machinery". `seed`,
    /// `num_clients` and `num_servers` are as for
    /// [`ResilientTransport::new`].
    ///
    /// # Errors
    ///
    /// Propagates [`RecoveryPolicy::validate`].
    pub fn wrap<T: Transport + 'static>(
        self,
        base: T,
        seed: u64,
        num_clients: usize,
        num_servers: usize,
    ) -> Result<Box<dyn Transport>> {
        Ok(if self.is_disabled() {
            Box::new(base)
        } else {
            Box::new(ResilientTransport::new(base, self, seed, num_clients, num_servers)?)
        })
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for an absurd retry budget (> 32,
    /// which would mean 2³² backoff growth) or a zero backoff base with a
    /// non-zero budget (the schedule would busy-spin).
    pub fn validate(&self) -> Result<()> {
        if self.retry_budget > 32 {
            return Err(SimError::BadConfig(format!(
                "retry_budget must be ≤ 32, got {}",
                self.retry_budget
            )));
        }
        if self.retry_budget > 0 && self.backoff_base_ms == 0 {
            return Err(SimError::BadConfig(
                "backoff_base_ms must be ≥ 1 when retries are enabled".into(),
            ));
        }
        if self.backoff_cap_ms < self.backoff_base_ms {
            return Err(SimError::BadConfig(format!(
                "backoff_cap_ms {} below backoff_base_ms {}",
                self.backoff_cap_ms, self.backoff_base_ms
            )));
        }
        Ok(())
    }

    /// The backoff wait before retry `attempt` (1-based) of `link` in
    /// `round`: `base · 2^(attempt−1)` capped at `backoff_cap_ms`, half
    /// deterministic and half uniform jitter. A pure function of
    /// `(seed, round, link, attempt)` — calling it twice with the same
    /// arguments returns the same delay, and no RNG state leaks between
    /// messages.
    pub fn backoff_delay_ms(&self, seed: u64, round: usize, link: u64, attempt: u32) -> u64 {
        if self.backoff_base_ms == 0 || attempt == 0 {
            return 0;
        }
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64 << (attempt - 1).min(32))
            .min(self.backoff_cap_ms);
        let half = exp / 2;
        let mut rng = rng_for(seed, &[RETRY_LABEL, round as u64, link, attempt as u64]);
        half + rng.gen_range(0..=exp - half)
    }

    /// Whether an exchange at `elapsed_ms` of virtual time can no longer
    /// complete another attempt inside the deadline.
    fn misses_deadline(&self, elapsed_ms: u64) -> bool {
        self.round_deadline_ms > 0 && elapsed_ms + self.attempt_timeout_ms > self.round_deadline_ms
    }
}

/// Attempt-level outcome of one tracked upload (see
/// [`Transport::send_upload_tracked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UploadReport {
    /// The final fate: [`DeliveryOutcome::Delivered`] if *any* attempt —
    /// original target or failover — landed, [`DeliveryOutcome::Dropped`]
    /// otherwise.
    pub outcome: DeliveryOutcome,
    /// The server that (finally) received the upload — the failover target
    /// when `failed_over` and the exchange succeeded there.
    pub server: usize,
    /// Total send attempts actually placed on the wire (≥ 1 unless the
    /// deadline expired before the first attempt).
    pub attempts: u32,
    /// Whether the exchange re-targeted an alternate server.
    pub failed_over: bool,
    /// Whether the exchange stopped on the per-message deadline.
    pub deadline_missed: bool,
    /// Virtual link time consumed (timeouts + backoff waits), in ms.
    pub elapsed_ms: u64,
}

impl UploadReport {
    /// The report of a plain, untracked transport: one attempt, whatever
    /// the wire said.
    pub fn direct(outcome: DeliveryOutcome, server: usize) -> Self {
        UploadReport {
            outcome,
            server,
            attempts: 1,
            failed_over: false,
            deadline_missed: false,
            elapsed_ms: 0,
        }
    }
}

/// A decorator that adds deadline-driven retries, exponential backoff and
/// upload failover to any [`Transport`].
///
/// * **Uplink** — [`Transport::send_upload_tracked`] retries a dropped
///   upload against its original target up to the budget (skipping the
///   futile retries when [`FaultPlan`] marks the target's failure
///   *persistent*, i.e. crashed), then — with failover enabled — re-uploads
///   once more, full budget, to a deterministically chosen alternate: the
///   online server with the cleanest delivery record, ties broken by ring
///   distance from the original target.
/// * **Downlink** — [`Transport::drain_deliveries`] repairs omission
///   losses: any queued broadcast that did not reach this client is
///   retransmitted up to the budget, each retransmission a fresh
///   seed-deterministic Bernoulli draw against the plan's omission rate,
///   paid for in [`CommStats`] like any other message.
///
/// Cross-round state (the per-server delivery records that steer failover)
/// round-trips through [`Transport::recovery_state`] for bit-exact
/// checkpointing.
pub struct ResilientTransport<T: Transport> {
    inner: T,
    policy: RecoveryPolicy,
    seed: u64,
    num_clients: usize,
    num_servers: usize,
    round: usize,
    model_len: usize,
    /// This round's queued disseminations, mirrored for downlink repair.
    queued: Vec<(usize, Dissemination)>,
    /// Consecutive failed exchanges per server (0 = healthy record); the
    /// failover selector prefers low counts. Evolves across rounds and is
    /// checkpointed.
    suspicion: Vec<u32>,
    /// Recovery-layer traffic on top of the inner transport's accounting.
    extra: CommStats,
}

impl<T: Transport> std::fmt::Debug for ResilientTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientTransport")
            .field("round", &self.round)
            .field("budget", &self.policy.retry_budget)
            .field("failover", &self.policy.failover)
            .finish()
    }
}

impl<T: Transport> ResilientTransport<T> {
    /// Wraps `inner` with `policy`. `seed` must be the run seed (all
    /// retry randomness derives from it), `num_clients` the federation's
    /// client count (mirrored disseminations must cover it) and
    /// `num_servers` its width (failover candidates).
    ///
    /// # Errors
    ///
    /// Propagates [`RecoveryPolicy::validate`].
    pub fn new(
        inner: T,
        policy: RecoveryPolicy,
        seed: u64,
        num_clients: usize,
        num_servers: usize,
    ) -> Result<Self> {
        policy.validate()?;
        Ok(ResilientTransport {
            inner,
            policy,
            seed,
            num_clients,
            num_servers,
            round: 0,
            model_len: 0,
            queued: Vec::new(),
            suspicion: vec![0; num_servers],
            extra: CommStats::new(),
        })
    }

    /// The active policy.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The alternate target for an upload whose exchange with `original`
    /// exhausted its budget: the online server (≠ original) with the
    /// lowest consecutive-failure count, ties broken by ring distance from
    /// `original`. Deterministic given the delivery record.
    fn failover_target(&self, original: usize) -> Option<usize> {
        (1..self.num_servers)
            .map(|offset| (original + offset) % self.num_servers)
            .filter(|&s| self.inner.server_online(s))
            .min_by_key(|&s| self.suspicion[s])
    }

    /// Runs one exchange — first attempt plus budgeted retries — against
    /// `server`, charging timeouts and backoff waits to `report`.
    fn exchange(
        &mut self,
        client: usize,
        server: usize,
        model: &Tensor,
        report: &mut UploadReport,
    ) {
        // A persistent fault (crashed target) makes retries futile: probe
        // once, then hand straight over to failover.
        let retries = match self.inner.fault_plan().upload_fault_class(server, self.round) {
            FaultClass::Persistent => 0,
            FaultClass::Transient => self.policy.retry_budget,
        };
        let link = uplink_id(client, server);
        for attempt in 0..=retries {
            if attempt > 0 {
                report.elapsed_ms +=
                    self.policy.backoff_delay_ms(self.seed, self.round, link, report.attempts);
            }
            if self.policy.misses_deadline(report.elapsed_ms) {
                if !report.deadline_missed {
                    report.deadline_missed = true;
                    self.extra.record_deadline_miss();
                }
                return;
            }
            if attempt > 0 {
                self.extra.record_retried_upload();
            }
            report.attempts += 1;
            let outcome = self.inner.send_upload(Upload { client, server, model: model.clone() });
            if outcome == DeliveryOutcome::Delivered {
                report.outcome = DeliveryOutcome::Delivered;
                report.server = server;
                return;
            }
            report.elapsed_ms += self.policy.attempt_timeout_ms;
        }
    }

    /// Full recovery pipeline for one upload: exchange with the original
    /// target, then (policy permitting) one failover exchange.
    fn deliver_upload(&mut self, upload: Upload) -> UploadReport {
        let Upload { client, server: original, model } = upload;
        let mut report = UploadReport {
            outcome: DeliveryOutcome::Dropped,
            server: original,
            attempts: 0,
            failed_over: false,
            deadline_missed: false,
            elapsed_ms: 0,
        };
        self.exchange(client, original, &model, &mut report);
        if report.outcome == DeliveryOutcome::Delivered {
            self.suspicion[original] = 0;
            return report;
        }
        self.suspicion[original] = self.suspicion[original].saturating_add(1);
        if !self.policy.failover || report.deadline_missed {
            return report;
        }
        if self.policy.misses_deadline(report.elapsed_ms) {
            report.deadline_missed = true;
            self.extra.record_deadline_miss();
            return report;
        }
        let Some(alternate) = self.failover_target(original) else {
            return report;
        };
        report.failed_over = true;
        self.extra.record_failover_upload();
        self.exchange(client, alternate, &model, &mut report);
        if report.outcome == DeliveryOutcome::Delivered {
            self.suspicion[alternate] = 0;
        } else {
            self.suspicion[alternate] = self.suspicion[alternate].saturating_add(1);
        }
        report
    }

    /// Repairs omission losses on one client's downlink: every queued
    /// broadcast that did not arrive is retransmitted up to the budget, and
    /// a repaired copy is materialized like the inner transport's
    /// deliveries (a plain clone, or a pooled copy).
    fn repair_downlink(
        &mut self,
        client: usize,
        deliveries: &mut Vec<Delivery>,
        mut materialize: impl FnMut(&Tensor) -> Tensor,
    ) {
        let omission = self.inner.fault_plan().downlink_omission;
        if self.policy.retry_budget == 0 || omission <= 0.0 {
            return;
        }
        let arrived: Vec<usize> = deliveries.iter().map(|d| d.server).collect();
        for qi in 0..self.queued.len() {
            let server = self.queued[qi].0;
            if arrived.contains(&server) {
                continue;
            }
            let link = downlink_id(server, client);
            let mut elapsed = self.policy.attempt_timeout_ms; // the lost first copy
            for attempt in 1..=self.policy.retry_budget {
                elapsed += self.policy.backoff_delay_ms(self.seed, self.round, link, attempt);
                if self.policy.misses_deadline(elapsed) {
                    self.extra.record_deadline_miss();
                    break;
                }
                // The retransmission is real traffic whether or not it lands.
                self.extra.record_retried_download(self.model_len);
                let mut rng =
                    rng_for(self.seed, &[RECOVER_LABEL, self.round as u64, link, attempt as u64]);
                if rng.gen_bool(omission) {
                    self.extra.record_dropped_download();
                    elapsed += self.policy.attempt_timeout_ms;
                    continue;
                }
                // Coverage was validated when the broadcast was mirrored,
                // so a miss here means an upstream bug; skip the repair
                // rather than panic.
                let Ok(model) = self.queued[qi].1.for_client(client) else {
                    debug_assert!(false, "mirrored dissemination misses client {client}");
                    break;
                };
                let model = materialize(model);
                deliveries.push(Delivery { server, model, outcome: DeliveryOutcome::Delivered });
                break;
            }
        }
    }
}

impl<T: Transport> Transport for ResilientTransport<T> {
    fn name(&self) -> &'static str {
        "resilient"
    }

    fn begin_round(&mut self, round: usize, model_len: usize) {
        self.round = round;
        self.model_len = model_len;
        self.queued.clear();
        self.extra = CommStats::new();
        self.inner.begin_round(round, model_len);
    }

    fn send_upload(&mut self, upload: Upload) -> DeliveryOutcome {
        self.deliver_upload(upload).outcome
    }

    fn send_upload_tracked(&mut self, upload: Upload) -> UploadReport {
        self.deliver_upload(upload)
    }

    // `supports_streaming`/`route_upload` deliberately keep the trait
    // defaults: retries and failover need to own the payload, so the
    // recovery layer always routes full uploads and the engine falls back
    // to buffered per-server inboxes.

    fn set_round_recipients(&mut self, recipients: usize) {
        self.inner.set_round_recipients(recipients);
    }

    fn server_online(&self, server: usize) -> bool {
        self.inner.server_online(server)
    }

    fn release_aggregate(
        &mut self,
        server: usize,
        aggregate: Tensor,
    ) -> (DeliveryOutcome, Option<Tensor>) {
        self.inner.release_aggregate(server, aggregate)
    }

    fn broadcast(&mut self, message: Broadcast) -> Result<()> {
        // Validate coverage *before* mirroring: an equivocating
        // dissemination shorter than the federation must be rejected with
        // a typed error, never queued where `repair_downlink` would later
        // index past its end.
        message.model.check_coverage(self.num_clients)?;
        let mirror = (!self.policy.is_disabled()).then(|| (message.server, message.model.clone()));
        // Mirror only after the inner transport accepted the broadcast, so
        // a rejected message cannot be retransmitted on repair.
        self.inner.broadcast(message)?;
        if let Some(entry) = mirror {
            self.queued.push(entry);
        }
        Ok(())
    }

    fn take_inbox(&mut self, server: usize) -> Vec<Tensor> {
        self.inner.take_inbox(server)
    }

    fn drain_deliveries(&mut self, client: usize) -> Vec<Delivery> {
        let mut deliveries = self.inner.drain_deliveries(client);
        self.repair_downlink(client, &mut deliveries, Tensor::clone);
        deliveries
    }

    fn drain_deliveries_pooled(&mut self, client: usize, pool: &BufferPool) -> Vec<Delivery> {
        let mut deliveries = self.inner.drain_deliveries_pooled(client, pool);
        self.repair_downlink(client, &mut deliveries, |m| pool.fetch_tensor(m));
        deliveries
    }

    fn take_comm(&mut self) -> CommStats {
        let mut comm = self.inner.take_comm();
        comm += std::mem::take(&mut self.extra);
        comm
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<()> {
        self.inner.install_fault_plan(plan)
    }

    fn fault_plan(&self) -> &FaultPlan {
        self.inner.fault_plan()
    }

    fn set_upload_drop_rate(&mut self, rate: f64) -> Result<()> {
        self.inner.set_upload_drop_rate(rate)
    }

    fn set_net_threat(&mut self, threat: NetThreat) {
        // The trait default swallows the threat; a decorator must hand it
        // to whatever transport actually owns the wire.
        self.inner.set_net_threat(threat);
    }

    fn state_snapshot(&self) -> Vec<Vec<Tensor>> {
        self.inner.state_snapshot()
    }

    fn restore_state(&mut self, outboxes: Vec<Vec<Tensor>>) {
        self.inner.restore_state(outboxes);
    }

    fn recovery_state(&self) -> Vec<u32> {
        self.suspicion.clone()
    }

    fn restore_recovery_state(&mut self, state: Vec<u32>) {
        if state.len() == self.num_servers {
            self.suspicion = state;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalTransport;
    use crate::ServerFault;

    fn up(client: usize, server: usize, v: f32) -> Upload {
        Upload { client, server, model: Tensor::from_slice(&[v, v]) }
    }

    fn resilient(
        seed: u64,
        policy: RecoveryPolicy,
        plan: FaultPlan,
        drop_rate: f64,
    ) -> ResilientTransport<LocalTransport> {
        let mut inner = LocalTransport::new(seed, 4, 3);
        inner.install_fault_plan(plan).unwrap();
        inner.set_upload_drop_rate(drop_rate).unwrap();
        let mut t = ResilientTransport::new(inner, policy, seed, 4, 3).unwrap();
        t.begin_round(0, 2);
        t
    }

    #[test]
    fn policy_validation() {
        assert!(RecoveryPolicy::disabled().validate().is_ok());
        assert!(RecoveryPolicy::standard().validate().is_ok());
        let bad = RecoveryPolicy { retry_budget: 33, ..RecoveryPolicy::disabled() };
        assert!(bad.validate().is_err());
        let bad =
            RecoveryPolicy { retry_budget: 1, backoff_base_ms: 0, ..RecoveryPolicy::disabled() };
        assert!(bad.validate().is_err());
        let bad = RecoveryPolicy { backoff_cap_ms: 1, ..RecoveryPolicy::disabled() };
        assert!(bad.validate().is_err());
        assert!(RecoveryPolicy::disabled().is_disabled());
        assert!(!RecoveryPolicy::standard().is_disabled());
    }

    #[test]
    fn backoff_grows_and_stays_capped() {
        let p = RecoveryPolicy::standard();
        let mut prev_floor = 0;
        for attempt in 1..=10 {
            let d = p.backoff_delay_ms(7, 3, uplink_id(0, 1), attempt);
            let exp = (p.backoff_base_ms << (attempt - 1) as u64).min(p.backoff_cap_ms);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d} outside [{}, {exp}]",
                exp / 2
            );
            assert!(exp / 2 >= prev_floor);
            prev_floor = exp / 2;
        }
        // Huge attempt indices saturate instead of overflowing.
        assert!(p.backoff_delay_ms(7, 3, uplink_id(0, 1), u32::MAX) <= p.backoff_cap_ms);
    }

    #[test]
    fn retries_recover_transient_uplink_loss() {
        // 70% channel loss: with a healthy budget nearly every upload
        // still lands, and every extra attempt is accounted.
        let policy =
            RecoveryPolicy { retry_budget: 8, round_deadline_ms: 0, ..RecoveryPolicy::standard() };
        let mut t = resilient(11, policy, FaultPlan::none(), 0.7);
        let mut delivered = 0;
        for k in 0..4 {
            let report = t.send_upload_tracked(up(k, 1, k as f32));
            if report.outcome == DeliveryOutcome::Delivered {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 4, "budgeted retries should beat 70% transient loss");
        // Every upload landed somewhere — the original target or, for an
        // exchange whose whole budget drowned, the failover server.
        let landed: usize = (0..3).map(|s| t.take_inbox(s).len()).sum();
        assert_eq!(landed, 4);
        let comm = t.take_comm();
        assert!(comm.retried_uploads > 0);
        // Every attempt the inner transport saw is either the first try
        // of a message or an accounted retry.
        assert_eq!(comm.upload_messages, 4 + comm.retried_uploads + comm.failover_uploads);
    }

    #[test]
    fn crashed_target_fails_over_without_futile_retries() {
        let plan = FaultPlan {
            server_faults: vec![ServerFault::None, ServerFault::Crash { round: 0 }],
            ..FaultPlan::default()
        };
        let policy = RecoveryPolicy { retry_budget: 5, ..RecoveryPolicy::standard() };
        let mut t = resilient(3, policy, plan, 0.0);
        let report = t.send_upload_tracked(up(0, 1, 7.0));
        assert_eq!(report.outcome, DeliveryOutcome::Delivered);
        assert!(report.failed_over);
        assert_ne!(report.server, 1);
        // Persistent fault: one probe + one failover attempt, no retries.
        assert_eq!(report.attempts, 2);
        assert_eq!(t.take_inbox(report.server).len(), 1);
        let comm = t.take_comm();
        assert_eq!(comm.failover_uploads, 1);
        assert_eq!(comm.retried_uploads, 0);
    }

    #[test]
    fn deadline_bounds_the_exchange() {
        let policy = RecoveryPolicy {
            retry_budget: 8,
            attempt_timeout_ms: 100,
            round_deadline_ms: 250, // room for two, maybe three attempts
            failover: false,
            ..RecoveryPolicy::disabled()
        };
        let mut t = resilient(1, policy, FaultPlan::none(), 0.999);
        let report = t.send_upload_tracked(up(0, 1, 1.0));
        assert_eq!(report.outcome, DeliveryOutcome::Dropped);
        assert!(report.deadline_missed);
        assert!(report.attempts < 9, "deadline must cut the budget short");
        assert!(report.elapsed_ms + policy.attempt_timeout_ms > policy.round_deadline_ms);
        assert_eq!(t.take_comm().deadline_misses, 1);
    }

    #[test]
    fn downlink_repair_restores_omitted_broadcasts() {
        let plan = FaultPlan { downlink_omission: 0.6, ..FaultPlan::default() };
        let policy = RecoveryPolicy { retry_budget: 10, ..RecoveryPolicy::standard() };
        let mut t = resilient(5, policy, plan, 0.0);
        for s in 0..3 {
            t.broadcast(Broadcast {
                server: s,
                model: Dissemination::Broadcast(Tensor::from_slice(&[s as f32, 0.0])),
            })
            .unwrap();
        }
        for k in 0..4 {
            let d = t.drain_deliveries(k);
            assert_eq!(d.len(), 3, "client {k} should see every broadcast after repair");
        }
        let comm = t.take_comm();
        assert!(comm.retried_downloads > 0, "60% omission must need retransmissions");
        assert_eq!(
            comm.download_messages,
            3 * 4 + comm.duplicated_downloads + comm.retried_downloads
        );
    }

    #[test]
    fn disabled_policy_is_delivery_identical_to_inner() {
        let plan = FaultPlan {
            server_faults: vec![ServerFault::Crash { round: 0 }],
            downlink_omission: 0.3,
            duplicate_rate: 0.2,
        };
        let run = |wrap: bool| {
            let mut inner = LocalTransport::new(9, 4, 3);
            inner.install_fault_plan(plan.clone()).unwrap();
            inner.set_upload_drop_rate(0.4).unwrap();
            let mut t: Box<dyn Transport> = if wrap {
                Box::new(
                    ResilientTransport::new(inner, RecoveryPolicy::disabled(), 9, 4, 3).unwrap(),
                )
            } else {
                Box::new(inner)
            };
            t.begin_round(0, 2);
            let mut fates = Vec::new();
            for k in 0..4 {
                fates.push(t.send_upload(up(k, k % 3, k as f32)));
            }
            for s in 0..3 {
                let inbox = t.take_inbox(s);
                fates.push(if inbox.is_empty() {
                    DeliveryOutcome::Dropped
                } else {
                    DeliveryOutcome::Delivered
                });
                t.broadcast(Broadcast {
                    server: s,
                    model: Dissemination::Broadcast(Tensor::from_slice(&[s as f32, 1.0])),
                })
                .unwrap();
            }
            let mut drains = Vec::new();
            for k in 0..4 {
                for d in t.drain_deliveries(k) {
                    drains.push((k, d.server, d.outcome));
                }
            }
            (fates, drains, t.take_comm())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn short_equivocation_is_rejected_not_queued() {
        // Regression: a per-client dissemination shorter than the
        // federation used to be mirrored unchecked, and `repair_downlink`
        // later panicked indexing past its end. It must now be rejected
        // with a typed error before anything is queued.
        let plan = FaultPlan { downlink_omission: 0.9, ..FaultPlan::default() };
        let policy = RecoveryPolicy { retry_budget: 10, ..RecoveryPolicy::standard() };
        let mut t = resilient(5, policy, plan, 0.0);
        let short = Broadcast {
            server: 0,
            // Covers 2 of the 4 clients.
            model: Dissemination::PerClient(vec![Tensor::from_slice(&[1.0, 1.0]); 2]),
        };
        assert!(t.broadcast(short).is_err());
        // Nothing was mirrored, so repairing the high-omission downlink of
        // the uncovered client 3 has nothing to retransmit — and must not
        // panic.
        assert!(t.drain_deliveries(3).is_empty());
        assert_eq!(t.take_comm().retried_downloads, 0);
    }

    #[test]
    fn failover_prefers_clean_delivery_records() {
        let plan = FaultPlan {
            server_faults: vec![ServerFault::Crash { round: 0 }],
            ..FaultPlan::default()
        };
        let policy =
            RecoveryPolicy { retry_budget: 0, failover: true, ..RecoveryPolicy::disabled() };
        let mut t = resilient(2, policy, plan, 0.0);
        // Poison server 1's record; server 2 becomes the preferred alternate.
        t.restore_recovery_state(vec![0, 5, 0]);
        let report = t.send_upload_tracked(up(0, 0, 1.0));
        assert_eq!(report.server, 2);
        assert_eq!(t.recovery_state(), vec![1, 5, 0], "probe failure recorded, success reset");
    }
}
