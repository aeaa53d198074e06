//! The message layer: typed protocol messages over a [`Transport`].
//!
//! Fed-MS's round is an explicit message-passing protocol — sparse uploads
//! to one random PS, per-server aggregation, all-server dissemination,
//! client-side filtering. This module makes the messages and their fates
//! first-class:
//!
//! * [`Upload`] / [`Broadcast`] — the two protocol message types,
//! * [`DeliveryOutcome`] / [`Delivery`] — what actually happened to each
//!   message on the wire,
//! * [`Transport`] — the delivery substrate the
//!   [`crate::SimulationEngine`]'s phase pipeline runs over,
//! * [`LocalTransport`] — the seed-deterministic in-process implementation.
//!
//! Every transport decides message fates through the crate's delivery core
//! (`crate::delivery`): the *entire* benign-fault realization of a
//! [`FaultPlan`] — crash silence, straggler outboxes, uplink channel loss,
//! downlink omission and duplication — together with all [`CommStats`]
//! accounting, so the engine and its phases never touch a fault branch or a
//! byte counter directly. Alternate delivery substrates drop in by
//! implementing [`Transport`] and handing the implementation to
//! [`crate::SimulationEngine::set_transport`].

use fedms_tensor::pool::BufferPool;
use fedms_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::delivery::DeliveryCore;
use crate::net::NetModel;
use crate::recovery::UploadReport;
use crate::threat::NetThreat;
use crate::{CommStats, FaultPlan, Result, SimError};

/// What a server sends out in the dissemination stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Dissemination {
    /// The same model is broadcast to every client.
    Broadcast(Tensor),
    /// Client `k` receives `models[k]` (equivocating Byzantine server).
    PerClient(Vec<Tensor>),
}

impl Dissemination {
    /// The model delivered to `client_id`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DisseminationCoverage`] for a per-client
    /// dissemination that does not cover `client_id` (an equivocating
    /// server's message shorter than the federation), instead of an
    /// out-of-bounds panic.
    pub fn for_client(&self, client_id: usize) -> Result<&Tensor> {
        match self {
            Dissemination::Broadcast(m) => Ok(m),
            Dissemination::PerClient(ms) => ms
                .get(client_id)
                .ok_or(SimError::DisseminationCoverage { client: client_id, covered: ms.len() }),
        }
    }

    /// Validates that the dissemination covers `num_clients` clients.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] for a per-client dissemination that
    /// does not name every client.
    pub fn check_coverage(&self, num_clients: usize) -> Result<()> {
        if let Dissemination::PerClient(ms) = self {
            if ms.len() != num_clients {
                return Err(SimError::BadConfig(format!(
                    "per-client dissemination covers {} of {num_clients} clients",
                    ms.len()
                )));
            }
        }
        Ok(())
    }
}

/// One client→server model upload (Algorithm 1 line 11).
#[derive(Debug, Clone, PartialEq)]
pub struct Upload {
    /// Sender client id.
    pub client: usize,
    /// Destination server id.
    pub server: usize,
    /// The (possibly client-attack-tampered) local model.
    pub model: Tensor,
}

/// One server→clients dissemination message.
#[derive(Debug, Clone, PartialEq)]
pub struct Broadcast {
    /// Sender server id.
    pub server: usize,
    /// The disseminated model(s); per-client when the server equivocates.
    pub model: Dissemination,
}

/// The realized fate of one protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryOutcome {
    /// The message arrived this round.
    Delivered,
    /// Lost in transit: uplink channel loss or a crashed recipient.
    Dropped,
    /// Delivered twice — the duplicate is a second, separately accounted
    /// transmission. The filter phase suppresses the repeat (first delivery
    /// wins), so duplication costs bandwidth but never filter weight.
    Duplicated,
    /// Held back by a straggler pipeline; the payload surfaces (stale) in a
    /// later round, or never if the pipeline is still warming up.
    Delayed,
}

/// One realized server→client delivery on the downlink.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The originating server.
    pub server: usize,
    /// The delivered model.
    pub model: Tensor,
    /// [`DeliveryOutcome::Delivered`] for a first copy,
    /// [`DeliveryOutcome::Duplicated`] for a fault-injected repeat.
    /// Duplicates never count toward the filter quorum and are suppressed
    /// before filtering.
    pub outcome: DeliveryOutcome,
}

/// The delivery substrate one federated round runs over.
///
/// The engine's phase pipeline is written purely against this trait:
/// uploads go in via [`Transport::send_upload`], per-server inboxes come
/// back out via [`Transport::take_inbox`], disseminations are queued with
/// [`Transport::broadcast`] and realized per client with
/// [`Transport::drain_deliveries`]. Fault realization (who is crashed,
/// which pipeline straggles, which links lose or duplicate messages) and
/// all [`CommStats`] accounting live behind the implementation.
pub trait Transport: Send {
    /// A short name for banners and diagnostics (e.g. `"local"`).
    fn name(&self) -> &'static str;

    /// Starts a new round: clears per-round buffers and counters and
    /// re-derives the round's RNG streams. `model_len` is the parameter
    /// count used for byte accounting.
    fn begin_round(&mut self, round: usize, model_len: usize);

    /// Routes one client→server upload and returns its realized fate
    /// ([`DeliveryOutcome::Delivered`] or [`DeliveryOutcome::Dropped`]).
    /// The sender pays for the attempt either way.
    fn send_upload(&mut self, upload: Upload) -> DeliveryOutcome;

    /// Routes one upload and reports its attempt-level history. Plain
    /// transports make exactly one attempt; a recovering transport (see
    /// [`crate::ResilientTransport`]) may retry, back off and fail over,
    /// and reports how the exchange actually went.
    fn send_upload_tracked(&mut self, upload: Upload) -> UploadReport {
        let server = upload.server;
        UploadReport::direct(self.send_upload(upload), server)
    }

    /// Whether this transport can route uploads *without* taking ownership
    /// of the payload ([`Transport::route_upload`]), letting the caller
    /// stream the model straight into a running aggregate instead of
    /// queueing it in the server inbox. Recovery layers that may need to
    /// retransmit a payload later keep the default `false`.
    fn supports_streaming(&self) -> bool {
        false
    }

    /// Routes one client→server upload *by reference*: performs exactly
    /// the accounting and channel-loss draws of [`Transport::send_upload`]
    /// but never stores the payload, returning the realized fate so the
    /// caller can fold a delivered model into a streaming aggregate
    /// itself. Returns `None` on transports that do not support streaming
    /// (see [`Transport::supports_streaming`]); callers must then fall
    /// back to [`Transport::send_upload`].
    fn route_upload(&mut self, client: usize, server: usize) -> Option<DeliveryOutcome> {
        let _ = (client, server);
        None
    }

    /// Declares how many clients actually receive this round's
    /// disseminations (a sampled cohort may be far smaller than the
    /// federation). Affects download accounting only; transports that do
    /// not track per-recipient costs may ignore it. Reset to the full
    /// federation by [`Transport::begin_round`].
    fn set_round_recipients(&mut self, recipients: usize) {
        let _ = recipients;
    }

    /// Whether `server` can participate this round (a crashed server
    /// cannot).
    fn server_online(&self, server: usize) -> bool;

    /// Passes a freshly computed aggregate through the server's delivery
    /// pipeline. A healthy pipeline returns it unchanged
    /// ([`DeliveryOutcome::Delivered`]); a straggler pipeline returns the
    /// aggregate from `delay` rounds ago, or `None` while still filling
    /// (both [`DeliveryOutcome::Delayed`]).
    fn release_aggregate(
        &mut self,
        server: usize,
        aggregate: Tensor,
    ) -> (DeliveryOutcome, Option<Tensor>);

    /// Queues one server's dissemination for delivery to every client.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] if the dissemination does not cover
    /// every client.
    fn broadcast(&mut self, message: Broadcast) -> Result<()>;

    /// Takes the uplink inbox of `server`: the uploads that actually
    /// arrived this round, in send order.
    fn take_inbox(&mut self, server: usize) -> Vec<Tensor>;

    /// Realizes the downlink for `client`: every queued dissemination, in
    /// broadcast order, minus omissions, plus duplicates. Each client sees
    /// its own realization of a lossy downlink.
    fn drain_deliveries(&mut self, client: usize) -> Vec<Delivery>;

    /// [`Transport::drain_deliveries`], materializing the delivered
    /// tensors through `pool` so their storage can be recycled after
    /// filtering. Value-transparent: the deliveries are bit-identical to
    /// the unpooled drain. The default ignores the pool.
    fn drain_deliveries_pooled(&mut self, client: usize, pool: &BufferPool) -> Vec<Delivery> {
        let _ = pool;
        self.drain_deliveries(client)
    }

    /// Takes the communication counters accumulated since
    /// [`Transport::begin_round`].
    fn take_comm(&mut self) -> CommStats;

    /// Installs a benign-fault schedule.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] if the plan does not fit the
    /// federation (see [`FaultPlan::validate`]).
    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<()>;

    /// The active fault schedule (trivial by default).
    fn fault_plan(&self) -> &FaultPlan;

    /// Sets the probability that any single upload message is lost in
    /// transit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] unless `0 ≤ rate < 1`.
    fn set_upload_drop_rate(&mut self, rate: f64) -> Result<()>;

    /// Installs this round's network-layer threat (link partitions, frame
    /// corruption) from the dynamic [`crate::ThreatSchedule`]. Effective
    /// from the next [`Transport::begin_round`]. Only transports with an
    /// actual wire ([`crate::net::NetTransport`]) realize it; the default
    /// ignores it — [`LocalTransport`] models no network, so there is no
    /// link to cut or frame to corrupt. Decorators must forward it.
    fn set_net_threat(&mut self, threat: NetThreat) {
        let _ = threat;
    }

    /// The evolving cross-round state (per-server straggler outboxes,
    /// oldest first) for bit-exact checkpointing.
    fn state_snapshot(&self) -> Vec<Vec<Tensor>>;

    /// Restores the evolving state captured by
    /// [`Transport::state_snapshot`].
    fn restore_state(&mut self, outboxes: Vec<Vec<Tensor>>);

    /// The recovery layer's evolving cross-round state (per-server
    /// delivery records steering failover), for bit-exact checkpointing.
    /// Empty for transports without a recovery layer.
    fn recovery_state(&self) -> Vec<u32> {
        Vec::new()
    }

    /// Restores the state captured by [`Transport::recovery_state`]. A
    /// no-op for transports without a recovery layer.
    fn restore_recovery_state(&mut self, _state: Vec<u32>) {}
}

/// The seed-deterministic in-process transport: the delivery core plus
/// in-memory inboxes.
///
/// Reproduces the paper's synchronous, reliable network by default; with a
/// [`FaultPlan`] installed it realizes crash silence, straggler delays and
/// lossy/duplicating downlinks exactly as described in DESIGN.md §6, with
/// every random draw a pure function of `(seed, round, link)`. It is the
/// only transport that streams uploads, and the reference the Local≡Net
/// tests compare [`crate::net::NetTransport`] against.
pub struct LocalTransport {
    core: DeliveryCore,
    /// Per-server uplink inboxes: this round's delivered uploads, in send
    /// order.
    inboxes: Vec<Vec<Tensor>>,
}

impl std::fmt::Debug for LocalTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalTransport").field("core", &self.core).finish()
    }
}

impl LocalTransport {
    /// Creates a fault-free transport for a `num_clients` × `num_servers`
    /// federation, deriving all channel randomness from `seed`.
    pub fn new(seed: u64, num_clients: usize, num_servers: usize) -> Self {
        LocalTransport {
            core: DeliveryCore::new(seed, num_clients, num_servers, NetModel::ideal()),
            inboxes: vec![Vec::new(); num_servers],
        }
    }
}

impl Transport for LocalTransport {
    fn name(&self) -> &'static str {
        "local"
    }

    fn begin_round(&mut self, round: usize, model_len: usize) {
        self.core.begin_round(round, model_len);
        for inbox in &mut self.inboxes {
            inbox.clear();
        }
    }

    fn send_upload(&mut self, upload: Upload) -> DeliveryOutcome {
        let (outcome, _) = self.core.route_upload(upload.client, upload.server);
        if outcome == DeliveryOutcome::Delivered {
            self.inboxes[upload.server].push(upload.model);
        }
        outcome
    }

    fn supports_streaming(&self) -> bool {
        true
    }

    fn route_upload(&mut self, client: usize, server: usize) -> Option<DeliveryOutcome> {
        Some(self.core.route_upload(client, server).0)
    }

    fn set_round_recipients(&mut self, recipients: usize) {
        self.core.set_round_recipients(recipients);
    }

    fn server_online(&self, server: usize) -> bool {
        self.core.server_online(server)
    }

    fn release_aggregate(
        &mut self,
        server: usize,
        aggregate: Tensor,
    ) -> (DeliveryOutcome, Option<Tensor>) {
        self.core.release_aggregate(server, aggregate)
    }

    fn broadcast(&mut self, message: Broadcast) -> Result<()> {
        self.core.account_broadcast(&message)?;
        self.core.queue_broadcast(message);
        Ok(())
    }

    fn take_inbox(&mut self, server: usize) -> Vec<Tensor> {
        std::mem::take(&mut self.inboxes[server])
    }

    fn drain_deliveries(&mut self, client: usize) -> Vec<Delivery> {
        self.core.realize_downlink(client, Tensor::clone)
    }

    fn drain_deliveries_pooled(&mut self, client: usize, pool: &BufferPool) -> Vec<Delivery> {
        self.core.realize_downlink(client, |m| pool.fetch_tensor(m))
    }

    fn take_comm(&mut self) -> CommStats {
        self.core.take_comm()
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<()> {
        self.core.install_fault_plan(plan)
    }

    fn fault_plan(&self) -> &FaultPlan {
        self.core.fault_plan()
    }

    fn set_upload_drop_rate(&mut self, rate: f64) -> Result<()> {
        self.core.set_upload_drop_rate(rate)
    }

    fn state_snapshot(&self) -> Vec<Vec<Tensor>> {
        self.core.state_snapshot()
    }

    fn restore_state(&mut self, outboxes: Vec<Vec<Tensor>>) {
        self.core.restore_state(outboxes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerFault;

    fn plain(seed: u64) -> LocalTransport {
        let mut t = LocalTransport::new(seed, 4, 3);
        t.begin_round(0, 2);
        t
    }

    fn up(client: usize, server: usize, v: f32) -> Upload {
        Upload { client, server, model: Tensor::from_slice(&[v, v]) }
    }

    #[test]
    fn reliable_uplink_delivers_in_order() {
        let mut t = plain(1);
        assert_eq!(t.send_upload(up(0, 1, 1.0)), DeliveryOutcome::Delivered);
        assert_eq!(t.send_upload(up(2, 1, 2.0)), DeliveryOutcome::Delivered);
        let inbox = t.take_inbox(1);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].as_slice(), &[1.0, 1.0]);
        assert_eq!(inbox[1].as_slice(), &[2.0, 2.0]);
        assert!(t.take_inbox(1).is_empty(), "inbox is drained once");
        let comm = t.take_comm();
        assert_eq!(comm.upload_messages, 2);
        assert_eq!(comm.upload_bytes, 2 * 4 * 2);
        assert_eq!(comm.dropped_uploads, 0);
    }

    #[test]
    fn crashed_recipient_drops_uploads() {
        let mut t = LocalTransport::new(1, 4, 3);
        t.install_fault_plan(FaultPlan {
            server_faults: vec![ServerFault::None, ServerFault::Crash { round: 1 }],
            ..FaultPlan::default()
        })
        .unwrap();
        t.begin_round(0, 2);
        assert_eq!(t.send_upload(up(0, 1, 1.0)), DeliveryOutcome::Delivered);
        assert!(t.server_online(1));
        t.begin_round(1, 2);
        assert_eq!(t.send_upload(up(0, 1, 1.0)), DeliveryOutcome::Dropped);
        assert!(!t.server_online(1));
        assert!(t.take_inbox(1).is_empty());
        let comm = t.take_comm();
        // The sender still pays for the dropped attempt.
        assert_eq!(comm.upload_messages, 1);
        assert_eq!(comm.dropped_uploads, 1);
    }

    #[test]
    fn straggler_pipeline_delays_by_exactly_d_rounds() {
        let mut t = LocalTransport::new(1, 4, 3);
        t.install_fault_plan(FaultPlan {
            server_faults: vec![ServerFault::Straggler { delay: 2 }],
            ..FaultPlan::default()
        })
        .unwrap();
        t.begin_round(0, 1);
        // delay = 2: rounds 0 and 1 release nothing, round t ≥ 2 releases
        // the aggregate from round t − 2.
        let (o, m) = t.release_aggregate(0, Tensor::from_slice(&[0.0]));
        assert_eq!((o, m), (DeliveryOutcome::Delayed, None));
        let (o, m) = t.release_aggregate(0, Tensor::from_slice(&[1.0]));
        assert_eq!((o, m), (DeliveryOutcome::Delayed, None));
        let (o, m) = t.release_aggregate(0, Tensor::from_slice(&[2.0]));
        assert_eq!(o, DeliveryOutcome::Delayed);
        assert_eq!(m.unwrap().as_slice(), &[0.0]);
        // A healthy server's aggregate flows straight through.
        let (o, m) = t.release_aggregate(1, Tensor::from_slice(&[7.0]));
        assert_eq!(o, DeliveryOutcome::Delivered);
        assert_eq!(m.unwrap().as_slice(), &[7.0]);
    }

    #[test]
    fn outbox_survives_snapshot_roundtrip() {
        let mut t = LocalTransport::new(1, 4, 3);
        let plan = FaultPlan {
            server_faults: vec![ServerFault::Straggler { delay: 3 }],
            ..FaultPlan::default()
        };
        t.install_fault_plan(plan.clone()).unwrap();
        t.begin_round(0, 1);
        t.release_aggregate(0, Tensor::from_slice(&[7.0]));
        let state = t.state_snapshot();
        assert_eq!(state[0].len(), 1);

        let mut restored = LocalTransport::new(1, 4, 3);
        restored.install_fault_plan(plan).unwrap();
        restored.restore_state(state);
        // The restored pipeline continues where the original left off.
        assert!(restored.release_aggregate(0, Tensor::from_slice(&[8.0])).1.is_none());
        assert!(restored.release_aggregate(0, Tensor::from_slice(&[9.0])).1.is_none());
        let out = restored.release_aggregate(0, Tensor::from_slice(&[10.0])).1.unwrap();
        assert_eq!(out.as_slice(), &[7.0]);
    }

    #[test]
    fn broadcast_checks_coverage_and_accounts() {
        let mut t = plain(1);
        let bad = Broadcast {
            server: 0,
            model: Dissemination::PerClient(vec![Tensor::from_slice(&[1.0, 1.0]); 3]),
        };
        assert!(t.broadcast(bad).is_err());
        let good = Broadcast {
            server: 0,
            model: Dissemination::Broadcast(Tensor::from_slice(&[1.0, 1.0])),
        };
        t.broadcast(good).unwrap();
        for k in 0..4 {
            let d = t.drain_deliveries(k);
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].server, 0);
            assert_eq!(d[0].outcome, DeliveryOutcome::Delivered);
        }
        let comm = t.take_comm();
        // One broadcast to 4 clients, nothing lost or duplicated.
        assert_eq!(comm.download_messages, 4);
        assert_eq!(comm.download_bytes, 4 * 4 * 2);
        assert_eq!(comm.dropped_downloads + comm.duplicated_downloads, 0);
    }

    #[test]
    fn lossy_downlink_realizes_per_client_and_accounts() {
        let mut t = LocalTransport::new(9, 16, 2);
        t.install_fault_plan(FaultPlan {
            downlink_omission: 0.4,
            duplicate_rate: 0.4,
            ..FaultPlan::default()
        })
        .unwrap();
        t.begin_round(0, 1);
        for s in 0..2 {
            t.broadcast(Broadcast {
                server: s,
                model: Dissemination::Broadcast(Tensor::from_slice(&[s as f32])),
            })
            .unwrap();
        }
        let mut delivered = 0u64;
        let mut duplicated = 0u64;
        for k in 0..16 {
            for d in t.drain_deliveries(k) {
                match d.outcome {
                    DeliveryOutcome::Delivered => delivered += 1,
                    DeliveryOutcome::Duplicated => duplicated += 1,
                    other => panic!("unexpected downlink outcome {other:?}"),
                }
            }
        }
        let comm = t.take_comm();
        assert!(comm.dropped_downloads > 0, "40% omission must drop something");
        assert!(duplicated > 0, "40% duplication must duplicate something");
        assert_eq!(comm.duplicated_downloads, duplicated);
        assert_eq!(comm.download_messages, 2 * 16 + duplicated);
        assert_eq!(delivered, 2 * 16 - comm.dropped_downloads);
    }

    #[test]
    fn for_client_is_checked_not_panicking() {
        let d = Dissemination::PerClient(vec![Tensor::from_slice(&[1.0]); 2]);
        assert!(d.for_client(1).is_ok());
        assert_eq!(
            d.for_client(5).unwrap_err(),
            SimError::DisseminationCoverage { client: 5, covered: 2 }
        );
        let b = Dissemination::Broadcast(Tensor::from_slice(&[2.0]));
        assert_eq!(b.for_client(99).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn recipients_declared_before_begin_round_survive_the_reset() {
        // Regression: `begin_round` used to reset `recipients` back to the
        // full federation, silently overcounting downlink bytes whenever
        // the cohort was declared first.
        let mut t = LocalTransport::new(1, 8, 2);
        t.set_round_recipients(3);
        t.begin_round(0, 2);
        t.broadcast(Broadcast {
            server: 0,
            model: Dissemination::Broadcast(Tensor::from_slice(&[1.0, 1.0])),
        })
        .unwrap();
        let comm = t.take_comm();
        assert_eq!(comm.download_messages, 3, "pre-round cohort must not be reset");
        assert_eq!(comm.download_bytes, 3 * 4 * 2);
        // The declaration is consumed: the next round reverts to the full
        // federation unless declared again.
        t.begin_round(1, 2);
        t.broadcast(Broadcast {
            server: 0,
            model: Dissemination::Broadcast(Tensor::from_slice(&[1.0, 1.0])),
        })
        .unwrap();
        assert_eq!(t.take_comm().download_messages, 8);
        // Declared mid-round (the engine's order) it still applies directly.
        t.begin_round(2, 2);
        t.set_round_recipients(5);
        t.broadcast(Broadcast {
            server: 0,
            model: Dissemination::Broadcast(Tensor::from_slice(&[1.0, 1.0])),
        })
        .unwrap();
        assert_eq!(t.take_comm().download_messages, 5);
    }

    #[test]
    fn deque_outbox_matches_vec_remove_semantics() {
        // Bit-exactness of the VecDeque straggler pipeline against the old
        // `Vec::remove(0)` reference over a mixed push/pop schedule.
        let delay = 3usize;
        let mut t = LocalTransport::new(1, 4, 1);
        t.install_fault_plan(FaultPlan {
            server_faults: vec![ServerFault::Straggler { delay }],
            ..FaultPlan::default()
        })
        .unwrap();
        t.begin_round(0, 1);
        let mut reference: Vec<Vec<f32>> = Vec::new();
        for i in 0..32 {
            let v = (i * 7 % 13) as f32;
            reference.push(vec![v]);
            let expected = (reference.len() > delay).then(|| reference.remove(0));
            let (o, m) = t.release_aggregate(0, Tensor::from_slice(&[v]));
            assert_eq!(o, DeliveryOutcome::Delayed);
            assert_eq!(m.map(|m| m.as_slice().to_vec()), expected);
        }
        // And the snapshot round-trip preserves FIFO order bit-exactly.
        let state = t.state_snapshot();
        assert_eq!(state[0].len(), delay);
        let mut r = LocalTransport::new(1, 4, 1);
        r.restore_state(state);
        assert_eq!(r.state_snapshot(), t.state_snapshot());
    }

    #[test]
    fn validation_of_plan_and_drop_rate() {
        let mut t = LocalTransport::new(1, 4, 3);
        assert!(t
            .install_fault_plan(FaultPlan {
                server_faults: vec![ServerFault::None; 5],
                ..FaultPlan::default()
            })
            .is_err());
        assert!(t.set_upload_drop_rate(1.0).is_err());
        assert!(t.set_upload_drop_rate(-0.1).is_err());
        assert!(t.set_upload_drop_rate(f64::NAN).is_err());
        assert!(t.set_upload_drop_rate(0.5).is_ok());
        assert_eq!(t.name(), "local");
        assert!(t.fault_plan().is_trivial());
    }
}
