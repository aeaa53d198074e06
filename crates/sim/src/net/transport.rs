//! [`NetTransport`]: concurrent message-passing over an in-process channel.
//!
//! Unlike [`crate::LocalTransport`], which hands payloads over in memory,
//! this transport actually *moves messages between threads*: every upload
//! and dissemination is encoded as a length-prefixed
//! [`Frame`](crate::net::Frame) and sent over a bounded channel
//! (backpressure: a sender that outruns the actor blocks) to one
//! frame-decoding actor, which keeps each server's uplink inbox and the
//! round's broadcast queue until they are asked for. Uploads to the same
//! server are coalesced into `Frame::UploadBatch` frames (flushed at the
//! batch bound or when the inbox is taken), which is where the frames/s vs
//! bytes/s trade-off of the bench lives.
//!
//! The actor moves and decodes frames; it decides nothing. Every fate —
//! loss draws, crashes, stragglers, partitions, the [`NetModel`]'s
//! deadline misses and server lag — is decided on the caller's thread by
//! the delivery core that `LocalTransport` runs too, and the broadcast
//! queue comes back from the actor once per round, not once per client.
//! Message *content* and *fate* therefore never depend on thread
//! scheduling. Server inboxes sort stably by modelled arrival time, so
//! under [`NetModel::ideal`] (all delays zero) the inbox order is send
//! order and a round is message-for-message and counter-for-counter
//! identical to `LocalTransport` (property-tested in
//! `crates/sim/tests/net.rs`). Under a non-trivial model, stragglers and
//! deadline misses *emerge* from the delay arithmetic instead of being
//! injected by a [`FaultPlan`].

use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::thread::JoinHandle;

use fedms_tensor::pool::BufferPool;
use fedms_tensor::rng::rng_for;
use fedms_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

use crate::delivery::DeliveryCore;
use crate::net::model::NetModel;
use crate::net::wire::{decode_frame, encode_frame, BatchedUpload, Frame, WireError};
use crate::recovery::UploadReport;
use crate::threat::NetThreat;
use crate::transport::{Broadcast, Delivery, DeliveryOutcome, Transport, Upload};
use crate::{CommStats, FaultPlan, Result};

/// Default uploads coalesced per frame.
const DEFAULT_COALESCE: usize = 8;
/// Default bound of the actor channel (frames in flight before the sender
/// blocks).
const DEFAULT_CHANNEL_BOUND: usize = 64;
/// RNG label for threat-injected frame corruption ("CRPT").
const CORRUPT_LABEL: u64 = 0x43_52_50_54;

/// Frame-level traffic counters of a [`NetTransport`] (cumulative since
/// construction; the criterion bench reads frames/s and bytes/s off them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames placed on any channel.
    pub frames_sent: u64,
    /// Encoded bytes placed on any channel (length prefixes included).
    pub frame_bytes: u64,
    /// Frames that carried more than one coalesced upload.
    pub coalesced_batches: u64,
    /// Frames corrupted in flight by the active threat schedule (each one
    /// surfaces as a typed [`WireError`] at the receiver).
    pub corrupted_frames: u64,
}

/// The actor's answer to a request: what it decoded, plus the first decode
/// error it met since its previous answer.
type Reply<T> = Sender<(T, Option<WireError>)>;

enum ActorMsg {
    Begin { round: usize },
    Frame(Vec<u8>),
    TakeInbox { server: usize, reply: Reply<Vec<Tensor>> },
    TakeBroadcasts { reply: Reply<Vec<Broadcast>> },
    Shutdown,
}

/// The frame actor: decodes each frame into its server's uplink inbox or
/// the round's broadcast queue and hands them back on request. Inboxes are
/// ordered stably by modelled arrival time; ties keep receive order, which
/// equals send order because the bounded channel is FIFO.
fn frame_actor(rx: Receiver<ActorMsg>, num_servers: usize) {
    let mut round = 0usize;
    let mut inboxes: Vec<Vec<(u64, Tensor)>> = vec![Vec::new(); num_servers];
    let mut broadcasts: Vec<Broadcast> = Vec::new();
    let mut error: Option<WireError> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            ActorMsg::Begin { round: r } => {
                round = r;
                inboxes.iter_mut().for_each(Vec::clear);
                broadcasts.clear();
                error = None;
            }
            ActorMsg::Frame(bytes) => match decode_frame(&bytes) {
                Ok((Frame::Upload { round: r, server, arrival_ms, model, .. }, _))
                    if r as usize == round =>
                {
                    if let Some(inbox) = inboxes.get_mut(server as usize) {
                        inbox.push((arrival_ms, model));
                    }
                }
                Ok((Frame::UploadBatch { round: r, server, uploads }, _))
                    if r as usize == round =>
                {
                    if let Some(inbox) = inboxes.get_mut(server as usize) {
                        inbox.extend(uploads.into_iter().map(|u| (u.arrival_ms, u.model)));
                    }
                }
                Ok((Frame::Broadcast { round: r, server, model }, _)) if r as usize == round => {
                    broadcasts.push(Broadcast { server: server as usize, model });
                }
                // Stale (previous-round) or non-protocol frames are dropped;
                // channel FIFO ordering makes them unreachable from this
                // crate, but a TCP peer could replay one.
                Ok(_) => {}
                Err(e) => {
                    error.get_or_insert(e);
                }
            },
            ActorMsg::TakeInbox { server, reply } => {
                let mut taken = std::mem::take(&mut inboxes[server]);
                // Stable: equal arrival times keep send order, so the ideal
                // model reproduces LocalTransport's send-order inbox.
                taken.sort_by_key(|&(arrival, _)| arrival);
                let models = taken.into_iter().map(|(_, m)| m).collect();
                let _ = reply.send((models, error.take()));
            }
            ActorMsg::TakeBroadcasts { reply } => {
                let _ = reply.send((std::mem::take(&mut broadcasts), error.take()));
            }
            ActorMsg::Shutdown => break,
        }
    }
}

/// The concurrent in-process transport: the delivery core plus the wire —
/// versioned frames moved over a bounded channel to a decoding actor,
/// under a seed-deterministic [`NetModel`].
pub struct NetTransport {
    core: DeliveryCore,
    coalesce: usize,
    /// Per-frame corruption draws ("CRPT" stream); only instantiated while
    /// the threat's `corrupt_rate > 0`, so a trivial threat costs no RNG.
    corrupt_rng: Option<StdRng>,
    actor: SyncSender<ActorMsg>,
    handle: Option<JoinHandle<()>>,
    /// Per-server coalescing buffers, flushed at the batch bound or on
    /// `take_inbox`.
    pending: Vec<Vec<BatchedUpload>>,
    /// Whether disseminations went out since the actor last handed its
    /// broadcast queue back.
    downlink_stale: bool,
    stats: NetStats,
    wire_error: Option<WireError>,
}

impl std::fmt::Debug for NetTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetTransport").field("core", &self.core).finish()
    }
}

impl NetTransport {
    /// Creates a transport for a `num_clients` × `num_servers` federation
    /// under `model`, spawning its frame actor, with default coalescing and
    /// channel bound.
    pub fn new(seed: u64, num_clients: usize, num_servers: usize, model: NetModel) -> Self {
        Self::with_options(
            seed,
            num_clients,
            num_servers,
            model,
            DEFAULT_COALESCE,
            DEFAULT_CHANNEL_BOUND,
        )
    }

    /// [`NetTransport::new`] with explicit tuning: `coalesce` uploads per
    /// frame (≥ 1; 1 disables batching) and `channel_bound` frames in
    /// flight to the actor before senders block (backpressure).
    pub fn with_options(
        seed: u64,
        num_clients: usize,
        num_servers: usize,
        model: NetModel,
        coalesce: usize,
        channel_bound: usize,
    ) -> Self {
        let (actor, rx) = sync_channel(channel_bound.max(1));
        let handle = std::thread::spawn(move || frame_actor(rx, num_servers));
        NetTransport {
            core: DeliveryCore::new(seed, num_clients, num_servers, model),
            coalesce: coalesce.max(1),
            corrupt_rng: None,
            actor,
            handle: Some(handle),
            pending: (0..num_servers).map(|_| Vec::new()).collect(),
            downlink_stale: false,
            stats: NetStats::default(),
            wire_error: None,
        }
    }

    /// The active network model.
    pub fn model(&self) -> &NetModel {
        self.core.model()
    }

    /// Cumulative frame-level traffic counters.
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// Takes the first wire decode error the actor surfaced since the last
    /// call, if one occurred. A healthy run never produces one.
    pub fn take_wire_error(&mut self) -> Option<WireError> {
        self.wire_error.take()
    }

    /// Realizes threat-scheduled frame corruption: with probability
    /// `corrupt_rate` one deterministic-random bit of the frame's version
    /// field is flipped in transit, so the receiver decodes a typed
    /// [`WireError::Version`] and the whole payload is lost to the round —
    /// the error emerges from the wire, not from injection at the inbox.
    fn maybe_corrupt(&mut self, bytes: &mut [u8]) {
        let Some(rng) = &mut self.corrupt_rng else {
            return;
        };
        if bytes.len() < 6 || !rng.gen_bool(self.core.threat().corrupt_rate) {
            return;
        }
        // The version field is bytes 4..6 of the encoded frame; flipping
        // any of its 16 bits guarantees a decode-time version mismatch.
        let bit = rng.gen_range(0..16usize);
        bytes[4 + bit / 8] ^= 1 << (bit % 8);
        self.stats.corrupted_frames += 1;
    }

    fn send_frame(&mut self, frame: &Frame) {
        let mut bytes = encode_frame(frame);
        self.maybe_corrupt(&mut bytes);
        self.stats.frames_sent += 1;
        self.stats.frame_bytes += bytes.len() as u64;
        // A send can only fail if the actor died, which only happens at
        // shutdown; losing the frame then is fine.
        let _ = self.actor.send(ActorMsg::Frame(bytes));
    }

    fn flush_uplink(&mut self, server: usize) {
        let mut pending = std::mem::take(&mut self.pending[server]);
        let (round, server) = (self.core.round() as u32, server as u32);
        let frame = match pending.len() {
            0 => return,
            1 => {
                let u = pending.pop().expect("len checked");
                Frame::Upload {
                    round,
                    client: u.client,
                    server,
                    arrival_ms: u.arrival_ms,
                    model: u.model,
                }
            }
            _ => {
                self.stats.coalesced_batches += 1;
                Frame::UploadBatch { round, server, uploads: pending }
            }
        };
        self.send_frame(&frame);
    }

    /// Asks the actor for something it decoded, surfacing any decode error
    /// it met meanwhile; `None` once the actor is gone.
    fn ask<T>(&mut self, request: impl FnOnce(Reply<T>) -> ActorMsg) -> Option<T> {
        let (reply, answer) = channel();
        self.actor.send(request(reply)).ok()?;
        let (decoded, error) = answer.recv().ok()?;
        if let Some(e) = error {
            self.wire_error.get_or_insert(e);
        }
        Some(decoded)
    }

    /// Moves the broadcasts decoded since the last call into the core's
    /// downlink queue: one round trip per round, not one per client.
    fn collect_broadcasts(&mut self) {
        if std::mem::take(&mut self.downlink_stale) {
            for b in self.ask(|reply| ActorMsg::TakeBroadcasts { reply }).unwrap_or_default() {
                self.core.queue_broadcast(b);
            }
        }
    }

    /// Routes one upload through the core and, when it survives, queues its
    /// frame with the modelled arrival time.
    fn send_net_upload(&mut self, upload: Upload) -> (DeliveryOutcome, u64) {
        let (outcome, arrival) = self.core.route_upload(upload.client, upload.server);
        if outcome == DeliveryOutcome::Delivered {
            let pending = &mut self.pending[upload.server];
            pending.push(BatchedUpload {
                client: upload.client as u32,
                arrival_ms: arrival,
                model: upload.model,
            });
            if pending.len() >= self.coalesce {
                self.flush_uplink(upload.server);
            }
        }
        (outcome, arrival)
    }
}

impl Transport for NetTransport {
    fn name(&self) -> &'static str {
        "net"
    }

    fn begin_round(&mut self, round: usize, model_len: usize) {
        self.core.begin_round(round, model_len);
        for pending in &mut self.pending {
            pending.clear();
        }
        self.downlink_stale = false;
        let _ = self.actor.send(ActorMsg::Begin { round });
        self.corrupt_rng = (self.core.threat().corrupt_rate > 0.0)
            .then(|| rng_for(self.core.seed(), &[CORRUPT_LABEL, round as u64]));
    }

    fn send_upload(&mut self, upload: Upload) -> DeliveryOutcome {
        self.send_net_upload(upload).0
    }

    fn send_upload_tracked(&mut self, upload: Upload) -> UploadReport {
        let server = upload.server;
        let (outcome, arrival) = self.send_net_upload(upload);
        let mut report = UploadReport::direct(outcome, server);
        report.elapsed_ms = arrival;
        report.deadline_missed = outcome == DeliveryOutcome::Delayed;
        report
    }

    // `supports_streaming` stays `false`: a networked transport must move
    // the payload itself, so the engine uses buffered per-server inboxes
    // (and the recovery decorator composes unchanged on top).

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
        self.send_frame(&Frame::Broadcast {
            round: self.core.round() as u32,
            server: message.server as u32,
            model: message.model,
        });
        self.downlink_stale = true;
        Ok(())
    }

    fn take_inbox(&mut self, server: usize) -> Vec<Tensor> {
        self.flush_uplink(server);
        self.ask(|reply| ActorMsg::TakeInbox { server, reply }).unwrap_or_default()
    }

    fn drain_deliveries(&mut self, client: usize) -> Vec<Delivery> {
        self.collect_broadcasts();
        self.core.realize_downlink(client, Tensor::clone)
    }

    fn drain_deliveries_pooled(&mut self, client: usize, pool: &BufferPool) -> Vec<Delivery> {
        self.collect_broadcasts();
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

    fn set_net_threat(&mut self, threat: NetThreat) {
        self.core.set_net_threat(threat);
    }

    fn state_snapshot(&self) -> Vec<Vec<Tensor>> {
        self.core.state_snapshot()
    }

    fn restore_state(&mut self, outboxes: Vec<Vec<Tensor>>) {
        self.core.restore_state(outboxes);
    }
}

impl Drop for NetTransport {
    fn drop(&mut self) {
        let _ = self.actor.send(ActorMsg::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Dissemination;
    use crate::ServerFault;

    fn up(client: usize, server: usize, v: f32) -> Upload {
        Upload { client, server, model: Tensor::from_slice(&[v, v]) }
    }

    #[test]
    fn ideal_round_delivers_in_send_order() {
        let mut t = NetTransport::new(1, 4, 3, NetModel::ideal());
        t.begin_round(0, 2);
        assert_eq!(t.send_upload(up(0, 1, 1.0)), DeliveryOutcome::Delivered);
        assert_eq!(t.send_upload(up(2, 1, 2.0)), DeliveryOutcome::Delivered);
        let inbox = t.take_inbox(1);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].as_slice(), &[1.0, 1.0]);
        assert_eq!(inbox[1].as_slice(), &[2.0, 2.0]);
        assert!(t.take_inbox(1).is_empty());
        let comm = t.take_comm();
        assert_eq!(comm.upload_messages, 2);
        assert_eq!(comm.upload_bytes, 2 * 4 * 2);
        assert!(t.take_wire_error().is_none());
    }

    #[test]
    fn coalescing_batches_frames_without_changing_delivery() {
        let mut batched = NetTransport::with_options(1, 8, 2, NetModel::ideal(), 4, 16);
        let mut single = NetTransport::with_options(1, 8, 2, NetModel::ideal(), 1, 16);
        for t in [&mut batched, &mut single] {
            t.begin_round(0, 2);
            for k in 0..8 {
                t.send_upload(up(k, 0, k as f32));
            }
        }
        let b = batched.take_inbox(0);
        let s = single.take_inbox(0);
        assert_eq!(b, s, "coalescing must not change inbox content or order");
        assert!(batched.net_stats().coalesced_batches > 0);
        assert!(batched.net_stats().frames_sent < single.net_stats().frames_sent);
        assert!(batched.net_stats().frame_bytes < single.net_stats().frame_bytes);
    }

    #[test]
    fn crashed_recipient_drops_and_accounts_like_local() {
        let mut t = NetTransport::new(1, 4, 3, NetModel::ideal());
        t.install_fault_plan(FaultPlan {
            server_faults: vec![ServerFault::None, ServerFault::Crash { round: 1 }],
            ..FaultPlan::default()
        })
        .unwrap();
        t.begin_round(1, 2);
        assert_eq!(t.send_upload(up(0, 1, 1.0)), DeliveryOutcome::Dropped);
        assert!(!t.server_online(1));
        assert!(t.take_inbox(1).is_empty());
        let comm = t.take_comm();
        assert_eq!(comm.upload_messages, 1);
        assert_eq!(comm.dropped_uploads, 1);
    }

    #[test]
    fn tight_deadline_produces_delayed_uploads_without_a_fault_plan() {
        // 2-parameter model = 8 bytes; at 1 byte/ms that is 8 ms transfer
        // against a 5 ms deadline: every upload misses, produced purely by
        // the network model.
        let model = NetModel { bytes_per_ms: 1, deadline_ms: 5, ..NetModel::ideal() };
        let mut t = NetTransport::new(1, 4, 2, model);
        t.begin_round(0, 2);
        let report = t.send_upload_tracked(up(0, 0, 1.0));
        assert_eq!(report.outcome, DeliveryOutcome::Delayed);
        assert!(report.deadline_missed);
        assert!(report.elapsed_ms > 5);
        assert!(t.take_inbox(0).is_empty());
        let comm = t.take_comm();
        assert_eq!(comm.deadline_misses, 1);
        assert_eq!(comm.dropped_uploads, 1);
    }

    #[test]
    fn server_lag_produces_delayed_aggregates_without_a_fault_plan() {
        let model = NetModel { server_lag_ms: 500, round_ms: 100, ..NetModel::ideal() };
        let mut t = NetTransport::new(3, 4, 1, model);
        let mut delayed = 0;
        for round in 0..12 {
            t.begin_round(round, 1);
            let (o, _) = t.release_aggregate(0, Tensor::from_slice(&[round as f32]));
            if o == DeliveryOutcome::Delayed {
                delayed += 1;
            }
        }
        assert!(delayed > 0, "a 5-round mean lag must delay some aggregate in 12 rounds");
    }

    #[test]
    fn broadcast_and_drain_roundtrip_with_coverage_check() {
        let mut t = NetTransport::new(1, 4, 2, NetModel::ideal());
        t.begin_round(0, 2);
        let short = Broadcast {
            server: 0,
            model: Dissemination::PerClient(vec![Tensor::from_slice(&[1.0, 1.0]); 2]),
        };
        assert!(t.broadcast(short).is_err());
        t.broadcast(Broadcast {
            server: 1,
            model: Dissemination::Broadcast(Tensor::from_slice(&[2.0, 2.0])),
        })
        .unwrap();
        for k in 0..4 {
            let d = t.drain_deliveries(k);
            assert_eq!(d.len(), 1);
            assert_eq!(d[0].server, 1);
            assert_eq!(d[0].model.as_slice(), &[2.0, 2.0]);
        }
        let comm = t.take_comm();
        assert_eq!(comm.download_messages, 4);
    }

    #[test]
    fn partitioned_server_is_unreachable_both_ways() {
        let mut t = NetTransport::new(1, 4, 3, NetModel::ideal());
        t.set_net_threat(NetThreat { partitioned: vec![1], corrupt_rate: 0.0 });
        t.begin_round(0, 2);
        // Uplink: dropped at the sender, the server stays online (it is
        // up, just unreachable — unlike a crash).
        assert_eq!(t.send_upload(up(0, 1, 1.0)), DeliveryOutcome::Dropped);
        assert!(t.server_online(1));
        assert_eq!(t.send_upload(up(0, 2, 1.0)), DeliveryOutcome::Delivered);
        assert!(t.take_inbox(1).is_empty());
        assert_eq!(t.take_inbox(2).len(), 1);
        // Downlink: its dissemination never crosses the link.
        for s in [1usize, 2] {
            t.broadcast(Broadcast {
                server: s,
                model: Dissemination::Broadcast(Tensor::from_slice(&[s as f32, 0.0])),
            })
            .unwrap();
        }
        let d = t.drain_deliveries(0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].server, 2);
        let comm = t.take_comm();
        assert_eq!(comm.dropped_uploads, 1);
        assert!(comm.dropped_downloads >= 1);
        // Healing the partition restores both directions.
        t.set_net_threat(NetThreat::default());
        t.begin_round(1, 2);
        assert_eq!(t.send_upload(up(0, 1, 9.0)), DeliveryOutcome::Delivered);
        assert_eq!(t.take_inbox(1).len(), 1);
        assert!(t.take_wire_error().is_none());
    }

    #[test]
    fn corrupted_frames_surface_typed_version_errors() {
        let mut t = NetTransport::new(7, 4, 2, NetModel::ideal());
        t.set_net_threat(NetThreat { partitioned: vec![], corrupt_rate: 1.0 });
        t.begin_round(0, 2);
        // Every uplink frame is corrupted: the payload is lost to the
        // round and the actor reports a typed version error.
        assert_eq!(t.send_upload(up(0, 0, 1.0)), DeliveryOutcome::Delivered);
        assert!(t.take_inbox(0).is_empty());
        match t.take_wire_error() {
            Some(WireError::Version { expected, .. }) => {
                assert_eq!(expected, crate::net::FRAME_VERSION);
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        // Downlink frames corrupt the same way.
        t.broadcast(Broadcast {
            server: 1,
            model: Dissemination::Broadcast(Tensor::from_slice(&[2.0, 2.0])),
        })
        .unwrap();
        assert!(t.drain_deliveries(0).is_empty());
        assert!(matches!(t.take_wire_error(), Some(WireError::Version { .. })));
        assert_eq!(t.net_stats().corrupted_frames, 2);
    }

    #[test]
    fn corruption_draws_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut t = NetTransport::new(seed, 4, 2, NetModel::ideal());
            t.set_net_threat(NetThreat { partitioned: vec![], corrupt_rate: 0.5 });
            let mut survivors = Vec::new();
            for round in 0..6 {
                t.begin_round(round, 2);
                for k in 0..4 {
                    t.send_upload(up(k, 0, k as f32));
                }
                survivors.push(t.take_inbox(0).len());
                t.take_wire_error();
                t.take_comm();
            }
            (survivors, t.net_stats().corrupted_frames)
        };
        assert_eq!(run(3), run(3));
        let (survivors, corrupted) = run(3);
        assert!(corrupted > 0, "rate 0.5 over 24 uploads must corrupt something");
        assert!(survivors.iter().any(|&n| n > 0), "and some frames must survive");
    }

    #[test]
    fn outboxes_roundtrip_through_snapshots() {
        let mut t = NetTransport::new(1, 4, 2, NetModel::ideal());
        t.install_fault_plan(FaultPlan {
            server_faults: vec![ServerFault::Straggler { delay: 2 }, ServerFault::None],
            ..FaultPlan::default()
        })
        .unwrap();
        t.begin_round(0, 1);
        t.release_aggregate(0, Tensor::from_slice(&[7.0]));
        let state = t.state_snapshot();
        assert_eq!(state[0].len(), 1);
        let mut r = NetTransport::new(1, 4, 2, NetModel::ideal());
        r.restore_state(state.clone());
        assert_eq!(r.state_snapshot(), state);
    }
}
