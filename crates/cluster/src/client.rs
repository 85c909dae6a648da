//! The cluster-aware client: consistent-hash routing, checkpointing,
//! failover, and live drain migration.
//!
//! [`ClusterClient`] owns the ring and one wire [`Client`] per shard
//! it has talked to. Sessions are addressed by a client-assigned
//! **cluster key**; the key's ring position picks the primary shard,
//! and the primary's ring successor (for the session's replica key)
//! is where the server replicates snapshots — and therefore where the
//! client promotes when the primary dies.
//!
//! # Checkpoints and the tick log
//!
//! Per session the client keeps its last **checkpoint** (a
//! `SnapshotSession` state) and a **log** of the ticks delivered
//! since: checkpoint plus log is the session's state at the client's
//! **progress point** (`checkpoint.next_seq` + logged ticks),
//! wherever the session lives. A delivered batch is appended to the
//! log, and a fresh checkpoint is taken only once the log's f64 count
//! reaches the checkpoint's own: the log stays below one checkpoint's
//! payload plus one batch, so replaying it costs about what shipping
//! a checkpoint does, and the cadence needs no tuning. The servers
//! replicate exactly the snapshots they return for `SnapshotSession`,
//! so a replica is always a checkpoint this client took (or one whose
//! reply it lost), never a cut between two of them.
//!
//! # Why a resumed stream is byte-identical
//!
//! When a call hits a transport failure (the wire client's poisoned
//! fail-fast) the shard is declared dead, and the session is rebuilt
//! on the pinned backup at exactly the client's progress point before
//! the interrupted batch is delivered there. `PromoteSession` decides
//! how:
//!
//! 1. the replica is **at progress** (the checkpoint reply after the
//!    last batch was lost after the server replicated it, or the log
//!    is empty) — adopt it and clear the log;
//! 2. the replica **is the checkpoint** — keep it and replay the log;
//! 3. the replica is **older** (replication lagged or shed it), or
//!    promotion answers `UnknownSession` (none ever arrived: a fresh
//!    session is never replicated) — close any promoted session,
//!    `RestoreSession` the checkpoint and replay the log.
//!
//! A replica also has to carry the checkpoint's recalibration count,
//! so a cut from before a model swap at the same `next_seq` is never
//! mistaken for one after it. A replica can never run ahead of
//! progress: the server replicates only on `SnapshotSession`, so a
//! batch it applied but whose reply was lost is never replicated.
//!
//! Either way the rebuilt session holds the bit-exact state the dead
//! shard held after the last *delivered* batch, and the detector
//! pipeline is deterministic, so the outcomes the caller sees are the
//! ones the dead shard would have produced. Duplicated server-side
//! work is possible (the dead shard may have applied the batch before
//! dying, and replayed ticks are stepped again); duplicated or lost
//! *caller-visible* outcomes are not.
//!
//! # The last member recovers in place
//!
//! A failed shard with no ring successor stays on the ring, and its
//! sessions are pinned to it. No shard holds a replica of its own
//! sessions, so each one recovers on its own next call by branch 3
//! against the same address: reconnect with the [`RetryPolicy`]'s
//! decorrelated-jitter backoff (the first attempt immediate), then
//! restore the checkpoint and replay the log. This is how a one-member
//! ring makes sessions survive a server restart (the
//! [`ClusterClient`] example).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::thread;
use std::time::Duration;

use awsad_serve::client::{Client, ClientError};
use awsad_serve::wire::{
    ErrorCode, RingMember, SessionSpec, WireOutcome, WireSessionState, WireTick,
};

use crate::ring::{replica_key, HashRing};

/// Everything that can go wrong on a cluster call.
#[derive(Debug)]
pub enum ClusterError {
    /// A wire-client failure that routing could not absorb.
    Client(ClientError),
    /// The ring has no members able to serve the request.
    NoShards,
    /// No session is routed under this cluster key.
    UnknownSession(u64),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Client(e) => write!(f, "shard call failed: {e}"),
            ClusterError::NoShards => write!(f, "no live shards on the ring"),
            ClusterError::UnknownSession(key) => {
                write!(f, "no session routed under cluster key {key}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ClientError> for ClusterError {
    fn from(e: ClientError) -> Self {
        ClusterError::Client(e)
    }
}

/// Result alias for cluster calls.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Backoff and retry limits for recovering a session in place (module
/// docs).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Reconnection attempts per recovery after the first, immediate
    /// one; once they are spent the call fails with
    /// [`ClusterError::NoShards`].
    pub max_retries: u32,
    /// First backoff delay, and the floor for every later one.
    pub base_delay: Duration,
    /// Cap on any single backoff delay.
    pub max_delay: Duration,
    /// Seed for the jitter PRNG — equal seeds give identical backoff
    /// schedules, which keeps chaos tests deterministic.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// A session opened through the cluster router.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSession {
    /// The cluster key — what every subsequent call addresses. Stable
    /// across failover and migration (the shard-local session id is
    /// not).
    pub key: u64,
    /// State-estimate dimension the session expects per tick.
    pub state_dim: usize,
    /// Input dimension the session expects per tick.
    pub input_dim: usize,
}

/// How the failovers so far rebuilt their sessions, one count per
/// branch of the promotion decision (module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Recoveries {
    /// The promoted replica was at the client's progress point and was
    /// adopted as is.
    pub adopted: u64,
    /// The promoted replica was the client's checkpoint; the tick log
    /// was replayed onto it.
    pub replayed: u64,
    /// No usable replica (none arrived, an older cut, or a shard with
    /// no ring successor recovered in place): the checkpoint was
    /// restored and the tick log replayed onto it.
    pub restored: u64,
}

impl Recoveries {
    /// Failovers of every branch together.
    pub fn total(&self) -> u64 {
        self.adopted + self.replayed + self.restored
    }
}

impl std::ops::AddAssign for Recoveries {
    fn add_assign(&mut self, other: Recoveries) {
        self.adopted += other.adopted;
        self.replayed += other.replayed;
        self.restored += other.restored;
    }
}

/// Where one session currently lives, and what rebuilds it elsewhere.
struct Route {
    spec: SessionSpec,
    /// Current primary shard.
    shard: u32,
    /// Session id on that shard.
    remote: u64,
    /// The session's tick dimensions (state estimate, input).
    state_dim: usize,
    input_dim: usize,
    /// The last checkpoint — the restore seed.
    checkpoint: WireSessionState,
    /// The f64 values `checkpoint` retains ([`payload`]).
    budget: usize,
    /// Ticks delivered since `checkpoint`, flattened: each tick's
    /// estimate, then its input. Its capacity is kept across
    /// checkpoints, so a steady session logs without allocating.
    log: Vec<f64>,
    /// Promotion target captured at the instant the primary was
    /// declared dead (computed on the ring the primary replicated
    /// by, so it names the member actually holding the replica), or
    /// the primary itself when it had no successor. `Some` exactly
    /// while the session's server-side state is gone.
    backup: Option<u32>,
}

impl Route {
    /// f64 values one tick takes in the log.
    fn stride(&self) -> usize {
        self.state_dim + self.input_dim
    }

    /// Ticks in the log.
    fn logged(&self) -> u64 {
        (self.log.len() / self.stride()) as u64
    }

    /// The `next_seq` of the session at the client's progress point.
    fn progress(&self) -> u64 {
        self.checkpoint.next_seq + self.logged()
    }

    /// Appends a delivered batch to the log. The capacity grows to
    /// exactly what the log has needed, never to a doubling of it.
    fn append(&mut self, ticks: &[WireTick]) {
        self.log.reserve_exact(ticks.len() * self.stride());
        for tick in ticks {
            self.log.extend_from_slice(&tick.estimate);
            self.log.extend_from_slice(&tick.input);
        }
    }

    /// Whether the log has reached the checkpoint's payload, so a
    /// fresh checkpoint is cheaper than carrying the log further.
    fn due(&self) -> bool {
        self.log.len() >= self.budget
    }

    /// Stores a state at the progress point as the new checkpoint and
    /// empties the log.
    fn set_checkpoint(&mut self, state: WireSessionState) {
        self.budget = payload(&state);
        self.checkpoint = state;
        self.log.clear();
    }

    /// The log as one batch, for replay.
    fn log_ticks(&self) -> Vec<WireTick> {
        self.log
            .chunks_exact(self.stride())
            .map(|tick| WireTick {
                estimate: tick[..self.state_dim].to_vec(),
                input: tick[self.state_dim..].to_vec(),
            })
            .collect()
    }
}

/// The f64 values a session state carries: every retained entry's
/// estimate, input, prediction and residual, plus the recalibrated
/// matrices.
fn payload(state: &WireSessionState) -> usize {
    let entries: usize = state
        .entries
        .iter()
        .map(|e| {
            e.estimate.len()
                + e.input.len()
                + e.prediction.as_ref().map_or(0, Vec::len)
                + e.residual.len()
        })
        .sum();
    entries
        + state
            .recalibration
            .as_ref()
            .map_or(0, |r| r.a.len() + r.b.len())
}

/// Accepted model swaps a state carries.
fn recalibrations(state: &WireSessionState) -> u64 {
    state.recalibration.as_ref().map_or(0, |r| r.count)
}

/// Whether a wire-client error means the connection (and presumably
/// the shard) is gone, as opposed to a well-framed server verdict.
fn transport_failure(e: &ClientError) -> bool {
    !matches!(e, ClientError::Server { .. })
}

/// The connection to `shard`, opened on demand. A free function so
/// callers can hold a route and a connection at once.
fn connect<'a>(
    conns: &'a mut HashMap<u32, Client>,
    ring: &HashRing,
    shard: u32,
) -> std::result::Result<&'a mut Client, ClientError> {
    match conns.entry(shard) {
        Entry::Occupied(conn) => Ok(conn.into_mut()),
        Entry::Vacant(slot) => {
            let addr = ring.addr_of(shard).ok_or(ClientError::Closed)?;
            Ok(slot.insert(Client::connect(addr)?))
        }
    }
}

/// Replays `route`'s log onto `session`, bringing it from the
/// checkpoint to the progress point. The outcomes were delivered
/// before, so they are dropped.
fn replay(conn: &mut Client, session: u64, route: &Route) -> std::result::Result<(), ClientError> {
    if !route.log.is_empty() {
        conn.tick_batch(session, &route.log_ticks())?;
    }
    Ok(())
}

/// The consistent-hash session router. See the module docs for the
/// failover protocol.
///
/// Over a one-member ring it is a reconnecting client: sessions
/// survive a server kill and restart on the same address.
///
/// ```no_run
/// use awsad_cluster::ClusterClient;
/// use awsad_serve::wire::{RingMember, SessionSpec, WireTick};
///
/// let addr = "127.0.0.1:4048".to_string();
/// let mut client = ClusterClient::from_members(&[RingMember { shard: 0, addr }]);
/// let session = client.open_session(&SessionSpec::model_defaults(2)).unwrap();
/// // Stream as usual; kill the server mid-loop and restart it on the
/// // same address: the outcomes keep arriving, byte-identical, with
/// // seq numbering intact.
/// let batch = vec![WireTick { estimate: vec![0.01], input: vec![0.0] }];
/// for outcome in client.tick_batch(session.key, &batch).unwrap() {
///     if outcome.alarm() { /* respond */ }
/// }
/// ```
pub struct ClusterClient {
    ring: HashRing,
    conns: HashMap<u32, Client>,
    routes: HashMap<u64, Route>,
    next_key: u64,
    recoveries: Recoveries,
    policy: RetryPolicy,
    /// The delay the next backoff is derived from.
    backoff_floor: Duration,
    /// xorshift64* state of the backoff jitter.
    rng: u64,
}

impl ClusterClient {
    /// A router over an explicit ring (connections are opened
    /// lazily, per shard, on first use), recovering in place under
    /// the default [`RetryPolicy`].
    pub fn new(ring: HashRing) -> ClusterClient {
        ClusterClient::with_policy(ring, RetryPolicy::default())
    }

    /// A router over `ring` whose in-place recoveries follow `policy`.
    pub fn with_policy(ring: HashRing, policy: RetryPolicy) -> ClusterClient {
        ClusterClient {
            ring,
            conns: HashMap::new(),
            routes: HashMap::new(),
            next_key: 1,
            recoveries: Recoveries::default(),
            backoff_floor: policy.base_delay,
            // xorshift has a zero fixed point; substitute the default
            // seed.
            rng: if policy.seed == 0 {
                RetryPolicy::default().seed
            } else {
                policy.seed
            },
            policy,
        }
    }

    /// A router over a fresh epoch-1 ring of `members`.
    pub fn from_members(members: &[RingMember]) -> ClusterClient {
        ClusterClient::new(HashRing::new(1, members.to_vec()))
    }

    /// The ring the router currently routes by.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// How many sessions have been rebuilt after a transport failure
    /// so far: failed over to a backup, or recovered in place.
    pub fn failovers(&self) -> u64 {
        self.recoveries.total()
    }

    /// The delay the next backoff will be derived from:
    /// [`RetryPolicy::base_delay`] after a successful in-place
    /// recovery, inflated while an outage is being retried (an outage
    /// that exhausts its retries leaves it inflated until the next
    /// success).
    pub fn current_backoff_floor(&self) -> Duration {
        self.backoff_floor
    }

    /// The failovers so far, by how each rebuilt its session.
    pub fn recoveries(&self) -> Recoveries {
        self.recoveries
    }

    /// The shard currently serving cluster key `key`.
    pub fn primary_of(&self, key: u64) -> Option<u32> {
        self.routes.get(&key).map(|r| r.shard)
    }

    /// The connection to `shard`, opened on demand.
    fn conn(&mut self, shard: u32) -> std::result::Result<&mut Client, ClientError> {
        connect(&mut self.conns, &self.ring, shard)
    }

    fn route(&self, key: u64) -> Result<&Route> {
        self.routes
            .get(&key)
            .ok_or(ClusterError::UnknownSession(key))
    }

    /// Opens a session: the cluster key's ring position picks the
    /// primary, and an immediate snapshot seeds the checkpoint so the
    /// session can fail over before its first batch. The servers do
    /// not replicate this fresh state; a backup rebuilds it from the
    /// spec through this checkpoint.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoShards`] on an empty ring; wire failures
    /// otherwise.
    pub fn open_session(&mut self, spec: &SessionSpec) -> Result<ClusterSession> {
        let key = self.next_key;
        self.next_key += 1;
        let shard = self.ring.primary_for(key).ok_or(ClusterError::NoShards)?;
        let conn = self.conn(shard)?;
        let session = conn.open_session(spec)?;
        let checkpoint = conn.snapshot_session(session.id)?;
        self.routes.insert(
            key,
            Route {
                spec: spec.clone(),
                shard,
                remote: session.id,
                state_dim: session.state_dim,
                input_dim: session.input_dim,
                budget: payload(&checkpoint),
                checkpoint,
                log: Vec::new(),
                backup: None,
            },
        );
        Ok(ClusterSession {
            key,
            state_dim: session.state_dim,
            input_dim: session.input_dim,
        })
    }

    /// Streams one batch through the session's primary and logs it;
    /// once the log has reached the checkpoint's payload the batch is
    /// followed by a fresh checkpoint. A transport failure declares
    /// the primary dead and transparently delivers the batch on the
    /// backup, rebuilt at the client's progress point — the returned
    /// outcomes are byte-identical either way (module docs).
    ///
    /// A delivered batch's outcomes are always returned. When the
    /// checkpoint after it fails on the transport, the primary is
    /// declared dead and the session fails over on its next call, like
    /// every other session of that shard: the log carries the batch.
    ///
    /// # Errors
    ///
    /// Typed server errors (dimension mismatch, unknown session —
    /// e.g. after a TTL eviction) surface as
    /// [`ClusterError::Client`]; failover exhaustion (no surviving
    /// member, or an in-place recovery out of retries) as
    /// [`ClusterError::NoShards`].
    pub fn tick_batch(&mut self, key: u64, ticks: &[WireTick]) -> Result<Vec<WireOutcome>> {
        let route = self.route(key)?;
        let shard = route.shard;
        let delivered = if route.backup.is_none() {
            match self.send_batch(key, ticks) {
                Ok(outcomes) => Some(outcomes),
                Err(e) if transport_failure(&e) => {
                    self.fail_shard(shard);
                    None
                }
                Err(e) => return Err(e.into()),
            }
        } else {
            None
        };
        let outcomes = match delivered {
            Some(outcomes) => outcomes,
            None => {
                self.failover(key)?;
                self.send_batch(key, ticks)?
            }
        };
        self.log_delivered(key, ticks);
        Ok(outcomes)
    }

    /// One tick, as a batch of one.
    ///
    /// # Errors
    ///
    /// As [`ClusterClient::tick_batch`].
    pub fn tick(&mut self, key: u64, estimate: &[f64], input: &[f64]) -> Result<WireOutcome> {
        let ticks = [WireTick {
            estimate: estimate.to_vec(),
            input: input.to_vec(),
        }];
        let mut outcomes = self.tick_batch(key, &ticks)?;
        Ok(outcomes.pop().expect("one outcome per tick"))
    }

    /// Sends `ticks` to the session's current primary.
    fn send_batch(
        &mut self,
        key: u64,
        ticks: &[WireTick],
    ) -> std::result::Result<Vec<WireOutcome>, ClientError> {
        let route = self.routes.get(&key).expect("caller checked the route");
        let (shard, remote) = (route.shard, route.remote);
        self.conn(shard)?.tick_batch(remote, ticks)
    }

    /// Logs a delivered batch and checkpoints when the log is due. A
    /// failed checkpoint keeps the previous one and the log, which
    /// still describe the session; a transport failure also declares
    /// the primary dead.
    fn log_delivered(&mut self, key: u64, ticks: &[WireTick]) {
        let Self {
            ring,
            conns,
            routes,
            ..
        } = self;
        let route = routes.get_mut(&key).expect("caller checked the route");
        route.append(ticks);
        if !route.due() {
            return;
        }
        let shard = route.shard;
        match connect(conns, ring, shard).and_then(|c| c.snapshot_session(route.remote)) {
            Ok(state) => route.set_checkpoint(state),
            Err(e) if transport_failure(&e) => self.fail_shard(shard),
            Err(_) => {}
        }
    }

    /// Declares `dead` gone: drops its connection, pins every
    /// affected session's promotion target (computed on the ring the
    /// dead shard replicated by — the member set must match for the
    /// successor walk to land on the actual replica holder), shrinks
    /// the ring, and broadcasts the new epoch so surviving
    /// replicators re-route. The last member stays on the ring, its
    /// sessions pinned to itself, to recover in place. A session
    /// pinned to `dead` as its backup is re-pinned to the next
    /// member: the replica died with the backup, so that member
    /// restores the checkpoint. Idempotent.
    fn fail_shard(&mut self, dead: u32) {
        if self.ring.addr_of(dead).is_none() {
            return;
        }
        self.conns.remove(&dead);
        let ring = &self.ring;
        for route in self.routes.values_mut() {
            if route.shard == dead && route.backup.is_none() {
                let successor = ring.successor_for(replica_key(dead, route.remote), dead);
                route.backup = Some(successor.unwrap_or(dead));
            } else if route.shard != dead && route.backup == Some(dead) {
                let key = replica_key(route.shard, route.remote);
                if let Some(successor) = ring.successor_for(key, dead) {
                    route.backup = Some(successor);
                }
            }
        }
        if self.ring.len() > 1 {
            self.ring = self.ring.without(dead);
            self.broadcast_ring();
        }
    }

    /// Pushes the current ring view to every member, best-effort: a
    /// member that cannot be reached right now simply keeps routing
    /// replicas by its previous view (sheds them if the target is
    /// gone) until a later broadcast lands.
    fn broadcast_ring(&mut self) {
        let epoch = self.ring.epoch();
        let members: Vec<RingMember> = self.ring.members().to_vec();
        for member in &members {
            let Ok(conn) = self.conn(member.shard) else {
                continue;
            };
            if conn.ring_update(epoch, &members).is_err() {
                self.conns.remove(&member.shard);
            }
        }
    }

    /// Moves the session to its pinned backup, rebuilt at the client's
    /// progress point by one of the three branches of the module docs.
    /// A backup found dead is failed in turn, and the session retried
    /// on the member it is re-pinned to. A session pinned to its own
    /// shard is recovered in place, reconnecting with backoff until
    /// the policy's retries are spent ([`ClusterError::NoShards`]).
    /// The route switches to the backup only once the rebuilt session
    /// is at progress, so a failure part-way leaves it pinned and the
    /// next call retries.
    fn failover(&mut self, key: u64) -> Result<()> {
        let route = self.route(key)?;
        let (shard, target) = (route.shard, route.backup.ok_or(ClusterError::NoShards)?);
        if target != shard {
            return match self.rebuild(key) {
                Err(e) if transport_failure(&e) => {
                    self.fail_shard(target);
                    if self.route(key)?.backup == Some(target) {
                        Err(e.into())
                    } else {
                        self.failover(key)
                    }
                }
                rebuilt => Ok(rebuilt?),
            };
        }
        let mut attempt = 0;
        loop {
            match self.rebuild(key) {
                Ok(()) => {
                    self.backoff_floor = self.policy.base_delay;
                    return Ok(());
                }
                Err(e) if !transport_failure(&e) => return Err(e.into()),
                Err(_) => {
                    // The connection is gone again, and with it every
                    // session restored on it since.
                    self.fail_shard(shard);
                    if attempt == self.policy.max_retries {
                        return Err(ClusterError::NoShards);
                    }
                    attempt += 1;
                    thread::sleep(self.next_backoff());
                }
            }
        }
    }

    /// Decorrelated-jitter backoff: uniform in
    /// `[base, min(max, 3 * floor))`, never below `base`; the delay
    /// drawn becomes the next floor.
    fn next_backoff(&mut self) -> Duration {
        let base = self.policy.base_delay.as_nanos() as u64;
        let ceiling = (self.backoff_floor.as_nanos() as u64)
            .saturating_mul(3)
            .min(self.policy.max_delay.as_nanos() as u64)
            .max(base.saturating_add(1));
        // xorshift64*: deterministic, dependency-free jitter.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let draw = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D);
        self.backoff_floor = Duration::from_nanos(base + draw % (ceiling - base));
        self.backoff_floor
    }

    /// One attempt at rebuilding the session on its pinned target. A
    /// shard never holds a replica of its own sessions, so an in-place
    /// rebuild skips promotion and restores.
    fn rebuild(&mut self, key: u64) -> std::result::Result<(), ClientError> {
        let Self {
            ring,
            conns,
            routes,
            recoveries,
            ..
        } = self;
        let route = routes.get_mut(&key).expect("caller checked the route");
        let target = route.backup.expect("caller saw the route pinned");
        let conn = connect(conns, ring, target)?;
        let promoted = if target == route.shard {
            None
        } else {
            match conn.promote_session(replica_key(route.shard, route.remote)) {
                Ok(promoted) => Some(promoted),
                // No replica ever arrived (replication is best-effort,
                // and a fresh session is never replicated).
                Err(ClientError::Server {
                    code: ErrorCode::UnknownSession,
                    ..
                }) => None,
                Err(e) => return Err(e),
            }
        };
        let recalibrated = recalibrations(&route.checkpoint);
        let remote = match promoted {
            Some((id, state))
                if recalibrations(&state) == recalibrated && state.next_seq == route.progress() =>
            {
                route.set_checkpoint(state);
                recoveries.adopted += 1;
                id
            }
            Some((id, state))
                if recalibrations(&state) == recalibrated
                    && state.next_seq == route.checkpoint.next_seq =>
            {
                replay(conn, id, route)?;
                recoveries.replayed += 1;
                id
            }
            promoted => {
                // An older cut: replaying from it would need ticks the
                // log no longer holds, so discard it.
                if let Some((id, _)) = promoted {
                    conn.close_session(id)?;
                }
                let id = conn.restore_session(&route.spec, &route.checkpoint)?.id;
                replay(conn, id, route)?;
                recoveries.restored += 1;
                id
            }
        };
        route.shard = target;
        route.remote = remote;
        route.backup = None;
        Ok(())
    }

    /// Swaps the session's plant model in place on its primary and
    /// checkpoints the recalibrated state (emptying the log), so a
    /// later failover resumes under the new model. A transport
    /// failure mid-call fails the primary over and re-issues the swap
    /// once on the backup. The swap is never replicated on its own and
    /// a replica must match the checkpoint's recalibration count, so
    /// the rebuilt session is always the pre-swap one and the returned
    /// count is the one an uninterrupted call returns.
    ///
    /// # Errors
    ///
    /// Typed server errors (dimension mismatch, unknown session)
    /// surface as [`ClusterError::Client`]; failover exhaustion as
    /// [`ClusterError::NoShards`].
    pub fn recalibrate(
        &mut self,
        key: u64,
        state_dim: u32,
        input_dim: u32,
        a: &[f64],
        b: &[f64],
    ) -> Result<u64> {
        let route = self.route(key)?;
        let shard = route.shard;
        if route.backup.is_none() {
            match self.try_recalibrate(key, state_dim, input_dim, a, b) {
                Ok(count) => return Ok(count),
                Err(e) if transport_failure(&e) => self.fail_shard(shard),
                Err(e) => return Err(e.into()),
            }
        }
        self.failover(key)?;
        Ok(self.try_recalibrate(key, state_dim, input_dim, a, b)?)
    }

    /// The swap-then-checkpoint unit: only when both round trips
    /// succeed is the recalibration considered delivered (the log
    /// cannot carry a swap).
    fn try_recalibrate(
        &mut self,
        key: u64,
        state_dim: u32,
        input_dim: u32,
        a: &[f64],
        b: &[f64],
    ) -> std::result::Result<u64, ClientError> {
        let Self {
            ring,
            conns,
            routes,
            ..
        } = self;
        let route = routes.get_mut(&key).expect("caller checked the route");
        let conn = connect(conns, ring, route.shard)?;
        let count = conn.recalibrate(route.remote, state_dim, input_dim, a, b)?;
        route.set_checkpoint(conn.snapshot_session(route.remote)?);
        Ok(count)
    }

    /// The session's last checkpoint (no round trip — this is the
    /// client-held restore seed). It trails the session by the ticks
    /// logged since, at most one checkpoint's payload plus one batch.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownSession`] on an unrouted key.
    pub fn checkpoint(&self, key: u64) -> Result<&WireSessionState> {
        self.route(key).map(|r| &r.checkpoint)
    }

    /// Closes the session on its primary and forgets the route. A
    /// session whose primary has failed and that has not been rebuilt
    /// yet is forgotten without a round trip. Any replica the backup
    /// still holds becomes garbage it will reject or overwrite on key
    /// reuse; it is never promoted (only this client knows the key).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownSession`] on an unrouted key; wire
    /// failures otherwise.
    pub fn close_session(&mut self, key: u64) -> Result<()> {
        let route = self
            .routes
            .remove(&key)
            .ok_or(ClusterError::UnknownSession(key))?;
        if route.backup.is_some() {
            // The session died with its primary's connection.
            return Ok(());
        }
        self.conn(route.shard)?.close_session(route.remote)?;
        Ok(())
    }

    /// Live migration: moves every session off `shard` to its new
    /// owner under the shrunken ring, with zero dropped ticks — the
    /// shard stays up throughout, each session is snapshotted at a
    /// batch boundary (the new checkpoint, emptying the log), restored
    /// bit-exactly on its new primary, and only then closed on the old
    /// shard, before the ring update retires the member. Returns how
    /// many sessions moved.
    ///
    /// # Errors
    ///
    /// Wire failures; a failed move leaves that session on the old
    /// shard (the drain can be retried).
    pub fn drain_shard(&mut self, shard: u32) -> Result<usize> {
        if self.ring.addr_of(shard).is_none() {
            return Ok(0);
        }
        let shrunk = self.ring.without(shard);
        if shrunk.is_empty() {
            return Err(ClusterError::NoShards);
        }
        let keys: Vec<u64> = self
            .routes
            .iter()
            .filter(|(_, r)| r.shard == shard)
            .map(|(k, _)| *k)
            .collect();
        let mut moved = 0;
        for key in keys {
            let Self {
                ring,
                conns,
                routes,
                ..
            } = self;
            let route = routes.get_mut(&key).expect("key collected above");
            let state = connect(conns, ring, shard)?.snapshot_session(route.remote)?;
            let new_primary = shrunk.primary_for(key).expect("non-empty ring");
            let restored =
                connect(conns, ring, new_primary)?.restore_session(&route.spec, &state)?;
            connect(conns, ring, shard)?.close_session(route.remote)?;
            route.shard = new_primary;
            route.remote = restored.id;
            route.set_checkpoint(state);
            route.backup = None;
            moved += 1;
        }
        self.ring = shrunk;
        self.broadcast_ring();
        self.conns.remove(&shard);
        Ok(moved)
    }
}
