//! Seeded input generation.
//!
//! The program under test only ever receives ticks produced here, and
//! the correctness gate regenerates the identical streams from the same
//! seed, so nothing but digests has to be kept while the load runs.
//!
//! * [`FleetStream`] draws bounded noise per tick on the fly (no
//!   buffer): every coordinate is fresh random bits, so no trusted state
//!   ever repeats, and the values stay deep inside the fleet plant's safe
//!   set, so every reachability walk runs the full horizon.
//! * [`EpisodePool`] holds a bounded set of closed-loop Table-1 episodes
//!   (`awsad_sim::run_episode` under `awsad_sim::sample_attack`), and a
//!   [`SessionStream`] walks one session through its row's pool in a
//!   seeded order. The pool is generated before set-up starts and its
//!   size does not depend on run length.

use awsad_models::Simulator;
use awsad_sim::{run_episode, sample_attack, AttackKind, EpisodeConfig};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// SplitMix64 finalizer: derives independent stream seeds from the
/// workload seed, so each session's stream depends only on
/// `(seed, stream, index)`.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed stream tags, so the three workloads never share a stream.
pub const STREAM_FLEET: u64 = 1;
/// Seed stream of the `gateway` episode pool.
pub const STREAM_GATEWAY: u64 = 2;
/// Seed stream of the `cluster` episode pool.
pub const STREAM_CLUSTER: u64 = 3;

/// Bounded random ticks for one fleet session.
pub struct FleetStream {
    rng: StdRng,
    dim: usize,
}

/// Centre of the fleet's trusted states; far inside the ±50 safe box,
/// so the ±0.1 control box never lets the tube escape within 512 steps.
const FLEET_CENTRE: f64 = 0.3;
/// Half-width of the uniform noise around [`FLEET_CENTRE`].
const FLEET_SPREAD: f64 = 0.05;
/// Fleet inputs are drawn from the plant's control box `[-0.1, 0.1]`.
const FLEET_INPUT: f64 = 0.1;

impl FleetStream {
    /// The stream of fleet session `session` under `seed`.
    pub fn new(seed: u64, session: usize, dim: usize) -> Self {
        FleetStream {
            rng: StdRng::seed_from_u64(derive_seed(seed, STREAM_FLEET, session as u64)),
            dim,
        }
    }

    /// Writes the next tick's estimate and input.
    pub fn next_into(&mut self, estimate: &mut Vec<f64>, input: &mut Vec<f64>) {
        estimate.clear();
        input.clear();
        for _ in 0..self.dim {
            estimate.push(FLEET_CENTRE + FLEET_SPREAD * self.rng.random_range(-1.0..1.0));
        }
        for _ in 0..self.dim {
            input.push(FLEET_INPUT * self.rng.random_range(-1.0..1.0));
        }
    }
}

/// The attack kinds every row's pool cycles through, benign first.
pub const KINDS: [AttackKind; 4] = [
    AttackKind::None,
    AttackKind::Bias,
    AttackKind::Delay,
    AttackKind::Replay,
];

/// One closed-loop episode, reduced to the tick stream a detector sees.
pub struct Episode {
    /// State dimension `n`.
    pub n: usize,
    /// Input dimension `m`.
    pub m: usize,
    /// `[onset, end)` of the attack, when attacked.
    pub attack: Option<(usize, usize)>,
    /// Row-major `len × (n + m)`: estimate then input per step.
    data: Vec<f64>,
}

impl Episode {
    /// Steps in the episode.
    pub fn len(&self) -> usize {
        self.data.len() / (self.n + self.m)
    }

    /// Whether the episode has no steps.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Estimate and input at step `t`.
    pub fn tick(&self, t: usize) -> (&[f64], &[f64]) {
        let w = self.n + self.m;
        let row = &self.data[t * w..(t + 1) * w];
        row.split_at(self.n)
    }

    /// Whether step `t` lies inside the attack window.
    pub fn attacked(&self, t: usize) -> bool {
        self.attack.is_some_and(|(on, end)| t >= on && t < end)
    }
}

/// Per Table-1 row, a bounded set of episodes.
pub struct EpisodePool {
    rows: Vec<Vec<Episode>>,
}

impl EpisodePool {
    /// Generates `per_kind` episodes of each attack kind for every
    /// Table-1 row, truncated to `max_len` steps (`0` = full length).
    pub fn generate(seed: u64, stream: u64, per_kind: usize, max_len: usize) -> Self {
        let rows = Simulator::all()
            .into_iter()
            .map(|sim| {
                let model = sim.build();
                let mut cfg = EpisodeConfig::for_model(&model);
                if max_len > 0 {
                    cfg.steps = cfg.steps.min(max_len);
                }
                let row = sim.table1_row() as u64;
                let mut episodes = Vec::with_capacity(per_kind * KINDS.len());
                for k in 0..per_kind {
                    for (ki, &kind) in KINDS.iter().enumerate() {
                        let idx = (k * KINDS.len() + ki) as u64;
                        let ep_seed = derive_seed(seed, stream, row << 32 | idx);
                        let mut rng = StdRng::seed_from_u64(ep_seed ^ 0x00a7_7ac4);
                        let mut sampled = sample_attack(&model, kind, &mut rng);
                        let ep = run_episode(
                            &model,
                            &mut *sampled.attack,
                            Some(sampled.reference),
                            &cfg,
                            ep_seed,
                        );
                        let n = model.state_dim();
                        let m = model.system.input_dim();
                        let mut data = Vec::with_capacity(ep.estimates.len() * (n + m));
                        for (x, u) in ep.estimates.iter().zip(&ep.inputs) {
                            data.extend_from_slice(x.as_slice());
                            data.extend_from_slice(u.as_slice());
                        }
                        let attack = ep
                            .attack_onset
                            .map(|on| (on, ep.attack_end.unwrap_or(usize::MAX)));
                        episodes.push(Episode { n, m, attack, data });
                    }
                }
                episodes
            })
            .collect();
        EpisodePool { rows }
    }

    /// Episodes of Table-1 row `row` (1-based).
    pub fn row(&self, row: u8) -> &[Episode] {
        &self.rows[row as usize - 1]
    }

    /// Stored `f64`s across the pool (its memory is 8 bytes each).
    pub fn stored_values(&self) -> usize {
        self.rows.iter().flatten().map(|e| e.data.len()).sum()
    }

    /// Steps in one pass over row `row`'s pool.
    pub fn cycle_len(&self, row: u8) -> usize {
        self.row(row).iter().map(Episode::len).sum()
    }
}

/// One tick of a [`SessionStream`].
pub struct StreamTick<'a> {
    /// State estimate.
    pub estimate: &'a [f64],
    /// Control input.
    pub input: &'a [f64],
    /// Whether this is the first step of an episode pass.
    pub episode_start: bool,
    /// Whether the step lies inside an attack window.
    pub attacked: bool,
}

/// One session's walk through its row's pool: a seeded permutation of
/// the row's episodes, entered at a seeded offset, repeated in order.
pub struct SessionStream<'p> {
    episodes: &'p [Episode],
    order: Vec<usize>,
    pos: usize,
    t: usize,
}

impl<'p> SessionStream<'p> {
    /// The stream of session `session` (of row `row`) under `seed`.
    pub fn new(pool: &'p EpisodePool, row: u8, seed: u64, stream: u64, session: usize) -> Self {
        let episodes = pool.row(row);
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream ^ 0x5e55, session as u64));
        let mut order: Vec<usize> = (0..episodes.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let pos = rng.random_range(0..order.len());
        let t = rng.random_range(0..episodes[order[pos]].len());
        SessionStream {
            episodes,
            order,
            pos,
            t,
        }
    }

    /// The next tick.
    pub fn next_tick(&mut self) -> StreamTick<'p> {
        let mut ep = &self.episodes[self.order[self.pos]];
        if self.t >= ep.len() {
            self.t = 0;
            self.pos = (self.pos + 1) % self.order.len();
            ep = &self.episodes[self.order[self.pos]];
        }
        let t = self.t;
        self.t += 1;
        let (estimate, input) = ep.tick(t);
        StreamTick {
            estimate,
            input,
            episode_start: t == 0,
            attacked: ep.attacked(t),
        }
    }
}
