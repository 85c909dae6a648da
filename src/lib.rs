//! # AWSAD — Adaptive Window-Based Sensor Attack Detection
//!
//! A from-scratch Rust implementation of *"Adaptive Window-Based
//! Sensor Attack Detection for Cyber-Physical Systems"* (Zhang, Wang,
//! Liu & Kong, DAC 2022), including every substrate the paper's system
//! depends on and the full evaluation harness.
//!
//! ## The idea
//!
//! Window-based residual detectors trade **detection delay** against
//! **false alarms**: a longer averaging window suppresses noise but
//! discovers attacks later. The paper's position is that this
//! trade-off should be struck *at run time*: when the physical system
//! is close to its unsafe region the detector must bias toward speed,
//! and when it is far away it can bias toward usability. Concretely:
//!
//! 1. a **detection deadline estimator** ([`reach`]) runs a
//!    support-function reachability analysis from the newest *trusted*
//!    state estimate and reports how many control periods remain
//!    before the plant could possibly become unsafe;
//! 2. the **adaptive detector** ([`core`]) sets its window size to
//!    that deadline (clamped to a profiled maximum), running
//!    *complementary detection* over re-exposed log entries whenever
//!    the window shrinks so no data point escapes unchecked;
//! 3. a **sliding-window data logger** ([`core`]) retains exactly the
//!    state estimates and residuals both components need, releasing
//!    older entries.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`linalg`] | `awsad-linalg` | vectors, matrices, LU, matrix exponential, ZOH discretization |
//! | [`sets`] | `awsad-sets` | intervals, boxes, k-norm balls, support functions |
//! | [`lti`] | `awsad-lti` | discrete LTI plants with bounded process noise |
//! | [`control`] | `awsad-control` | PID channels, references, actuator saturation |
//! | [`attack`] | `awsad-attack` | bias, ramp, delay, replay sensor attacks |
//! | [`reach`] | `awsad-reach` | reachable-set over-approximation, deadline search |
//! | [`core`] | `awsad-core` | data logger, window detector, adaptive protocol, baselines |
//! | [`models`] | `awsad-models` | the five Table 1 simulators + RC-car testbed |
//! | [`sim`] | `awsad-sim` | closed-loop episodes, Monte-Carlo cells, sweeps, metrics |
//! | [`runtime`] | `awsad-runtime` | multi-session streaming engine: worker pool, bounded queues, deadline cache wiring, metrics |
//! | [`serve`] | `awsad-serve` | detection-as-a-service: binary wire protocol, server configuration, blocking client, session snapshot/resume |
//! | [`net`] | `awsad-net` | the detection server: epoll event loop over I/O shards with per-shard engines, incremental frame decode, vectored writes |
//! | [`cluster`] | `awsad-cluster` | consistent-hash session sharding: snapshot replication to ring successors, backup promotion on shard failure, in-place recovery on the last member, live drain migration |
//!
//! ## Quickstart
//!
//! ```
//! use awsad::models::Simulator;
//! use awsad::sim::{run_cell, AttackKind, EpisodeConfig};
//!
//! // One Table 2 cell: vehicle turning under bias attacks.
//! let model = Simulator::VehicleTurning.build();
//! let cfg = EpisodeConfig::for_model(&model);
//! let cell = run_cell(&model, AttackKind::Bias, 10, &cfg, 42);
//! assert!(cell.adaptive.deadline_misses <= cell.fixed.deadline_misses);
//! ```
//!
//! See `examples/` for end-to-end walkthroughs and `crates/bench` for
//! the binaries that regenerate every table and figure of the paper.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod tour;

pub use awsad_attack as attack;
pub use awsad_cluster as cluster;
pub use awsad_control as control;
pub use awsad_core as core;
pub use awsad_linalg as linalg;
pub use awsad_lti as lti;
pub use awsad_models as models;
pub use awsad_net as net;
pub use awsad_reach as reach;
pub use awsad_runtime as runtime;
pub use awsad_serve as serve;
pub use awsad_sets as sets;
pub use awsad_sim as sim;

/// The most commonly used items in one import.
pub mod prelude {
    pub use awsad_attack::{
        AttackWindow, BiasAttack, ChainedAttack, DelayAttack, NoAttack, RampAttack,
        RandomValueAttack, ReplayAttack, SensorAttack,
    };
    pub use awsad_cluster::{ClusterClient, HashRing, LocalCluster, RetryPolicy};
    pub use awsad_control::{
        Controller, LqrController, PidChannel, PidController, PidGains, Reference,
    };
    pub use awsad_core::{
        calibrate_threshold, estimate_covariance, AdaptiveDetector, AlarmFilter, AlarmPolicy,
        ChiSquaredDetector, CusumDetector, DataLogger, DetectionReport, DetectorConfig,
        DetectorSnapshot, DriftConfig, DriftVerdict, EveryStepDetector, EwmaDetector,
        FixedWindowDetector, IdentError, IdentifiedModel, ModelIdentifier, ResidualDetector,
        WindowDetector,
    };
    pub use awsad_linalg::{discretize, eigenvalues, expm, spectral_radius, Lu, Matrix, Vector};
    pub use awsad_lti::{LtiSystem, NoiseModel, Observer, Plant};
    pub use awsad_models::{rc_car, CpsModel, Simulator};
    pub use awsad_net::{NetServer, NetServerConfig};
    pub use awsad_reach::{
        CacheConfig, CacheStats, Deadline, DeadlineCache, DeadlineEstimator,
        PolytopeDeadlineEstimator, ReachConfig,
    };
    pub use awsad_runtime::{
        BackpressurePolicy, DetectionEngine, EngineConfig, RuntimeMetrics, SessionHandle,
        SessionId, SessionSnapshot, Tick, TickOutcome, WorkerPool,
    };
    pub use awsad_serve::{Client, ServerConfig, SessionSpec, WireOutcome, WireTick};
    pub use awsad_sets::{Ball, BoxSet, Halfspace, Interval, Polytope, Support};
    pub use awsad_sim::{
        evaluate, run_benign_cell, run_cell, run_cells_on, run_cells_parallel, run_episode,
        sample_attack, AttackKind, CellJob, EpisodeConfig,
    };
}
