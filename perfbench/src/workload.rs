//! The three benchmark workloads, built through the same public entry
//! points the experiment binaries use (`build_experiment_with_samples`,
//! `FleetExperiment::synthetic`) and run through `Experiment::run` /
//! `FleetExperiment::run`.

use fedmigr_bench::{build_experiment_with_samples, standard_config, Partition, Scale};
use fedmigr_core::{
    CodecConfig, Experiment, FleetExperiment, FleetOptions, RunConfig, RunMetrics, Scheme,
};
use fedmigr_net::{FaultConfig, TransportConfig};
use fedmigr_nn::zoo::{self, NetScale};

/// Training samples per class of the dense C10 federation.
pub const DENSE_TRAIN_PER_CLASS: usize = 80;
/// Fleet population, LAN count, per-client holding and test split size.
pub const FLEET_CLIENTS: usize = 10_000;
pub const FLEET_LANS: usize = 10;
pub const FLEET_BASE_SAMPLES: usize = 80;
pub const FLEET_TEST_PER_CLASS: usize = 16;
/// Fraction of the fleet sampled into each aggregation block's cohort.
pub const FLEET_SAMPLE_FRAC: f64 = 0.01;
/// Cross-LAN shortlist width of the fleet planner.
pub const FLEET_TOP_M: usize = 8;
/// Network-stress level layered onto `dense_comm`'s flow transport.
pub const COMM_STRESS: f64 = 0.5;
/// Top-k fraction of `dense_comm`'s error-feedback codec.
pub const COMM_TOPK: f64 = 0.1;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// C10-CNN, 10 clients / 3 LANs, full local passes, lockstep transport,
    /// identity codec: compute-bound.
    DenseTrain,
    /// C100-CNN, 20 clients / 5 LANs, one batch per local epoch, stressed
    /// flow transport, top-k codec, watchdog on: communication-heavy.
    DenseComm,
    /// 10,000-client fleet, 1% cohort per block: the second runner.
    FleetCohort,
}

/// A built experiment, ready to run.
pub enum Built {
    Dense(Experiment),
    Fleet(FleetExperiment),
}

impl Built {
    /// Runs `cfg` once.
    pub fn run(&mut self, cfg: &RunConfig) -> RunMetrics {
        match self {
            Built::Dense(exp) => exp.run(cfg),
            Built::Fleet(exp) => exp.run(cfg),
        }
    }
}

impl Workload {
    /// Every workload, in the order of `BENCHMARK.json`.
    pub const ALL: [Workload; 3] =
        [Workload::DenseTrain, Workload::DenseComm, Workload::FleetCohort];

    /// Stable name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseTrain => "dense_train",
            Workload::DenseComm => "dense_comm",
            Workload::FleetCohort => "fleet_cohort",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Epochs of one measured run.
    pub fn epochs(self) -> usize {
        match self {
            Workload::DenseTrain | Workload::DenseComm => 30,
            Workload::FleetCohort => 10,
        }
    }

    /// Whether this workload runs the fleet runner.
    pub fn is_fleet(self) -> bool {
        self == Workload::FleetCohort
    }

    /// The paper workload (model, dataset, topology) behind a dense
    /// workload.
    pub fn paper_workload(self) -> fedmigr_bench::Workload {
        match self {
            Workload::DenseTrain | Workload::FleetCohort => fedmigr_bench::Workload::C10,
            Workload::DenseComm => fedmigr_bench::Workload::C100,
        }
    }

    /// Per-class training samples override for a dense workload (`None`
    /// keeps the smoke-scale default).
    pub fn per_class(self) -> Option<usize> {
        match self {
            Workload::DenseTrain => Some(DENSE_TRAIN_PER_CLASS),
            Workload::DenseComm | Workload::FleetCohort => None,
        }
    }

    /// Data generation, partition, topology and experiment construction.
    pub fn build(self, seed: u64) -> Built {
        match self {
            Workload::DenseTrain | Workload::DenseComm => {
                Built::Dense(build_experiment_with_samples(
                    self.paper_workload(),
                    Partition::Shards,
                    Scale::Smoke,
                    seed,
                    self.per_class(),
                ))
            }
            Workload::FleetCohort => Built::Fleet(FleetExperiment::synthetic(
                FLEET_CLIENTS,
                FLEET_LANS,
                FLEET_BASE_SAMPLES,
                FLEET_TEST_PER_CLASS,
                seed,
                zoo::c10_cnn(3, 8, NetScale::Small, seed),
            )),
        }
    }

    /// The run configuration for `epochs` epochs under `seed`. Shorter
    /// runs (the benchmark's own tests) clamp the aggregation and
    /// evaluation intervals so they still aggregate and evaluate.
    pub fn config(self, seed: u64, epochs: usize) -> RunConfig {
        let mut cfg = standard_config(Scheme::fedmigr(seed), Scale::Smoke, seed);
        cfg.epochs = epochs;
        match self {
            Workload::DenseTrain => {}
            Workload::DenseComm => {
                cfg.agg_interval = 5;
                cfg.max_batches_per_epoch = Some(1);
                cfg.transport = TransportConfig::flow(seed);
                let mut fault = FaultConfig::none();
                fault.seed = seed ^ 0x5eed_fa17;
                cfg.fault = fault.with_network_stress(COMM_STRESS);
                cfg.codec = CodecConfig::topk(COMM_TOPK);
                cfg.watchdog.enabled = true;
            }
            Workload::FleetCohort => {
                cfg.fleet =
                    Some(FleetOptions { sample_frac: FLEET_SAMPLE_FRAC, top_m: FLEET_TOP_M });
            }
        }
        cfg.agg_interval = cfg.agg_interval.min(epochs);
        cfg.eval_interval = cfg.eval_interval.min(epochs);
        cfg
    }
}
