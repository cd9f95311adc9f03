//! What every workload is built from: the seeded inputs, the served
//! model and its 2-shard service, a durable store in a temporary
//! directory, and the offline output oracle.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ndarray::{s, Array1, Array2};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ember::core::{BitMatrix, GsConfig, SubstrateSpec};
use ember::datasets::digits;
use ember::rbm::{CdTrainer, Rbm, RngStreams};
use ember::serve::{batch, ModelRegistry, SampleRequest, SamplingService};
use ember::store::{DaemonConfig, SnapshotDaemon, SnapshotStore};
use ember::substrate::ReplicableSubstrate;

use crate::load::Fail;

pub const MODEL: &str = "digits";
pub const VISIBLE: usize = 784;
pub const HIDDEN: usize = 200;
pub const SHARDS: usize = 2;
/// Rows of one training request.
pub const TRAIN_ROWS: usize = 512;
/// Minibatch of one training request.
pub const TRAIN_BATCH: usize = 64;
/// MNIST-like images generated per seed: clamps cycle through them and
/// training requests take consecutive 512-row windows.
const IMAGES: usize = 1024;
/// Prior versions the served registry retains. Every seal writes the
/// whole retained chain durably (about 1.1 MB per version at 784×200),
/// and `train-publish` seals several times a second, so the default of 8
/// would make the run mostly a disk-write test.
pub const HISTORY: usize = 2;
/// CD-1 epochs over the images before the model is served.
const PRETRAIN_EPOCHS: usize = 10;

/// Everything a run generates from its seed.
pub struct Inputs {
    pub seed: u64,
    pub rbm: Rbm,
    /// Binarized MNIST-like images, used as single-row clamps.
    pub clamps: Vec<Array1<f64>>,
    /// The same images at full grey level, used as training data.
    pub images: Array2<f64>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let images = digits::generate(IMAGES, seed).images().clone();
        // A fitted model: the packed kernels skip zero states, so the
        // served cost depends on how sparse the model's samples are, and
        // it should not drift as the publish rounds keep training.
        let mut rbm = Rbm::random(VISIBLE, HIDDEN, 0.05, &mut rng);
        let trainer = CdTrainer::new(1, 0.05);
        for _ in 0..PRETRAIN_EPOCHS {
            trainer.train_epoch(&mut rbm, &images, TRAIN_BATCH, &mut rng);
        }
        let clamps = images
            .rows()
            .map(|row| row.mapv(|x| if x >= 0.5 { 1.0 } else { 0.0 }))
            .collect();
        Inputs {
            seed,
            rbm,
            clamps,
            images,
        }
    }

    pub fn clamp(&self, i: usize) -> &Array1<f64> {
        &self.clamps[i % self.clamps.len()]
    }

    /// The `j`-th 512-row training window.
    pub fn train_data(&self, j: usize) -> Array2<f64> {
        let start = (j * TRAIN_ROWS) % (IMAGES - TRAIN_ROWS + 1);
        self.images
            .slice(s![start..start + TRAIN_ROWS, ..])
            .to_owned()
    }

    /// A per-request master seed, distinct per phase.
    pub fn request_seed(&self, phase: u64, i: usize) -> u64 {
        RngStreams::new(self.seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15)).seed(i as u64)
    }

    /// The served substrate: the software Gibbs substrate with the
    /// noiseless default config, fabricated from the seed (so the
    /// oracle's copy has the same identity).
    pub fn prototype(&self) -> Box<dyn ReplicableSubstrate> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xFAB);
        SubstrateSpec::software(GsConfig::default()).fabricate_for(&self.rbm, &mut rng)
    }

    /// A 2-shard service with the model registered.
    pub fn service(&self) -> SamplingService {
        let service = SamplingService::builder()
            .shards(SHARDS)
            .registry(ModelRegistry::with_history_limit(HISTORY))
            .build();
        service
            .register_model(MODEL, self.rbm.clone(), self.prototype())
            .expect("register model");
        service
    }
}

/// A fresh directory under `.bench_tmp/` of the working directory,
/// removed (with `.bench_tmp/` once empty) on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new() -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempDir(PathBuf::from(TMP_ROOT).join(format!("{}-{n}", std::process::id())))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(TMP_ROOT);
    }
}

const TMP_ROOT: &str = ".bench_tmp";

/// A snapshot daemon sealing to a `DiskDir` in a [`TempDir`]. It writes
/// its baseline snapshot at start (set-up waits for it) and afterwards
/// only when asked (`snapshot_now`).
pub struct Store {
    pub daemon: Arc<SnapshotDaemon>,
    _dir: TempDir,
}

impl Store {
    pub fn new(registry: &ModelRegistry) -> Store {
        let dir = TempDir::new();
        let store = SnapshotStore::open(dir.path()).expect("open snapshot store");
        let config = DaemonConfig::default().with_on_publish(false);
        let daemon = SnapshotDaemon::start(store, registry.clone(), config);
        while daemon.stats().snapshots == 0 {
            assert_eq!(daemon.stats().failures, 0, "baseline snapshot failed");
            std::thread::sleep(Duration::from_micros(200));
        }
        Store {
            daemon: Arc::new(daemon),
            _dir: dir,
        }
    }
}

/// A served response kept for offline replay: the request, the exact
/// parameters of the version the response reports, and the bits.
pub struct Check {
    pub request: SampleRequest,
    pub model: Arc<Rbm>,
    pub got: BitMatrix,
}

impl Check {
    /// Captures a response right after it arrives, while the version it
    /// reports is still in the registry's history.
    pub fn capture(
        registry: &ModelRegistry,
        request: SampleRequest,
        version: u64,
        got: BitMatrix,
    ) -> Result<Check, Fail> {
        let model = registry.get_version(MODEL, version).ok_or(Fail::Error)?;
        Ok(Check {
            request,
            model,
            got,
        })
    }
}

/// Replays `checks` offline on two threads: `batch::sample_rows` on a
/// fresh copy of the served substrate programmed with each response's
/// version, with the request's per-row seeds. Returns the number of
/// responses whose bits differ.
pub fn replay(inputs: &Inputs, checks: &[Check]) -> u64 {
    if checks.is_empty() {
        return 0;
    }
    let half = checks.len().div_ceil(2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = checks
            .chunks(half)
            .map(|part| scope.spawn(|| replay_part(inputs.prototype(), part)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("oracle thread"))
            .sum()
    })
}

fn replay_part(mut oracle: Box<dyn ReplicableSubstrate>, checks: &[Check]) -> u64 {
    let mut loaded: Option<&Arc<Rbm>> = None;
    let mut mismatches = 0;
    for check in checks {
        if !loaded.is_some_and(|m| Arc::ptr_eq(m, &check.model)) {
            let m = &check.model;
            oracle.program(
                &m.weights().view(),
                &m.visible_bias().view(),
                &m.hidden_bias().view(),
            );
            loaded = Some(&check.model);
        }
        let seed = check.request.seed.expect("benchmark requests are seeded");
        let rows = batch::expand_request(&check.request, seed);
        let want = batch::sample_rows(&mut *oracle, &rows, check.request.gibbs_steps);
        if BitMatrix::from_batch(&want).as_ref() != Some(&check.got) {
            mismatches += 1;
        }
    }
    mismatches
}
