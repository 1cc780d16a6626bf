//! The [`Clapped`] framework object and its builder.

use crate::{ClappedError, MulRepr, Result};
use clapped_accel::{characterize, AccelReport, AcceleratorSpec, CharacterizeConfig, OpLibrary};
use clapped_axops::{AxMul, Catalog, Mul8s};
use clapped_dse::{BatchOutcome, Configuration, DesignSpace, OBJECTIVE_SENTINEL};
use clapped_errmodel::{rank_terms, ErrorStats, PrModel};
use clapped_exec::{CacheStats, Engine, ExecConfig, ResultCache, StructDigest, CODE_VERSION_SALT};
use clapped_imgproc::{AppResult, ConvMode, GaussianDenoise, SobelEdge};
use clapped_mlp::{Regressor, TrainConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Cache-key role for cached `[error %, LUTs]` objective vectors.
const ROLE_OBJECTIVES: u64 = 0x4f42_4a45_4354;

/// Degree of the operator PR models (the paper uses 3).
const PR_DEGREE: usize = 3;

/// Entries held by the in-memory result cache.
const CACHE_CAPACITY: usize = 4096;

/// Hidden layers of both Fig. 12 estimators: the application-error MLP
/// and the LUT MLP.
const ESTIMATOR_HIDDEN: [usize; 2] = [32, 16];

/// Smallest workload image side a framework accepts. It equals the
/// largest DATA scale a configuration may request (`ConvConfig` accepts
/// scales `1..=4`), so every scaled workload keeps at least one pixel.
pub const MIN_IMAGE_SIZE: usize = 4;

/// An objective value, or [`OBJECTIVE_SENTINEL`] for a failed
/// evaluation. Every sentinel written is counted on
/// `core.objective_sentinel`, so failures are visible, not swallowed.
pub(crate) fn objective_or_sentinel(value: Result<f64>) -> f64 {
    value.unwrap_or_else(|_| {
        clapped_obs::count("core.objective_sentinel", 1);
        OBJECTIVE_SENTINEL
    })
}

/// [`ClappedError::BadConfiguration`] unless the configuration carries
/// `window²` tap indices, the count every mode's executions index into.
fn check_tap_count(config: &Configuration) -> Result<()> {
    let taps = config.mul_indices.len();
    if config.window.checked_mul(config.window) == Some(taps) {
        return Ok(());
    }
    Err(ClappedError::BadConfiguration {
        reason: format!("{taps} tap indices for window {} (want window²)", config.window),
    })
}

/// A labelled behavioural dataset: configurations, their encoded feature
/// rows, and the true application-level error labels.
pub type ErrorDataset = (Vec<Configuration>, Vec<Vec<f64>>, Vec<f64>);

/// Which behavioural application the framework instance drives — the
/// paper's Section II-B interface point for application-agnostic DSE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AppKind {
    /// Gaussian image smoothing for noise removal (the paper's test case).
    #[default]
    GaussianDenoise,
    /// Sobel edge detection (2D mode only).
    SobelEdge,
}

/// The instantiated application model.
#[derive(Debug)]
enum AppModel {
    Gaussian(GaussianDenoise),
    Sobel(SobelEdge),
}

impl AppModel {
    fn evaluate(
        &self,
        config: &clapped_imgproc::ConvConfig,
        muls: &[Arc<dyn Mul8s>],
    ) -> clapped_imgproc::Result<AppResult> {
        match self {
            AppModel::Gaussian(app) => app.evaluate(config, muls),
            // The Sobel gradients share one tap assignment across Gx/Gy.
            AppModel::Sobel(app) => app.evaluate(config, muls, muls),
        }
    }

    /// The window sizes the application has a kernel for.
    fn windows(&self) -> Vec<usize> {
        match self {
            AppModel::Gaussian(app) => app.windows(),
            AppModel::Sobel(app) => app.windows(),
        }
    }
}

/// Builder for [`Clapped`].
///
/// # Examples
///
/// ```
/// use clapped_core::Clapped;
///
/// let fw = Clapped::builder()
///     .image_size(32)
///     .noise_sigma(12.0)
///     .seed(7)
///     .build()
///     .unwrap();
/// assert_eq!(fw.catalog().len(), fw.space().catalog_size);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClappedBuilder {
    config: ClappedConfig,
}

impl ClappedBuilder {
    /// Side length of the synthetic workload images.
    pub fn image_size(mut self, n: usize) -> Self {
        self.config.image_size = n;
        self
    }

    /// Standard deviation of the injected Gaussian noise.
    pub fn noise_sigma(mut self, sigma: f64) -> Self {
        self.config.noise_sigma = sigma;
        self
    }

    /// Master RNG seed (workload generation, dataset sampling).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replaces the standard operator catalog. Operator 0 must be the
    /// exact multiplier.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.config.catalog = Some(catalog);
        self
    }

    /// Selects the behavioural application (default: Gaussian smoothing).
    pub fn application(mut self, kind: AppKind) -> Self {
        self.config.app_kind = kind;
        self
    }

    /// Configures the parallel evaluation engine (default: one worker
    /// per available core). Thread count never changes results — only
    /// wall-clock time.
    pub fn exec(mut self, config: ExecConfig) -> Self {
        self.config.exec = config;
        self
    }

    /// Enables the on-disk result-cache tier under `dir` (typically
    /// `results/cache/`), so warm reruns of the same framework instance
    /// skip recomputation across processes.
    pub fn disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.cache_dir = Some(dir.into());
        self
    }

    /// The accumulated recipe, without instantiating it — useful for
    /// digesting or persisting a framework description.
    pub fn into_config(self) -> ClappedConfig {
        self.config
    }

    /// Builds the framework: instantiates the catalog, the workload, and
    /// the per-operator PR models and error statistics. (The hardware
    /// operator library is characterized lazily on first use.)
    ///
    /// # Errors
    ///
    /// See [`ClappedConfig::instantiate`].
    pub fn build(self) -> Result<Clapped> {
        self.config.instantiate()
    }
}

/// The immutable recipe for a framework instance — every knob
/// [`ClappedBuilder`] accepts, as plain data.
///
/// Splitting the recipe from the instantiated [`Clapped`] lets a server
/// process key a pool of shared framework instances by
/// [`ClappedConfig::digest`]: jobs carrying the same recipe share one
/// `Arc<Clapped>` (and therefore one in-memory cache, one engine and one
/// lazily characterized operator library), while [`crate::Session`]
/// holds the cheap per-job exploration state.
#[derive(Debug, Clone)]
pub struct ClappedConfig {
    /// Side length of the synthetic workload images.
    pub image_size: usize,
    /// Standard deviation of the injected Gaussian noise.
    pub noise_sigma: f64,
    /// Master RNG seed (workload generation, dataset sampling).
    pub seed: u64,
    /// Replacement operator catalog (`None` = the standard catalog).
    pub catalog: Option<Catalog>,
    /// Accelerator characterization parameters.
    pub char_config: CharacterizeConfig,
    /// The behavioural application.
    pub app_kind: AppKind,
    /// Parallel evaluation engine knobs (never affects results).
    pub exec: ExecConfig,
    /// On-disk result-cache tier directory (`None` disables the tier).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ClappedConfig {
    fn default() -> Self {
        ClappedConfig {
            image_size: 32,
            noise_sigma: 12.0,
            seed: 1,
            catalog: None,
            char_config: CharacterizeConfig::default(),
            app_kind: AppKind::GaussianDenoise,
            exec: ExecConfig::default(),
            cache_dir: None,
        }
    }
}

impl ClappedConfig {
    /// Stable content digest of the recipe — two configs with equal
    /// digests produce frameworks whose cached evaluation results are
    /// interchangeable. Execution knobs (`exec` and the cache
    /// directory) are deliberately excluded: they change wall-clock
    /// behaviour, never results.
    pub fn digest(&self) -> u64 {
        let catalog_names: Vec<String> = match &self.catalog {
            Some(catalog) => catalog
                .iter()
                .map(|m| Mul8s::name(m.as_ref()).to_string())
                .collect(),
            None => Catalog::standard()
                .iter()
                .map(|m| Mul8s::name(m.as_ref()).to_string())
                .collect(),
        };
        self.instance_salt(&catalog_names)
    }

    /// The cache-partition salt: everything that changes what a
    /// configuration *means* for this instance, so results cached by
    /// one recipe can never answer for a differently-built one.
    fn instance_salt(&self, catalog_names: &[String]) -> u64 {
        StructDigest::new("ClappedInstance")
            .field("image_size", &(self.image_size as u64))
            .field("noise_sigma", &self.noise_sigma)
            // A constant, still digested so persisted keys stay put.
            .field("pr_degree", &(PR_DEGREE as u64))
            .field("seed", &self.seed)
            .field("app_kind", &(self.app_kind as u64))
            .field("catalog", &catalog_names.to_vec())
            .field("characterization", &format!("{:?}", self.char_config))
            .finish()
    }

    /// Instantiates the framework: the catalog, the workload, and the
    /// per-operator PR models and error statistics. (The hardware
    /// operator library is characterized lazily on first use.)
    ///
    /// # Errors
    ///
    /// Returns [`ClappedError::BadConfiguration`] if `image_size` is
    /// below [`MIN_IMAGE_SIZE`], and [`ClappedError::Unavailable`] if the
    /// catalog is empty or its first operator is not exact.
    pub fn instantiate(&self) -> Result<Clapped> {
        let _span = clapped_obs::span("core.instantiate");
        if self.image_size < MIN_IMAGE_SIZE {
            return Err(ClappedError::BadConfiguration {
                reason: format!(
                    "image_size {} below {MIN_IMAGE_SIZE}, the largest DATA scale",
                    self.image_size
                ),
            });
        }
        let catalog = self.catalog.clone().unwrap_or_else(Catalog::standard);
        let Some(first) = catalog.at(0) else {
            return Err(ClappedError::Unavailable {
                reason: "operator catalog is empty".to_string(),
            });
        };
        if (0..32).any(|i| {
            let a = (i * 7 - 13) as i8;
            let b = (i * 3 + 5) as i8;
            first.mul(a, b) != i16::from(a) * i16::from(b)
        }) {
            return Err(ClappedError::Unavailable {
                reason: "catalog operator 0 must be the exact multiplier".to_string(),
            });
        }
        let exact: Arc<dyn Mul8s> = first.clone();
        let app = {
            let _span = clapped_obs::span("core.app_build");
            match self.app_kind {
                AppKind::GaussianDenoise => AppModel::Gaussian(GaussianDenoise::standard(
                    self.image_size,
                    self.noise_sigma,
                    exact,
                    self.seed,
                )),
                AppKind::SobelEdge => {
                    AppModel::Sobel(SobelEdge::standard(self.image_size, exact, self.seed))
                }
            }
        };
        let pr_models = {
            let _span = clapped_obs::span("core.pr_fit");
            PrModel::fit_many(catalog.muls(), PR_DEGREE)
        };
        let refs: Vec<&PrModel> = pr_models.iter().collect();
        let ranking = rank_terms(&refs);
        let stats: Vec<ErrorStats> = {
            let _span = clapped_obs::span("core.error_stats");
            catalog
                .iter()
                .map(|m| ErrorStats::of_multiplier(m.as_ref()))
                .collect()
        };
        // Paper-style index representation: a unique pseudo-random value
        // per operator.
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xA5A5_5A5A);
        let index_values: Vec<f64> = (0..catalog.len()).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut space = DesignSpace::paper_default(catalog.len());
        if self.app_kind == AppKind::SobelEdge {
            // Gradient magnitudes are not separable: restrict the mode DoF.
            space.modes = vec![ConvMode::TwoD];
        }
        // The code-version salt invalidates persisted entries whenever
        // evaluation semantics change; the instance salt partitions
        // per-recipe (see `ClappedConfig::instance_salt`).
        let catalog_names: Vec<String> = catalog
            .iter()
            .map(|m| Mul8s::name(m.as_ref()).to_string())
            .collect();
        let instance_salt = self.instance_salt(&catalog_names);
        let eval_cache = match &self.cache_dir {
            Some(dir) => ResultCache::with_disk(CACHE_CAPACITY, dir),
            None => ResultCache::in_memory(CACHE_CAPACITY),
        }
        .salted(CODE_VERSION_SALT)
        .salted(instance_salt);
        Ok(Clapped {
            engine: Engine::new(self.exec),
            eval_cache,
            catalog,
            app,
            space,
            pr_models,
            ranking,
            stats,
            index_values,
            op_library: OnceLock::new(),
            config: self.clone(),
        })
    }
}

/// The CLAppED framework instance: catalog, application workload,
/// operator models and estimation services.
#[derive(Debug)]
pub struct Clapped {
    engine: Engine,
    eval_cache: ResultCache<Vec<f64>>,
    catalog: Catalog,
    app: AppModel,
    space: DesignSpace,
    pr_models: Vec<PrModel>,
    ranking: Vec<usize>,
    stats: Vec<ErrorStats>,
    index_values: Vec<f64>,
    op_library: OnceLock<std::result::Result<OpLibrary, String>>,
    config: ClappedConfig,
}

impl Clapped {
    /// Starts building a framework instance.
    pub fn builder() -> ClappedBuilder {
        ClappedBuilder::default()
    }

    /// The operator catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The cross-layer design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// The Gaussian-smoothing workload.
    ///
    /// # Errors
    ///
    /// Returns [`ClappedError::Unavailable`] if the framework was built
    /// with a different application.
    pub fn app(&self) -> Result<&GaussianDenoise> {
        match &self.app {
            AppModel::Gaussian(app) => Ok(app),
            AppModel::Sobel(_) => Err(ClappedError::Unavailable {
                reason: "framework was built with AppKind::SobelEdge".to_string(),
            }),
        }
    }

    /// Builds a runtime SLA supervisor over this framework's operator
    /// catalog: the degradation ladder is calibrated from the catalog
    /// against `sla` (reusing the framework's image size, seed and
    /// characterization parameters), and the returned
    /// [`clapped_runtime::StreamSupervisor`] keeps the SLA on a live
    /// frame stream — adapting rungs, detecting faults, checkpointing.
    ///
    /// # Errors
    ///
    /// Returns [`ClappedError::Unavailable`] for non-Gaussian
    /// applications (the supervisor serves the paper's denoise
    /// pipeline), and propagates ladder/supervisor construction
    /// failures as [`ClappedError::Runtime`].
    pub fn sla_supervisor(
        &self,
        sla: clapped_runtime::SlaSpec,
        options: clapped_runtime::StreamOptions,
    ) -> Result<clapped_runtime::StreamSupervisor> {
        if self.config.app_kind != AppKind::GaussianDenoise {
            return Err(ClappedError::Unavailable {
                reason: "the SLA supervisor serves AppKind::GaussianDenoise streams".to_string(),
            });
        }
        let config = clapped_runtime::LadderConfig {
            image_size: self.config.image_size,
            seed: options.seed,
            characterization: self.config.char_config.clone(),
            ..clapped_runtime::LadderConfig::default()
        };
        let ladder = clapped_runtime::DegradationLadder::build(self.catalog.muls(), &sla, &config)?;
        Ok(clapped_runtime::StreamSupervisor::new(ladder, sla, options)?)
    }

    /// Accelerator characterization parameters.
    pub fn characterization(&self) -> &CharacterizeConfig {
        &self.config.char_config
    }

    /// Master seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// The parallel evaluation engine. Batched entry points (dataset
    /// generation, [`crate::explore`], the fault campaign) fan their
    /// independent jobs over it; results are always
    /// returned in input order, so the thread count never changes any
    /// outcome.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Hit/miss counters of the content-addressed result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.eval_cache.stats()
    }

    /// Stable content digest of a configuration — the key under which
    /// this instance caches evaluation results and which
    /// [`clapped_dse::MboState`] checkpoints record per evaluation.
    /// Depends only on the configuration's fields, never on memory
    /// layout or field-visit order.
    pub(crate) fn config_digest(&self, config: &Configuration) -> u64 {
        StructDigest::new("Configuration")
            .field("window", &(config.window as u64))
            .field("stride", &(config.stride as u64))
            .field("downsample", &config.downsample)
            .field("mode", &(config.mode as u64))
            .field("scale", &(config.scale as u64))
            .field(
                "mul_indices",
                &config.mul_indices.iter().map(|&i| i as u64).collect::<Vec<u64>>(),
            )
            .finish()
    }

    /// The hardware operator library (per-operator synthesis reports),
    /// characterized on first use.
    ///
    /// # Errors
    ///
    /// Returns [`ClappedError::Accel`] if an operator fails synthesis.
    pub fn op_library(&self) -> Result<&OpLibrary> {
        let entry = self.op_library.get_or_init(|| {
            let _span = clapped_obs::span("core.op_library");
            OpLibrary::characterize(&self.catalog, &self.config.char_config.synth)
                .map_err(|e| e.to_string())
        });
        entry.as_ref().map_err(|msg| {
            ClappedError::Accel(clapped_accel::AccelError::Synth(msg.clone()))
        })
    }

    /// Resolves a configuration's tap multipliers from the catalog.
    ///
    /// # Errors
    ///
    /// Returns [`ClappedError::BadConfiguration`] if the configuration
    /// does not carry `window²` tap indices or any tap index is outside
    /// the catalog.
    pub(crate) fn try_taps_for(&self, config: &Configuration) -> Result<Vec<Arc<dyn Mul8s>>> {
        check_tap_count(config)?;
        config
            .active_mul_indices()
            .iter()
            .map(|&i| self.operator(i).map(|m| m as Arc<dyn Mul8s>))
            .collect()
    }

    /// The catalog operator at tap index `i`, or
    /// [`ClappedError::BadConfiguration`] outside the catalog.
    fn operator(&self, i: usize) -> Result<Arc<AxMul>> {
        match self.catalog.at(i) {
            Some(m) => Ok(m),
            None => Err(ClappedError::BadConfiguration {
                reason: format!(
                    "tap index {i} outside catalog of {} operators",
                    self.catalog.len()
                ),
            }),
        }
    }

    /// **True behavioral estimation**: executes the application model
    /// under this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ClappedError::BadConfiguration`] for a tap count other
    /// than `window²` or out-of-catalog tap indices, and propagates
    /// configuration errors from the convolution engine.
    pub fn evaluate_error(&self, config: &Configuration) -> Result<AppResult> {
        let taps = self.try_taps_for(config)?;
        self.evaluate_error_with(config, &taps)
    }

    /// [`Clapped::evaluate_error`] with explicitly supplied tap
    /// operators — the hook for substituting non-catalog instances such
    /// as [`clapped_axops::FaultedMul`] into the application model
    /// (fault-injection campaigns, what-if analyses).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the convolution engine.
    pub(crate) fn evaluate_error_with(
        &self,
        config: &Configuration,
        taps: &[Arc<dyn Mul8s>],
    ) -> Result<AppResult> {
        Ok(self.app.evaluate(&config.conv_config(), taps)?)
    }

    /// **Batched** true behavioral estimation: evaluates every
    /// configuration on the engine's thread pool and returns the results
    /// in input order (or the lowest-indexed failure, so errors are as
    /// deterministic as successes).
    ///
    /// # Errors
    ///
    /// The first (by input index) configuration's evaluation error.
    pub(crate) fn evaluate_error_many(&self, configs: &[Configuration]) -> Result<Vec<AppResult>> {
        self.engine.try_evaluate_many(configs, |_, c| self.evaluate_error(c))
    }

    /// The cached true DSE objective vector `[application error %,
    /// LUT count]` of a configuration. Evaluation failures yield
    /// [`OBJECTIVE_SENTINEL`], which MBO records but leaves out of its
    /// surrogates (matching the ML-mode objective closures), counted on
    /// `core.objective_sentinel` and never cached.
    pub(crate) fn true_objectives_cached(&self, config: &Configuration) -> Vec<f64> {
        let key = self.config_digest(config) ^ ROLE_OBJECTIVES;
        if let Some(v) = self.eval_cache.get(key) {
            return v;
        }
        let err = objective_or_sentinel(self.evaluate_error(config).map(|r| r.error_percent));
        let luts = objective_or_sentinel(self.characterize_hw(config).map(|r| r.luts as f64));
        let objectives = vec![err.max(0.0), luts.max(0.0)];
        if err < f64::MAX / 8.0 && luts < f64::MAX / 8.0 {
            self.eval_cache.insert(key, objectives.clone());
        }
        objectives
    }

    /// Batched, cached true objective outcomes in the shape
    /// [`clapped_dse::MboState::step`] consumes: the
    /// configurations fan out over the evaluation engine and each
    /// returns its [`Clapped::true_objectives_cached`] vector paired
    /// with its [`Clapped::config_digest`]. Outcomes come back in input
    /// order, so results are bit-identical at any thread count.
    pub(crate) fn true_outcomes_cached(&self, configs: &[Configuration]) -> Vec<BatchOutcome> {
        self.engine.evaluate_many(configs, |_, c| BatchOutcome {
            objectives: self.true_objectives_cached(c),
            digest: self.config_digest(c),
        })
    }

    /// The accelerator design point implied by a configuration: the
    /// effective streamed image shrinks with DATA scaling.
    ///
    /// # Panics
    ///
    /// Panics if the configuration indexes outside the catalog (it came
    /// from a different design space), does not carry `window²` tap
    /// indices, its scale is outside `1..=4` or the application has no
    /// kernel for its window;
    /// [`Clapped::characterize_hw`] reports those cases as errors
    /// instead.
    pub fn accel_spec(&self, config: &Configuration) -> AcceleratorSpec {
        match self.try_accel_spec(config) {
            Ok(spec) => spec,
            Err(e) => panic!("{e}"),
        }
    }

    fn try_accel_spec(&self, config: &Configuration) -> Result<AcceleratorSpec> {
        check_tap_count(config)?;
        // The DATA scales `ConvConfig` accepts; `MIN_IMAGE_SIZE` is the largest.
        if !(1..=MIN_IMAGE_SIZE).contains(&config.scale) {
            return Err(ClappedError::BadConfiguration {
                reason: format!("scale {} out of 1..={MIN_IMAGE_SIZE}", config.scale),
            });
        }
        // A datapath the application cannot evaluate is not a design point.
        let windows = self.app.windows();
        if !windows.contains(&config.window) {
            return Err(ClappedError::BadConfiguration {
                reason: format!(
                    "window {} has no application kernel (windows {windows:?})",
                    config.window
                ),
            });
        }
        let muls = config.active_mul_indices().iter().map(|&i| self.operator(i));
        Ok(AcceleratorSpec {
            image_size: (self.config.image_size / config.scale).max(config.window),
            window: config.window,
            stride: config.stride,
            downsample: config.downsample,
            mode: config.mode,
            muls: muls.collect::<Result<_>>()?,
        })
    }

    /// **True hardware estimation**: synthesizes the configuration's
    /// accelerator datapath.
    ///
    /// # Errors
    ///
    /// Returns [`ClappedError::BadConfiguration`] for out-of-catalog tap
    /// indices, a tap count other than `window²`, a scale outside `1..=4`
    /// or a window the application has no kernel for, and propagates
    /// synthesis failures.
    pub fn characterize_hw(&self, config: &Configuration) -> Result<AccelReport> {
        Ok(characterize(&self.try_accel_spec(config)?, &self.config.char_config)?)
    }

    /// Encodes a configuration into a behavioral-model feature vector:
    /// the scalar DoFs followed by one representation block per tap
    /// (always `window²` taps, so feature dimensions are mode-stable).
    pub fn encode(&self, config: &Configuration, repr: MulRepr) -> Vec<f64> {
        let mut v = config.dof_features();
        for &idx in &config.mul_indices {
            match repr {
                MulRepr::Index => v.push(self.index_values[idx]),
                MulRepr::M1 => v.extend(self.stats[idx].m1()),
                MulRepr::M4 => v.extend(self.stats[idx].m4()),
                MulRepr::Coeffs(k) => {
                    v.extend(self.pr_models[idx].feature_vector(&self.ranking, k))
                }
            }
        }
        v
    }

    /// Encodes a configuration into a hardware-model feature vector:
    /// the scalar DoFs followed by each tap operator's LUT count and
    /// total power (the Table-I style expanded representation).
    ///
    /// # Errors
    ///
    /// Returns [`ClappedError::BadConfiguration`] for out-of-catalog tap
    /// indices and propagates operator-library characterization
    /// failures.
    pub fn encode_hw(&self, config: &Configuration) -> Result<Vec<f64>> {
        let ops: Vec<Arc<AxMul>> =
            config.mul_indices.iter().map(|&i| self.operator(i)).collect::<Result<_>>()?;
        let lib = self.op_library()?;
        let mut v = config.dof_features();
        for op in &ops {
            let name = Mul8s::name(op.as_ref());
            let p = lib.props(name).ok_or_else(|| {
                ClappedError::Accel(clapped_accel::AccelError::Synth(format!(
                    "operator {name} missing from the library"
                )))
            })?;
            v.push(p.luts);
            v.push(p.total_power_mw);
        }
        Ok(v)
    }

    /// Generates a labelled behavioral dataset: `count` random
    /// configurations with their true application-level error (%).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn make_error_dataset(
        &self,
        count: usize,
        repr: MulRepr,
        seed: u64,
    ) -> Result<ErrorDataset> {
        // Sample every configuration first (one serial RNG stream, so
        // the dataset is independent of the thread count), then fan the
        // expensive application runs over the engine.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let configs: Vec<Configuration> = (0..count).map(|_| self.space.sample(&mut rng)).collect();
        let results = self.evaluate_error_many(&configs)?;
        let xs: Vec<Vec<f64>> = configs.iter().map(|c| self.encode(c, repr)).collect();
        let ys: Vec<f64> = results.iter().map(|r| r.error_percent).collect();
        Ok((configs, xs, ys))
    }

    /// Trains the behavioral quality-prediction MLP on a dataset
    /// produced by [`Clapped::make_error_dataset`].
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn train_error_model(
        &self,
        xs: &[Vec<f64>],
        ys: &[f64],
        config: &TrainConfig,
    ) -> Result<Regressor> {
        Ok(Regressor::fit(xs, ys, &ESTIMATOR_HIDDEN, config)?)
    }

    /// Trains the LUT-prediction MLP on `configs`: each label is the
    /// LUT count of the configuration's synthesized datapath
    /// ([`Clapped::characterize_hw`], serially and in input order), each
    /// feature row its [`Clapped::encode_hw`] vector.
    ///
    /// # Errors
    ///
    /// Propagates synthesis, encoding and training failures.
    pub fn train_lut_model(
        &self,
        configs: &[Configuration],
        config: &TrainConfig,
    ) -> Result<Regressor> {
        let mut xs = Vec::with_capacity(configs.len());
        let mut ys = Vec::with_capacity(configs.len());
        for c in configs {
            ys.push(self.characterize_hw(c)?.luts as f64);
            xs.push(self.encode_hw(c)?);
        }
        Ok(Regressor::fit(&xs, &ys, &ESTIMATOR_HIDDEN, config)?)
    }

    /// The MBO surrogate's feature row of a configuration: its
    /// behavioural encoding ([`Clapped::encode`]) followed, when the
    /// operator library characterizes, by its hardware (Table-I)
    /// features ([`Clapped::encode_hw`]), in which the LUT objective is
    /// nearly linear.
    pub fn surrogate_features(&self, config: &Configuration, repr: MulRepr) -> Vec<f64> {
        let mut v = self.encode(config, repr);
        if let Ok(hw) = self.encode_hw(config) {
            v.extend(hw);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_dse::Configuration;

    /// `ClappedConfig::default().digest()`.
    const PINNED_DEFAULT_DIGEST: u64 = 15154327120191183568;

    fn small() -> Clapped {
        Clapped::builder().image_size(16).build().unwrap()
    }

    #[test]
    fn builder_validates_catalog() {
        // A catalog whose operator 0 is approximate must be rejected.
        let bad = Catalog::from_specs(vec![(
            "approx_first".to_string(),
            clapped_axops::MulArch::Truncated { k: 5 },
        )])
        .expect("unique names");
        let err = Clapped::builder().catalog(bad).build();
        assert!(matches!(err, Err(ClappedError::Unavailable { .. })));
    }

    #[test]
    fn golden_config_evaluates_to_zero_error() {
        let fw = small();
        let r = fw.evaluate_error(&Configuration::golden(3)).unwrap();
        assert_eq!(r.error_percent, 0.0);
    }

    #[test]
    fn encode_widths_are_consistent() {
        let fw = small();
        let c = Configuration::golden(3);
        assert_eq!(fw.encode(&c, MulRepr::Index).len(), 4 + 9);
        assert_eq!(fw.encode(&c, MulRepr::M1).len(), 4 + 9);
        assert_eq!(fw.encode(&c, MulRepr::M4).len(), 4 + 36);
        assert_eq!(fw.encode(&c, MulRepr::Coeffs(4)).len(), 4 + 36);
    }

    #[test]
    fn foreign_configurations_are_errors_and_counted_sentinels() {
        let fw = small();
        let golden = Configuration::golden(3);
        let foreign_taps =
            Configuration { mul_indices: vec![fw.catalog().len(); 9], ..golden.clone() };
        let bad = |r: Result<_>| matches!(r, Err(ClappedError::BadConfiguration { .. }));
        assert!(bad(fw.encode_hw(&foreign_taps).map(drop)));
        // DATA scales outside the `1..=4` that `ConvConfig` accepts.
        let foreign_scales = [0, 5].map(|scale| Configuration { scale, ..golden.clone() });
        // Windows the Gaussian application has no kernel for.
        let foreign_windows = [1, 9].map(Configuration::golden);
        // Tap counts other than window²: 2 taps of a separable 3×3 (it
        // consumes 6), and 4 taps of a 2D 3×3.
        let foreign_counts =
            [(ConvMode::Separable, 2), (ConvMode::TwoD, 4)].map(|(mode, taps)| Configuration {
                mode,
                mul_indices: vec![0; taps],
                ..golden.clone()
            });

        clapped_obs::enable();
        let foreign = std::iter::once(&foreign_taps)
            .chain(&foreign_scales)
            .chain(&foreign_windows)
            .chain(&foreign_counts);
        for foreign in foreign {
            assert!(bad(fw.characterize_hw(foreign).map(drop)), "{foreign:?}");
            let before = clapped_obs::metrics::counter_value("core.objective_sentinel");
            for _ in 0..2 {
                // Both objectives fail, and a failure is never cached.
                assert_eq!(fw.true_objectives_cached(foreign), vec![f64::MAX / 4.0; 2]);
            }
            // `>=`: other tests in this binary may write sentinels too.
            assert!(clapped_obs::metrics::counter_value("core.objective_sentinel") >= before + 4);
        }
    }

    #[test]
    fn a_build_and_its_op_library_are_traced() {
        clapped_obs::enable();
        let spans = [
            "core.instantiate",
            "core.app_build",
            "core.pr_fit",
            "core.error_stats",
            "core.op_library",
            "accel.characterize",
            "netlist.optimize",
            "netlist.map",
            "netlist.power",
        ];
        let count = |name| clapped_obs::metrics::histogram(name).snapshot().count;
        let reused = || clapped_obs::metrics::counter_value("netlist.map.instances_reused");
        let copied = || clapped_obs::metrics::counter_value("netlist.map.truths_copied");
        let before = spans.map(count);
        let fw = small();
        fw.op_library().unwrap();
        let (reused_before, copied_before) = (reused(), copied());
        fw.characterize_hw(&Configuration::golden(3)).unwrap();
        for (name, before) in spans.into_iter().zip(before) {
            // `>`, not `== before + 1`: other tests in this binary may
            // build frameworks too.
            assert!(count(name) > before, "{name}");
        }
        // The golden 3x3 datapath maps all nine multiplier instances
        // from the exact operator's template, and takes their LUTs'
        // truth tables from it (`>=`: other tests may map datapaths
        // meanwhile).
        assert!(reused() >= reused_before + 9);
        assert!(copied() > copied_before);
    }

    #[test]
    fn images_smaller_than_the_largest_scale_are_errors() {
        for size in [0, 1, MIN_IMAGE_SIZE - 1] {
            let built = Clapped::builder().image_size(size).build();
            assert!(
                matches!(built, Err(ClappedError::BadConfiguration { .. })),
                "image_size {size}"
            );
        }
        // At the bound, the largest scale still leaves a pixel to filter.
        let fw = Clapped::builder().image_size(MIN_IMAGE_SIZE).build().unwrap();
        let scaled = Configuration { scale: MIN_IMAGE_SIZE, ..Configuration::golden(3) };
        assert!(fw.evaluate_error(&scaled).unwrap().error_percent.is_finite());
        assert!(fw.true_objectives_cached(&scaled).iter().all(|&v| v < f64::MAX / 8.0));
    }

    #[test]
    fn out_of_range_lut_size_is_an_error_and_a_counted_sentinel() {
        let mut char_config = CharacterizeConfig::default();
        char_config.synth.k = 7;
        let fw = ClappedConfig { image_size: 16, char_config, ..ClappedConfig::default() }
            .instantiate()
            .unwrap();
        let golden = Configuration::golden(3);
        let err = fw.characterize_hw(&golden).unwrap_err();
        assert!(err.to_string().contains("LUT size 7"), "{err}");

        clapped_obs::enable();
        let before = clapped_obs::metrics::counter_value("core.objective_sentinel");
        // The behavioural objective still evaluates; the hardware one is
        // the sentinel.
        assert_eq!(
            fw.true_objectives_cached(&golden),
            vec![0.0, f64::MAX / 4.0]
        );
        // `>`, not `== before + 1`: other tests in this binary may write
        // sentinels too.
        assert!(clapped_obs::metrics::counter_value("core.objective_sentinel") > before);
    }

    #[test]
    fn accel_spec_respects_scaling() {
        let fw = small();
        let mut c = Configuration::golden(3);
        c.scale = 2;
        let spec = fw.accel_spec(&c);
        assert_eq!(spec.image_size, 8);
        assert_eq!(spec.muls.len(), 9);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn sobel_application_plugs_in() {
        let fw = Clapped::builder()
            .image_size(16)
            .application(crate::AppKind::SobelEdge)
            .build()
            .unwrap();
        assert_eq!(fw.config.app_kind, crate::AppKind::SobelEdge);
        // The mode DoF is restricted to 2D for gradient applications.
        assert_eq!(fw.space().modes, vec![clapped_imgproc::ConvMode::TwoD]);
        let golden = Configuration::golden(3);
        assert_eq!(fw.evaluate_error(&golden).unwrap().error_percent, 0.0);
        // Sobel has a 3x3 kernel only: a 5x5 datapath is no design point.
        assert!(matches!(
            fw.characterize_hw(&Configuration::golden(5)),
            Err(ClappedError::BadConfiguration { .. })
        ));
        // Random configurations evaluate without error over the space.
        let (_, xs, ys) = fw.make_error_dataset(6, MulRepr::Coeffs(3), 2).unwrap();
        assert_eq!(xs.len(), 6);
        assert!(ys.iter().any(|&e| e > 0.0));
    }

    #[test]
    fn wrong_app_accessor_is_an_error() {
        let fw = Clapped::builder()
            .image_size(16)
            .application(crate::AppKind::SobelEdge)
            .build()
            .unwrap();
        assert!(fw.app().is_err());
    }

    #[test]
    fn recipe_digests_key_framework_pools() {
        let a = Clapped::builder().image_size(16).into_config();
        let b = Clapped::builder().image_size(16).into_config();
        assert_eq!(a.digest(), b.digest(), "equal recipes share a pool slot");
        let c = Clapped::builder().image_size(16).seed(9).into_config();
        assert_ne!(a.digest(), c.digest(), "seed partitions results");
        // Execution knobs never partition: they cannot change results.
        let mut d = a.clone();
        d.exec = ExecConfig::with_jobs(8);
        d.cache_dir = Some(PathBuf::from("elsewhere"));
        assert_eq!(a.digest(), d.digest());
        // The instantiated framework carries its recipe, digest intact.
        let fw = a.instantiate().unwrap();
        assert_eq!(fw.config.digest(), b.digest());
        assert_eq!(fw.config.image_size, 16);
    }

    #[test]
    fn default_recipe_digest_is_pinned() {
        // The recipe digest keys every persisted cache entry and serve
        // pool slot: it must not move while the recipe means the same.
        assert_eq!(ClappedConfig::default().digest(), PINNED_DEFAULT_DIGEST);
    }

    #[test]
    fn config_digests_are_stable_and_content_addressed() {
        let fw = small();
        let a = Configuration::golden(3);
        let mut b = Configuration::golden(3);
        assert_eq!(fw.config_digest(&a), fw.config_digest(&b));
        b.stride = 2;
        assert_ne!(fw.config_digest(&a), fw.config_digest(&b));
        let mut c = Configuration::golden(3);
        c.mul_indices[4] += 1;
        assert_ne!(fw.config_digest(&a), fw.config_digest(&c));
    }

    #[test]
    fn cached_evaluation_skips_recompute() {
        let fw = small();
        let c = Configuration::golden(3);
        let before = fw.cache_stats();
        let o1 = fw.true_objectives_cached(&c);
        let o2 = fw.true_objectives_cached(&c);
        assert_eq!(o1, o2);
        let after = fw.cache_stats();
        assert_eq!(after.misses - before.misses, 1, "one cold miss");
        assert_eq!(after.hits - before.hits, 1, "one warm hit");
        // The cached error objective is the uncached evaluation's.
        let e = fw.evaluate_error(&c).unwrap().error_percent;
        assert_eq!(o1[0].to_bits(), e.to_bits());
    }

    #[test]
    fn plan_cache_warms_across_evaluations() {
        let fw = small();
        let c = Configuration::golden(3);
        fw.evaluate_error(&c).unwrap();
        let warm = clapped_imgproc::plan_cache_stats();
        fw.evaluate_error(&c).unwrap();
        let after = clapped_imgproc::plan_cache_stats();
        // Re-evaluating an already-seen configuration lowers no new tap
        // LUTs; it only hits the process-wide plan cache. (Concurrent
        // tests may add their own misses, so only hit growth is
        // asserted.)
        assert!(after.hits > warm.hits, "plan LUTs are shared");
    }

    #[test]
    fn parallel_dataset_matches_serial_bit_for_bit() {
        let serial = Clapped::builder()
            .image_size(16)
            .exec(clapped_exec::ExecConfig::serial())
            .build()
            .unwrap();
        let wide = Clapped::builder()
            .image_size(16)
            .exec(clapped_exec::ExecConfig::with_jobs(8))
            .build()
            .unwrap();
        let (c1, x1, y1) = serial.make_error_dataset(10, MulRepr::Coeffs(3), 5).unwrap();
        let (c2, x2, y2) = wide.make_error_dataset(10, MulRepr::Coeffs(3), 5).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(x1, x2);
        for (a, b) in y1.iter().zip(&y2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(wide.engine().jobs() > 1);
        assert_eq!(wide.engine().jobs_executed(), 10);
    }

    #[test]
    fn dataset_generation_is_deterministic() {
        let fw = small();
        let (c1, x1, y1) = fw.make_error_dataset(8, MulRepr::Coeffs(3), 5).unwrap();
        let (c2, x2, y2) = fw.make_error_dataset(8, MulRepr::Coeffs(3), 5).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(x1, x2);
        assert_eq!(y1, y2);
        assert_eq!(x1.len(), 8);
        assert!(y1.iter().any(|&e| e > 0.0), "random configs should err");
    }
}
