//! Standard trace generation shared by every experiment, and the
//! Section 6 plan that simulates every cache cell of a set once.

use std::path::Path;
use std::sync::OnceLock;
use std::thread;

use bsdfs::{Fs, FsResult};
use cachesim::{sweep, CacheConfig, CacheMetrics, Fidelity};
use fsanalysis::{run_analyzers, AnalysisSuite};
use fstrace::{merged_records, Trace};
use workload::{generate, GeneratedTrace, MachineProfile, WorkloadConfig};

use crate::{archive, experiments};

/// Reproduction parameters: how much simulated time to trace, and the
/// master seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReproConfig {
    /// Simulated hours per trace (the paper traced 2–3 days; one to a
    /// few simulated hours at peak-hour intensity gives stable shapes).
    pub hours: f64,
    /// Master random seed.
    pub seed: u64,
    /// Replay fidelity for the Section 6 cache simulations
    /// (`repro --fidelity`); block is the paper's simulator. Section 5
    /// analyses are fidelity-invariant and ignore this.
    pub fidelity: Fidelity,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            hours: 1.0,
            seed: 1985,
            fidelity: Fidelity::Block,
        }
    }
}

/// One generated trace with its name ("a5", "e3", "c4").
pub struct TraceEntry {
    /// Trace name as used in the paper's tables.
    pub name: String,
    /// Machine name ("Ucbarpa" …).
    pub machine: String,
    /// The generated trace and file system.
    pub out: GeneratedTrace,
    analysis: OnceLock<AnalysisSuite>,
}

impl TraceEntry {
    /// Activity window lengths shared by every consumer: 600 s for the
    /// paper's ten-minute intervals, 10 s for bursts.
    pub const WINDOW_SECS: [u64; 2] = [600, 10];

    /// Every Section 5 analysis of this trace, computed together in one
    /// streaming pass the first time any experiment asks, then shared.
    pub fn analysis(&self) -> &AnalysisSuite {
        self.analysis
            .get_or_init(|| run_analyzers(self.out.trace.records(), &Self::WINDOW_SECS))
    }
}

/// The three traces of the paper, regenerated.
pub struct TraceSet {
    /// Entries in paper order: a5, e3, c4.
    pub entries: Vec<TraceEntry>,
    /// Replay fidelity the cache experiments simulate at. Private and
    /// fixed at construction, so the plan computed from it never goes
    /// stale.
    fidelity: Fidelity,
    section6: OnceLock<Section6>,
}

/// Every Section 6 cache cell of a set, each simulated once.
struct Section6 {
    /// The A5 cells of [`experiments::section6_configs`], in its order.
    a5: Vec<(CacheConfig, CacheMetrics)>,
    /// The [`experiments::server`] grid over the merge of every entry.
    server: Vec<(CacheConfig, CacheMetrics)>,
}

impl TraceSet {
    fn new(entries: Vec<TraceEntry>, fidelity: Fidelity) -> Self {
        TraceSet {
            entries,
            fidelity,
            section6: OnceLock::new(),
        }
    }

    /// Replay fidelity the cache experiments simulate at (carried from
    /// [`ReproConfig::fidelity`]).
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The metrics of each A5 cache cell in `configs`, in order,
    /// borrowed from the Section 6 plan (see [`TraceSet::server_cells`]).
    ///
    /// The first call of either lookup computes the whole plan: one
    /// sweep of the [`experiments::section6_configs`] union over A5 on
    /// this thread, beside one sweep of the server grid over the merge
    /// of every entry and one [`TraceEntry::analysis`] per entry, each
    /// on a scoped thread of its own. Later calls only look cells up.
    ///
    /// # Panics
    ///
    /// Panics, naming the config, if a config is not in the union: an
    /// experiment read a cell its `configs` does not list.
    pub fn cells(&self, configs: &[CacheConfig]) -> Vec<&CacheMetrics> {
        lookup(&self.section6().a5, configs, "A5")
    }

    /// The metrics of each dedicated-server cell in `configs`, in
    /// order, borrowed from the Section 6 plan (see [`TraceSet::cells`]).
    ///
    /// # Panics
    ///
    /// Panics, naming the config, if a config is not in the
    /// [`experiments::server::configs`] grid.
    pub fn server_cells(&self, configs: &[CacheConfig]) -> Vec<&CacheMetrics> {
        lookup(&self.section6().server, configs, "server")
    }

    fn section6(&self) -> &Section6 {
        self.section6.get_or_init(|| {
            let reg = obs::global();
            let _plan = reg.span("core.section6.plan").start();
            let union = experiments::section6_configs(self.fidelity);
            let server_configs = experiments::server::configs(self.fidelity);
            let traces: Vec<&Trace> = self.entries.iter().map(|e| &e.out.trace).collect();
            thread::scope(|s| {
                for e in &self.entries {
                    s.spawn(|| e.analysis());
                }
                let server = s.spawn(|| {
                    let _pass = reg.span("core.section6.server_sweep").start();
                    sweep::run_source(
                        || merged_records(&traces).map(|r| r.expect("in-memory merge cannot fail")),
                        &server_configs,
                        sweep::default_jobs(),
                    )
                });
                let a5 = {
                    let _pass = reg.span("core.section6.a5_sweep").start();
                    sweep::run(&self.a5().out.trace, &union)
                };
                Section6 {
                    a5,
                    server: server.join().expect("server sweep panicked"),
                }
            })
        })
    }

    /// Generates all three traces.
    pub fn generate(config: &ReproConfig) -> FsResult<Self> {
        let mut entries = Vec::new();
        for profile in MachineProfile::all() {
            let name = profile.trace_name.to_string();
            let machine = profile.name.to_string();
            let out = generate(&WorkloadConfig {
                profile,
                seed: config.seed,
                duration_hours: config.hours,
                ..WorkloadConfig::default()
            })?;
            entries.push(TraceEntry {
                name,
                machine,
                out,
                analysis: OnceLock::new(),
            });
        }
        Ok(TraceSet::new(entries, config.fidelity))
    }

    /// Generates only the A5 trace (the Section 6 simulations use A5
    /// alone: "only the results from the A5 trace are reported").
    pub fn generate_a5(config: &ReproConfig) -> FsResult<Self> {
        let profile = MachineProfile::ucbarpa();
        let name = profile.trace_name.to_string();
        let machine = profile.name.to_string();
        let out = generate(&WorkloadConfig {
            profile,
            seed: config.seed,
            duration_hours: config.hours,
            ..WorkloadConfig::default()
        })?;
        Ok(TraceSet::new(
            vec![TraceEntry {
                name,
                machine,
                out,
                analysis: OnceLock::new(),
            }],
            config.fidelity,
        ))
    }

    /// The A5 entry.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty (cannot happen for generated sets).
    pub fn a5(&self) -> &TraceEntry {
        &self.entries[0]
    }

    /// Like [`TraceSet::generate`], but backed by a `tracestore`
    /// archive cache under `dir`: a trace whose archive is present and
    /// intact is replayed (chunk-parallel) instead of regenerated, and
    /// fresh generations are archived for the next run.
    ///
    /// A replayed entry carries a pristine file system — the workload
    /// never ran, so there is no cache state to report. The `compare`
    /// experiment needs that state and must use [`TraceSet::generate`];
    /// `repro` enforces this.
    pub fn generate_cached(config: &ReproConfig, dir: &Path, jobs: usize) -> FsResult<Self> {
        let mut entries = Vec::new();
        for profile in MachineProfile::all() {
            entries.push(Self::entry_cached(profile, config, dir, jobs)?);
        }
        Ok(TraceSet::new(entries, config.fidelity))
    }

    /// Archive-cached counterpart of [`TraceSet::generate_a5`].
    pub fn generate_a5_cached(config: &ReproConfig, dir: &Path, jobs: usize) -> FsResult<Self> {
        Ok(TraceSet::new(
            vec![Self::entry_cached(
                MachineProfile::ucbarpa(),
                config,
                dir,
                jobs,
            )?],
            config.fidelity,
        ))
    }

    fn entry_cached(
        profile: MachineProfile,
        config: &ReproConfig,
        dir: &Path,
        jobs: usize,
    ) -> FsResult<TraceEntry> {
        let name = profile.trace_name.to_string();
        let machine = profile.name.to_string();
        let path = archive::trace_path(dir, &name, config);
        let workload_config = WorkloadConfig {
            profile,
            seed: config.seed,
            duration_hours: config.hours,
            ..WorkloadConfig::default()
        };
        let out = match archive::load_trace(&path, jobs) {
            Some(trace) => {
                eprintln!("  {name}: replayed from {}", path.display());
                GeneratedTrace {
                    trace,
                    fs: Fs::new(workload_config.fs_params.clone())?,
                    errors: 0,
                }
            }
            None => {
                let out = generate(&workload_config)?;
                archive::store_trace(&path, &name, &out.trace);
                out
            }
        };
        Ok(TraceEntry {
            name,
            machine,
            out,
            analysis: OnceLock::new(),
        })
    }
}

/// Borrows the metrics of each of `configs` from a plan's `cells`.
fn lookup<'a>(
    cells: &'a [(CacheConfig, CacheMetrics)],
    configs: &[CacheConfig],
    plane: &str,
) -> Vec<&'a CacheMetrics> {
    configs
        .iter()
        .map(|c| {
            cells
                .iter()
                .find(|(k, _)| k == c)
                .map(|(_, m)| m)
                .unwrap_or_else(|| panic!("{c:?} is not a {plane} cell of the Section 6 plan"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_three_named_traces() {
        let set = TraceSet::generate(&ReproConfig {
            hours: 0.05,
            seed: 1,
            ..ReproConfig::default()
        })
        .unwrap();
        let names: Vec<&str> = set.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a5", "e3", "c4"]);
        assert!(set.entries.iter().all(|e| !e.out.trace.is_empty()));
    }

    #[test]
    fn a5_only_generation() {
        let set = TraceSet::generate_a5(&ReproConfig {
            hours: 0.05,
            seed: 1,
            ..ReproConfig::default()
        })
        .unwrap();
        assert_eq!(set.entries.len(), 1);
        assert_eq!(set.a5().name, "a5");
        assert_eq!(set.a5().machine, "Ucbarpa");
    }
}
