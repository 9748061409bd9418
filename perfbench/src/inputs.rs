//! Seeded input generation. One workload seed produces every input the
//! program reads: the instance files, the search seed of each CLI
//! invocation, and the service job stream with its arrival schedule.

use crate::config::{self, Workload};
use noc_apps::TABLE1_ROWS;
use noc_mapping::{GaConfig, SaConfig, SearchMethod, Strategy, TabuConfig};
use noc_model::{Cdcg, Mapping, Mesh, RoutingKind, TileId};
use noc_service::{EvaluateRequest, JobRequest, Priority, SolveRequest};
use std::path::{Path, PathBuf};

/// SplitMix64: a small, fixed, seedable generator whose stream never
/// changes with the program's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream` (independent streams per use).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A search seed: small enough to read in a command line.
    pub fn search_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000
    }
}

/// Random-stream identifiers, one per kind of draw.
const STREAM_SEARCH: u64 = 1;
const STREAM_JOBS: u64 = 2;
const STREAM_ARRIVALS: u64 = 3;
const STREAM_MAPPINGS: u64 = 4;

/// A mapping instance: application, mesh and routing.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Display name (Table 1 row name, `shift-64x64`, `stack-8x8x4`).
    pub name: String,
    /// The application.
    pub app: Cdcg,
    /// The target mesh.
    pub mesh: Mesh,
    /// Routing algorithm.
    pub routing: RoutingKind,
    /// The app file the program reads (set by [`write_instances`]).
    pub file: PathBuf,
}

impl Instance {
    fn new(name: String, app: Cdcg, mesh: Mesh, routing: RoutingKind) -> Self {
        Self {
            name,
            app,
            mesh,
            routing,
            file: PathBuf::new(),
        }
    }

    /// `--mesh` argument.
    pub fn mesh_arg(&self) -> String {
        let m = &self.mesh;
        if m.depth() > 1 {
            format!("{}x{}x{}", m.width(), m.height(), m.depth())
        } else {
            format!("{}x{}", m.width(), m.height())
        }
    }

    /// `--routing` argument.
    pub fn routing_arg(&self) -> String {
        self.routing.name().to_ascii_lowercase()
    }
}

/// Table 1 row `row`, generated by `noc_apps::table1_suite`'s rule.
pub fn table1_instance(row: usize) -> Instance {
    let bench = noc_apps::Benchmark::from_spec(TABLE1_ROWS[row]);
    Instance::new(
        bench.spec.name.to_owned(),
        bench.cdcg,
        bench.mesh,
        RoutingKind::Xy,
    )
}

/// The 64×64 mesh-filling shift instance.
pub fn shift_instance() -> Instance {
    let mesh = Mesh::new(64, 64).expect("64x64 is a valid mesh");
    Instance::new(
        "shift-64x64".to_owned(),
        noc_apps::large_mesh_workload(64, 64, 1),
        mesh,
        RoutingKind::Xy,
    )
}

/// The 8×8×4 layered-shift stack, routed XYZ.
pub fn stack_instance() -> Instance {
    let mesh = Mesh::new3(8, 8, 4).expect("8x8x4 is a valid mesh");
    Instance::new(
        "stack-8x8x4".to_owned(),
        noc_apps::layered_shift_workload(8, 8, 4, 1),
        mesh,
        RoutingKind::Xyz,
    )
}

/// Writes every instance's app as compact CDCG JSON into `dir`.
pub fn write_instances(dir: &Path, instances: &mut [Instance]) -> std::io::Result<()> {
    for instance in instances {
        let path = dir.join(format!("{}.json", instance.name));
        let json = serde_json::to_string(&instance.app).map_err(std::io::Error::other)?;
        std::fs::write(&path, json)?;
        instance.file = path;
    }
    Ok(())
}

/// One `noc-cli map` invocation of a CLI workload.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// Index into the workload's instances.
    pub instance: usize,
    /// `--method`.
    pub method: &'static str,
    /// `--evals` of a timed pass.
    pub evals: u64,
    /// `--seed`.
    pub seed: u64,
}

impl Invocation {
    /// The `noc-cli map` arguments with budget `evals`.
    pub fn args(&self, instance: &Instance, evals: u64) -> Vec<String> {
        [
            "map",
            "--app",
            &instance.file.to_string_lossy(),
            "--mesh",
            &instance.mesh_arg(),
            "--routing",
            &instance.routing_arg(),
            "--strategy",
            "cdcm",
            "--method",
            self.method,
            "--evals",
            &evals.to_string(),
            "--seed",
            &self.seed.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

/// Instances and invocations of a CLI workload for `seed`.
pub fn cli_workload(workload: Workload, seed: u64) -> (Vec<Instance>, Vec<Invocation>) {
    let budgeted: Vec<(Instance, u64)> = match workload {
        Workload::Table1Small => config::SMALL_ROWS
            .map(|row| (table1_instance(row), config::SMALL_EVALS))
            .collect(),
        Workload::LargeMesh => config::LARGE_ROWS
            .map(|row| (table1_instance(row), config::LARGE_ROW_EVALS))
            .chain([
                (shift_instance(), config::SHIFT_EVALS),
                (stack_instance(), config::STACK_EVALS),
            ])
            .collect(),
        Workload::ServiceMix => Vec::new(),
    };
    let mut rng = Rng::new(seed, STREAM_SEARCH);
    let mut invocations = Vec::new();
    for (i, (_, evals)) in budgeted.iter().enumerate() {
        for method in config::CLI_METHODS {
            invocations.push(Invocation {
                instance: i,
                method,
                evals: *evals,
                seed: rng.search_seed(),
            });
        }
    }
    (budgeted.into_iter().map(|(i, _)| i).collect(), invocations)
}

/// What a service job asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// A mapping search.
    Solve {
        /// CDCM or CWM.
        strategy: Strategy,
        /// `sa`, `tabu` or `ga`.
        method: &'static str,
        /// Evaluation budget.
        evals: u64,
        /// Search seed.
        seed: u64,
    },
    /// Score one mapping on the full-artifact schedule path.
    Evaluate {
        /// Tile of each core.
        tiles: Vec<usize>,
    },
}

/// One service job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Table 1 row (index into the service instances).
    pub row: usize,
    /// Solve or evaluate.
    pub kind: JobKind,
    /// Scheduling class.
    pub priority: Priority,
}

/// The service search method for `name` with `evals` and `seed`.
pub fn search_method(name: &str, evals: u64, seed: u64) -> SearchMethod {
    match name {
        "tabu" => SearchMethod::Tabu(TabuConfig {
            budget: evals,
            ..TabuConfig::new(seed)
        }),
        "ga" => SearchMethod::Genetic(GaConfig {
            budget: evals,
            ..GaConfig::new(seed)
        }),
        _ => SearchMethod::SimulatedAnnealing(SaConfig {
            max_evaluations: evals,
            ..SaConfig::new(seed)
        }),
    }
}

impl JobSpec {
    /// The job request this spec describes, on `instances[self.row]`.
    pub fn request(&self, instances: &[Instance]) -> JobRequest {
        let instance = &instances[self.row];
        match &self.kind {
            JobKind::Solve {
                strategy,
                method,
                evals,
                seed,
            } => {
                let mut req = SolveRequest::new(
                    instance.app.clone(),
                    instance.mesh,
                    search_method(method, *evals, *seed),
                );
                req.strategy = *strategy;
                req.routing = instance.routing;
                req.seed = *seed;
                JobRequest::Solve(Box::new(req))
            }
            JobKind::Evaluate { tiles } => JobRequest::Evaluate(Box::new(EvaluateRequest {
                app: instance.app.clone(),
                mesh: instance.mesh,
                mapping: Mapping::from_tiles(&instance.mesh, tiles.iter().map(|&t| TileId::new(t)))
                    .expect("drawn placements are injective"),
                tech: noc_energy::Technology::t007(),
                params: noc_sim::SimParams::new(),
                routing: instance.routing,
                gantt: false,
            })),
        }
    }

    /// Short label for reports: `row/kind/method`.
    pub fn label(&self, instances: &[Instance]) -> String {
        let name = &instances[self.row].name;
        match &self.kind {
            JobKind::Solve {
                strategy, method, ..
            } => format!("{name}/{}/{method}", strategy.label()),
            JobKind::Evaluate { .. } => format!("{name}/evaluate"),
        }
    }
}

/// The 18 Table 1 rows, the service workload's instances.
pub fn service_instances() -> Vec<Instance> {
    (0..TABLE1_ROWS.len()).map(table1_instance).collect()
}

/// Solve budget of a service job on `row`.
fn job_evals(row: usize) -> u64 {
    if config::LARGE_ROWS.contains(&row) {
        config::LARGE_JOB_EVALS
    } else {
        config::SMALL_JOB_EVALS
    }
}

/// How a block of service jobs is ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// A seeded shuffle of the whole block.
    Shuffled,
    /// Heavy rows (tgff-g/h/i) and light rows shuffled apart, heavy jobs
    /// at a fixed stride: no seed bunches heavy jobs together, so the
    /// open loop's load shape is the same for every seed.
    HeavyStride,
}

/// The service job stream for `seed`: `blocks` blocks, each holding
/// every row once per variant (CDCM `sa`, `tabu`, `ga`; one CWM search
/// with a drawn method; one evaluate job on a drawn placement), so every
/// seed offers the same mix in a different order. The first `skip`
/// blocks are drawn and dropped, so a later phase continues the stream
/// instead of repeating it. Priorities cycle high, normal, low.
pub fn service_jobs(
    instances: &[Instance],
    seed: u64,
    skip: usize,
    blocks: usize,
    order: Order,
) -> Vec<JobSpec> {
    let mut shuffles = Rng::new(seed, STREAM_JOBS);
    let mut draws = Rng::new(seed, STREAM_MAPPINGS);
    let mut jobs = Vec::new();
    for b in 0..skip + blocks {
        let mut block = Vec::new();
        for (row, instance) in instances.iter().enumerate() {
            let evals = job_evals(row);
            for method in ["sa", "tabu", "ga"] {
                block.push((
                    row,
                    JobKind::Solve {
                        strategy: Strategy::Cdcm,
                        method,
                        evals,
                        seed: draws.search_seed(),
                    },
                ));
            }
            block.push((
                row,
                JobKind::Solve {
                    strategy: Strategy::Cwm,
                    method: ["sa", "tabu", "ga"][draws.below(3)],
                    evals,
                    seed: draws.search_seed(),
                },
            ));
            let mut tiles: Vec<usize> = (0..instance.mesh.tile_count()).collect();
            draws.shuffle(&mut tiles);
            tiles.truncate(instance.app.core_count());
            block.push((row, JobKind::Evaluate { tiles }));
        }
        let block = match order {
            Order::Shuffled => {
                shuffles.shuffle(&mut block);
                block
            }
            Order::HeavyStride => heavy_stride(block, &mut shuffles),
        };
        if b >= skip {
            jobs.extend(block);
        }
    }
    jobs.into_iter()
        .enumerate()
        .map(|(i, (row, kind))| JobSpec {
            row,
            kind,
            priority: [Priority::High, Priority::Normal, Priority::Low][i % 3],
        })
        .collect()
}

/// [`Order::HeavyStride`] of one block.
fn heavy_stride<T>(block: Vec<(usize, T)>, rng: &mut Rng) -> Vec<(usize, T)> {
    let (mut heavy, mut light): (Vec<_>, Vec<_>) = block
        .into_iter()
        .partition(|(row, _)| config::LARGE_ROWS.contains(row));
    rng.shuffle(&mut heavy);
    rng.shuffle(&mut light);
    let stride = (heavy.len() + light.len()) / heavy.len().max(1);
    let (mut heavy, mut light) = (heavy.into_iter(), light.into_iter());
    let mut out = Vec::new();
    for i in 1.. {
        let next = if i % stride == 0 { heavy.next() } else { None };
        match next.or_else(|| light.next()).or_else(|| heavy.next()) {
            Some(job) => out.push(job),
            None => break,
        }
    }
    out
}

/// One warm-up solve job per distinct mesh of the service instances
/// (the first row on each mesh), with a one-evaluation budget.
pub fn warmup_jobs(instances: &[Instance]) -> Vec<JobSpec> {
    let mut seen: Vec<Mesh> = Vec::new();
    let mut jobs = Vec::new();
    for (row, instance) in instances.iter().enumerate() {
        if seen.contains(&instance.mesh) {
            continue;
        }
        seen.push(instance.mesh);
        jobs.push(JobSpec {
            row,
            kind: JobKind::Solve {
                strategy: Strategy::Cdcm,
                method: "sa",
                evals: 1,
                seed: 0,
            },
            priority: Priority::Normal,
        });
    }
    jobs
}

/// Seeded open-loop schedule: due times (seconds from the phase start)
/// of `count` jobs at `rate` jobs per second, job `i` drawn uniformly
/// within its slot `[i, i + 1) / rate`. The offered rate is exact over
/// any window and bursts stay bounded, so seeds differ in timing detail,
/// not in load.
pub fn arrival_schedule(seed: u64, count: usize, rate: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed, STREAM_ARRIVALS);
    (0..count).map(|i| (i as f64 + rng.unit()) / rate).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = cli_workload(Workload::Table1Small, 5).1;
        let b = cli_workload(Workload::Table1Small, 5).1;
        let c = cli_workload(Workload::Table1Small, 6).1;
        let seeds = |v: &[Invocation]| v.iter().map(|i| i.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
        assert_ne!(seeds(&a), seeds(&c));
        assert_eq!(a.len(), 30);
        assert_eq!(arrival_schedule(3, 50, 10.0), arrival_schedule(3, 50, 10.0));
    }

    #[test]
    fn job_blocks_keep_the_mix_fixed_across_seeds() {
        let instances = service_instances();
        for seed in [1, 2] {
            assert_eq!(
                service_jobs(&instances, seed, 1, 1, Order::Shuffled).len(),
                90
            );
            let jobs = service_jobs(&instances, seed, 0, 2, Order::HeavyStride);
            assert_eq!(jobs.len(), 2 * 18 * 5);
            let evaluates = jobs
                .iter()
                .filter(|j| matches!(j.kind, JobKind::Evaluate { .. }))
                .count();
            assert_eq!(evaluates, 36);
            // Heavy rows sit at a fixed stride in every block.
            let heavy: Vec<usize> = jobs
                .iter()
                .enumerate()
                .filter(|(_, j)| config::LARGE_ROWS.contains(&j.row))
                .map(|(i, _)| i % 6)
                .collect();
            assert_eq!(heavy.len(), 30);
            assert!(heavy.iter().all(|&r| r == 5), "{heavy:?}");
            for j in &jobs {
                // Every drawn placement is a valid mapping.
                let _ = j.request(&instances);
            }
        }
        assert_eq!(warmup_jobs(&instances).len(), 9);
    }

    #[test]
    fn arrivals_are_increasing_at_about_the_rate() {
        let due = arrival_schedule(7, 4000, 100.0);
        assert!(due.windows(2).all(|w| w[1] > w[0]));
        let rate = due.len() as f64 / due[due.len() - 1];
        assert!((rate - 100.0).abs() < 10.0, "{rate}");
    }
}
