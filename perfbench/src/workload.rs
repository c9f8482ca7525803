//! The four workloads: seeded input generation, the generated `.nest`
//! corpus on disk, and the timed set-up path that turns it into jobs.
//!
//! Every input is a pure function of `(workload, seed)`. The program
//! under test only ever sees the generated nest text and the jobs built
//! from it.

use irlt_cachesim::{AddressMap, CacheConfig, Order};
use irlt_driver::{demo_corpus, load_manifest, Job};
use irlt_harness::gen::gen_nest;
use irlt_harness::rng::Rng;
use irlt_ir::LoopNest;
use irlt_opt::{Goal, LocalityGoal, MoveCatalog};
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchDedup,
    BatchUnique,
    Locality,
    ServeMixed,
}

pub const ALL: [Workload; 4] = [
    Workload::BatchDedup,
    Workload::BatchUnique,
    Workload::Locality,
    Workload::ServeMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchDedup => "batch-dedup",
            Workload::BatchUnique => "batch-unique",
            Workload::Locality => "locality",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Worker threads, connections and server workers: never more than the
/// host has cores, so one generator process cannot oversubscribe it.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// How a generated source is optimized.
#[derive(Clone, Debug)]
pub enum GoalSpec {
    Outer,
    Inner,
    /// `Goal::Locality` at problem size `n` over the listed 2-D arrays.
    Locality {
        n: i64,
        arrays: Vec<&'static str>,
    },
}

/// One generated input: nest text plus how to optimize it.
#[derive(Clone, Debug)]
pub struct Source {
    pub text: String,
    pub goal: GoalSpec,
    pub max_steps: usize,
    pub beam: usize,
}

/// The simulated cache every locality job scores against. Each locality
/// array is larger than it, so loop order and tiling change the misses.
pub const LOCALITY_CACHE: CacheConfig = CacheConfig {
    size_bytes: 2048,
    line_bytes: 64,
    associativity: 2,
};

impl Source {
    pub fn goal(&self) -> Goal {
        match &self.goal {
            GoalSpec::Outer => Goal::OuterParallel,
            GoalSpec::Inner => Goal::InnerParallel,
            GoalSpec::Locality { n, arrays } => {
                let mut map = AddressMap::new(Order::ColMajor, 8);
                for a in arrays {
                    map.declare(*a, &[*n as u64, *n as u64]);
                }
                Goal::Locality(LocalityGoal {
                    params: vec![("n".into(), *n)],
                    map,
                    cache: LOCALITY_CACHE,
                })
            }
        }
    }

    /// Builds the job for this source from its parsed nest.
    pub fn job(&self, name: String, nest: LoopNest) -> Job {
        let job = Job::new(name, nest, self.goal()).with_search(self.max_steps, self.beam);
        match self.goal {
            GoalSpec::Locality { .. } => job.with_catalog(MoveCatalog::locality()),
            _ => job,
        }
    }
}

/// The 8 `demo_corpus` nest shapes, each under both parallelism goals:
/// the 16 known (shape, goal) pairs.
pub fn known_pairs(max_steps: usize, beam: usize) -> Vec<Source> {
    let shapes: Vec<String> = demo_corpus(8).iter().map(|j| j.nest.to_string()).collect();
    let mut out = Vec::new();
    for text in shapes {
        for goal in [GoalSpec::Outer, GoalSpec::Inner] {
            out.push(Source {
                text: text.clone(),
                goal,
                max_steps,
                beam,
            });
        }
    }
    out
}

/// A fresh random rectangular nest of the given depth under the given
/// goal.
///
/// `gen_nest` makes the innermost bound triangular (`k = 1, i`) half the
/// time. Those nests are redrawn: on a triangular nest the search can
/// return `Coalesce(j..k); interchange(i, jk); Parallelize` as legal,
/// and the interpreter finds it changes the result (about 1 job in 2000;
/// e.g. `do i = 5,1,-1 / do j = 5,1,-1 / do k = 1,i / A(3-i+2j) =
/// A(-1-i) + B(1)` under the inner-parallel goal). A benchmark run must
/// not fail, so the workloads keep to the rectangular nests.
pub fn fresh_at(rng: &mut Rng, depth: usize, inner: bool) -> Source {
    let nest = loop {
        let nest = gen_nest(rng, depth);
        let vars: Vec<_> = nest.loops().iter().map(|l| l.var.clone()).collect();
        let triangular = nest.loops().iter().any(|l| {
            vars.iter()
                .any(|v| l.lower.mentions(v) || l.upper.mentions(v))
        });
        if !triangular {
            break nest;
        }
    };
    Source {
        text: nest.to_string(),
        goal: if inner {
            GoalSpec::Inner
        } else {
            GoalSpec::Outer
        },
        max_steps: 3,
        beam: 8,
    }
}

const COPY: &str = "do i = 1, n\n do j = 1, n\n  b(i, j) = a(i, j)\n enddo\nenddo";
const WAVEFRONT: &str =
    "do i = 2, n\n do j = 2, n\n  a(i, j) = a(i - 1, j) + a(i, j - 1)\n enddo\nenddo";

fn locality(text: &str, n: i64, arrays: Vec<&'static str>) -> Source {
    Source {
        text: text.to_string(),
        goal: GoalSpec::Locality { n, arrays },
        max_steps: 2,
        beam: 4,
    }
}

/// `run_batch` calls of the locality workload per 10 s of `--seconds`.
const LOCALITY_CALLS_PER_10S: f64 = 6.0;

/// What a batch workload runs: its corpus, cut into `run_batch` calls
/// of `round` jobs (each call starts with a fresh shared cache), and how
/// many passes over the corpus the timed phase makes.
pub struct Plan {
    pub sources: Vec<Source>,
    pub round: usize,
    pub passes: usize,
}

/// The batch corpus of a workload, drawn from `seed`. The amount of work
/// is fixed by `(seed, seconds)` and sized so the timed phase takes about
/// `seconds` on a 2-core host. Every `run_batch` call holds the same mix
/// of job classes and only the order and the random nests vary with the
/// seed, so calls within a run, and runs at different seeds, do
/// comparable work.
pub fn batch_plan(w: Workload, seed: u64, seconds: f64) -> Plan {
    let mut rng = Rng::new(seed ^ 0xba7c_4000);
    let scale = |n: f64| ((n * seconds / 10.0).round() as usize).max(1);
    match w {
        Workload::BatchDedup => {
            // Each pair once in a fixed order, so the cold work (first
            // sight of a pair) is the same at every seed; then 15 more of
            // each pair in seeded order, served mostly from the cache.
            let pairs = known_pairs(5, 16);
            let mut repeats: Vec<Source> = (0..15).flat_map(|_| pairs.iter().cloned()).collect();
            rng.shuffle(&mut repeats);
            let mut sources = pairs;
            sources.extend(repeats);
            Plan {
                round: sources.len(),
                sources,
                passes: scale(6.0),
            }
        }
        Workload::BatchUnique => {
            // Each call: 40 nests of each (depth 2, 3, 4) × goal class.
            const CALL: usize = 240;
            let mut sources = Vec::new();
            for _ in 0..scale(8.0) {
                let mut classes: Vec<(usize, bool)> =
                    (0..CALL).map(|k| (2 + k % 3, (k / 3) % 2 == 1)).collect();
                rng.shuffle(&mut classes);
                sources.extend(
                    classes
                        .into_iter()
                        .map(|(depth, inner)| fresh_at(&mut rng, depth, inner)),
                );
            }
            Plan {
                sources,
                round: CALL,
                passes: 1,
            }
        }
        Workload::Locality => {
            // Each call: four jobs of each of five 2-D classes (copy at
            // n = 17, 24, 32, wavefront at n = 24, 32; 90-200 ms each),
            // so the median and the p99 job each fall inside a class
            // that every call samples four times. A 3-D matmul is left
            // out: at the smallest size whose arrays exceed the cache
            // (n = 17) one job costs ~3 s, so a run would hold a few of
            // them and the p99 would rest on those few.
            let mut sources = Vec::new();
            for _ in 0..scale(LOCALITY_CALLS_PER_10S) {
                let mut call = Vec::new();
                for _ in 0..4 {
                    for n in [17, 24, 32] {
                        call.push(locality(COPY, n, vec!["a", "b"]));
                    }
                    for n in [24, 32] {
                        call.push(locality(WAVEFRONT, n, vec!["a"]));
                    }
                }
                rng.shuffle(&mut call);
                sources.extend(call);
            }
            Plan {
                sources,
                round: 20,
                passes: 1,
            }
        }
        Workload::ServeMixed => unreachable!("serve-mixed has no batch corpus"),
    }
}

/// The generated corpus on disk: one `.nest` file per source plus a
/// manifest listing them in order.
pub struct Corpus {
    pub manifest: PathBuf,
    pub sources: Vec<Source>,
}

pub fn job_name(k: usize) -> String {
    format!("j{k:05}")
}

pub fn write_corpus(dir: &Path, sources: Vec<Source>) -> std::io::Result<Corpus> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = String::new();
    for (k, s) in sources.iter().enumerate() {
        let file = format!("{}.nest", job_name(k));
        std::fs::write(dir.join(&file), &s.text)?;
        manifest.push_str(&file);
        manifest.push('\n');
    }
    let path = dir.join("corpus.manifest");
    std::fs::write(&path, manifest)?;
    Ok(Corpus {
        manifest: path,
        sources,
    })
}

/// The start-up path a batch user pays before the first job: read and
/// parse every `.nest` file (`load_manifest`), then build the jobs.
pub fn load_jobs(corpus: &Corpus) -> Result<Vec<Job>, String> {
    let parsed =
        load_manifest(&corpus.manifest, &Goal::OuterParallel).map_err(|e| e.to_string())?;
    if parsed.len() != corpus.sources.len() {
        return Err(format!(
            "manifest yielded {} jobs, expected {}",
            parsed.len(),
            corpus.sources.len()
        ));
    }
    Ok(parsed
        .into_iter()
        .zip(&corpus.sources)
        .map(|(j, s)| s.job(j.name, j.nest))
        .collect())
}
