//! Batch jobs and their results.

use irlt_ir::LoopNest;
use irlt_obs::Json;
use irlt_opt::{Candidate, Goal, MoveCatalog, SearchConfig};
use std::fmt;
use std::time::Duration;

/// One unit of batch work: a loop nest, the goal to optimize it for, the
/// search settings, and an optional wall-clock deadline.
///
/// # Examples
///
/// ```
/// use irlt_driver::Job;
/// use irlt_ir::parse_nest;
/// use irlt_opt::Goal;
/// use std::time::Duration;
///
/// let nest = parse_nest("do i = 1, n\n a(i) = 0\nenddo")?;
/// let job = Job::new("tiny", nest, Goal::OuterParallel)
///     .with_search(2, 4)
///     .with_deadline(Duration::from_millis(50));
/// assert_eq!(job.name, "tiny");
/// assert_eq!(job.max_steps, 2);
/// # Ok::<(), irlt_ir::ParseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Job {
    /// Stable identifier; results are reported under it.
    pub name: String,
    /// The nest to optimize (dependences are analyzed by the worker).
    pub nest: LoopNest,
    /// The optimization goal.
    pub goal: Goal,
    /// Candidate moves per expansion.
    pub catalog: MoveCatalog,
    /// Maximum sequence length.
    pub max_steps: usize,
    /// Beam width.
    pub beam_width: usize,
    /// Wall-clock budget: when it expires the job returns its
    /// best-so-far candidate as [`JobStatus::TimedOut`]. `None` runs to
    /// completion.
    pub deadline: Option<Duration>,
}

impl Job {
    /// A job with the default search settings (those of
    /// [`SearchConfig::default`]) and no deadline.
    pub fn new(name: impl Into<String>, nest: LoopNest, goal: Goal) -> Job {
        let defaults = SearchConfig::default();
        Job {
            name: name.into(),
            nest,
            goal,
            catalog: defaults.catalog,
            max_steps: defaults.max_steps,
            beam_width: defaults.beam_width,
            deadline: None,
        }
    }

    /// Overrides the search depth and beam width.
    #[must_use]
    pub fn with_search(mut self, max_steps: usize, beam_width: usize) -> Job {
        self.max_steps = max_steps;
        self.beam_width = beam_width;
        self
    }

    /// Overrides the move catalog.
    #[must_use]
    pub fn with_catalog(mut self, catalog: MoveCatalog) -> Job {
        self.catalog = catalog;
        self
    }

    /// Sets the wall-clock budget.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Job {
        self.deadline = Some(deadline);
        self
    }
}

/// How a job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The search ran to completion.
    Completed,
    /// The deadline fired first: the result holds the best *legal*
    /// candidate found before cancellation (at worst the identity).
    TimedOut,
}

impl JobStatus {
    /// True for [`JobStatus::Completed`].
    pub fn is_completed(self) -> bool {
        self == JobStatus::Completed
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobStatus::Completed => "completed",
            JobStatus::TimedOut => "timed_out",
        })
    }
}

/// The outcome of one job.
///
/// Everything except [`wall`](JobResult::wall) and
/// [`worker`](JobResult::worker) is deterministic: a pure function of the
/// [`Job`], independent of thread count, submission order, and shared
/// cache state.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job's name.
    pub name: String,
    /// How the job ended.
    pub status: JobStatus,
    /// The best legal candidate (sequence, score, transformed shape).
    pub best: Candidate,
    /// Candidates legality-tested.
    pub explored: usize,
    /// Candidates that passed the legality test.
    pub legal: usize,
    /// Wall time the search took (nondeterministic).
    pub wall: Duration,
    /// Which worker ran the job (nondeterministic: whichever worker
    /// claimed it first).
    pub worker: usize,
}

impl JobResult {
    /// JSON rendering for the batch artifact.
    pub fn to_json(&self) -> Json {
        let score = if self.best.score.is_finite() {
            Json::Float(self.best.score)
        } else {
            Json::Null
        };
        Json::Object(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("status".into(), Json::Str(self.status.to_string())),
            ("seq".into(), Json::Str(self.best.seq.to_string())),
            ("score".into(), score),
            ("explored".into(), Json::Int(self.explored as i64)),
            ("legal".into(), Json::Int(self.legal as i64)),
            ("wall_ms".into(), Json::Float(self.wall.as_secs_f64() * 1e3)),
            ("worker".into(), Json::Int(self.worker as i64)),
        ])
    }
}

impl fmt::Display for JobResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} best {} (score {:.1}; {} tested, {} legal)",
            self.name, self.status, self.best.seq, self.best.score, self.explored, self.legal
        )
    }
}
