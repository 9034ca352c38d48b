//! Job model and sweep-spec parsing for the serve API.
//!
//! A *job* is one client submission: an experiment plus a config grid
//! (lists of seeds / instruction budgets / mix caps, crossed) that expands
//! to one [`Arm`] per grid point. Each arm is an independent, fully
//! resolved [`RunSpec`] with its own content digest — the unit the
//! scheduler queues, the cache stores, and the ledger records.
//!
//! This module owns the job document: [`Job::to_json`] renders it for
//! `GET /jobs/:id` and for `jobs.json`, and [`Job::from_json`] reads it
//! back when the daemon resumes.

use mab_experiments::spec::{self, RunSpec};
use mab_telemetry::json::{self, JsonValue};

/// Scheduling state of one arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmStatus {
    /// Waiting in its client's queue.
    Queued,
    /// Executing (or attached to an identical in-flight execution).
    Running,
    /// Finished; the artifact is in the cache.
    Done,
    /// Execution failed; see [`Arm::error`].
    Failed,
}

impl ArmStatus {
    /// Lower-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            ArmStatus::Queued => "queued",
            ArmStatus::Running => "running",
            ArmStatus::Done => "done",
            ArmStatus::Failed => "failed",
        }
    }

    /// True for states no transition leaves.
    pub fn is_terminal(self) -> bool {
        matches!(self, ArmStatus::Done | ArmStatus::Failed)
    }
}

/// One grid point of a job: a resolved spec plus its scheduling state.
#[derive(Debug, Clone)]
pub struct Arm {
    /// The fully resolved run identity.
    pub spec: RunSpec,
    /// Content digest (cache key / ledger address) under the serving code
    /// version.
    pub digest: String,
    /// Scheduling state.
    pub status: ArmStatus,
    /// True when the result came from the cache or an in-flight twin
    /// rather than a fresh execution.
    pub cache_hit: bool,
    /// Wall time until the arm completed, in milliseconds.
    pub wall_ms: f64,
    /// Failure message, when [`ArmStatus::Failed`].
    pub error: Option<String>,
    /// Path of the `.mabcrash` flight-recorder report the failed execution
    /// left behind, when one was found (see `GET /crashes` and
    /// `mab-inspect postmortem`).
    pub crash: Option<String>,
}

impl Arm {
    /// A queued arm for `spec`, addressed under code version `code`.
    pub fn new(spec: RunSpec, code: &str) -> Arm {
        Arm {
            digest: spec.digest(code),
            spec,
            status: ArmStatus::Queued,
            cache_hit: false,
            wall_ms: 0.0,
            error: None,
            crash: None,
        }
    }

    /// The arm's element of the job document, at `index` in the job.
    fn to_json(&self, index: usize) -> String {
        let mut out = format!(
            "{{\"index\":{index},\"digest\":\"{}\",\"status\":\"{}\",\"cache_hit\":{},\
             \"instructions\":{},\"seed\":{},\"mixes\":{},\"quick\":{},\"wall_ms\":{}",
            self.digest,
            self.status.name(),
            self.cache_hit,
            self.spec.instructions,
            self.spec.seed,
            self.spec.mixes,
            self.spec.quick,
            json::fmt_f64(self.wall_ms),
        );
        if let Some(error) = &self.error {
            out.push_str(&format!(",\"error\":\"{}\"", json::escape(error)));
        }
        if let Some(crash) = &self.crash {
            out.push_str(&format!(",\"crash\":\"{}\"", json::escape(crash)));
        }
        out.push('}');
        out
    }
}

/// One client submission.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id.
    pub id: u64,
    /// Client identity (fair-scheduling key).
    pub client: String,
    /// The expanded grid.
    pub arms: Vec<Arm>,
    /// Submission time (seconds since the Unix epoch).
    pub submitted_unix: u64,
    /// Per-job progress stream (`GET /jobs/:id/events`).
    pub events: std::sync::Arc<mab_monitor::EventRing>,
}

impl Job {
    /// Aggregate state over the arms: `failed` dominates, then `running`
    /// while anything is unfinished, `done` only when every arm is done.
    pub fn status(&self) -> &'static str {
        if self.arms.iter().any(|a| a.status == ArmStatus::Failed) {
            "failed"
        } else if self.arms.iter().all(|a| a.status == ArmStatus::Done) {
            "done"
        } else if self.arms.iter().all(|a| a.status == ArmStatus::Queued) {
            "queued"
        } else {
            "running"
        }
    }

    /// Arms in a terminal state.
    pub fn finished(&self) -> usize {
        self.arms.iter().filter(|a| a.status.is_terminal()).count()
    }

    /// Arms that were served from cache (on-disk or in-flight dedup).
    pub fn cache_hits(&self) -> usize {
        self.arms
            .iter()
            .filter(|a| a.status.is_terminal() && a.cache_hit)
            .count()
    }

    /// Rebuilds a job from its [`Job::to_json`] document, computing every
    /// digest under code version `code`. Done and failed arms keep their
    /// outcome; every other arm comes back queued. The derived fields
    /// (`status`, the counts, each arm's `index` and `digest`) are not
    /// read. The experiment is the job's, or, in the form earlier builds
    /// wrote, each arm's own.
    ///
    /// `None` when the document is not a job: no arms, an arm without a
    /// registered experiment, or a missing field that both forms always
    /// write (`id`, `client`, `submitted_unix`, each arm's config, and a
    /// finished arm's `cache_hit` and `wall_ms`).
    pub fn from_json(doc: &JsonValue, code: &str) -> Option<Job> {
        let experiment = doc.get("experiment").and_then(JsonValue::as_str);
        let arms = doc
            .get("arms")?
            .as_arr()?
            .iter()
            .map(|arm| {
                let name = experiment.or_else(|| arm.get("experiment")?.as_str())?;
                let spec = RunSpec {
                    experiment: spec::find(name)?.name.to_string(),
                    instructions: arm.get("instructions")?.as_u64()?,
                    seed: arm.get("seed")?.as_u64()?,
                    mixes: usize::try_from(arm.get("mixes")?.as_u64()?).ok()?,
                    quick: arm.get("quick")?.as_bool()?,
                };
                let mut rebuilt = Arm::new(spec, code);
                rebuilt.status = match arm.get("status").and_then(JsonValue::as_str) {
                    Some("done") => ArmStatus::Done,
                    Some("failed") => ArmStatus::Failed,
                    _ => return Some(rebuilt),
                };
                let text = |key| arm.get(key).and_then(JsonValue::as_str).map(str::to_string);
                rebuilt.cache_hit = arm.get("cache_hit")?.as_bool()?;
                rebuilt.wall_ms = arm.get("wall_ms")?.as_f64()?;
                rebuilt.error = text("error");
                rebuilt.crash = text("crash");
                Some(rebuilt)
            })
            .collect::<Option<Vec<Arm>>>()?;
        if arms.is_empty() {
            return None;
        }
        Some(Job {
            id: doc.get("id")?.as_u64()?,
            client: doc.get("client")?.as_str()?.to_string(),
            arms,
            submitted_unix: doc.get("submitted_unix")?.as_u64()?,
            events: std::sync::Arc::new(mab_monitor::EventRing::default()),
        })
    }

    /// Full status document for `GET /jobs/:id`, and one element of
    /// `jobs.json`.
    pub fn to_json(&self) -> String {
        let arms: Vec<String> = self
            .arms
            .iter()
            .enumerate()
            .map(|(i, arm)| arm.to_json(i))
            .collect();
        format!(
            "{{\"id\":{},\"client\":\"{}\",\"experiment\":\"{}\",\"status\":\"{}\",\
             \"submitted_unix\":{},\"arms_total\":{},\"arms_finished\":{},\"cache_hits\":{},\"arms\":[{}]}}",
            self.id,
            json::escape(&self.client),
            json::escape(self.experiment()),
            self.status(),
            self.submitted_unix,
            self.arms.len(),
            self.finished(),
            self.cache_hits(),
            arms.join(","),
        )
    }

    /// One-line summary for `GET /queue`.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"id\":{},\"client\":\"{}\",\"experiment\":\"{}\",\"status\":\"{}\",\
             \"arms_total\":{},\"arms_finished\":{},\"cache_hits\":{}}}",
            self.id,
            json::escape(&self.client),
            json::escape(self.experiment()),
            self.status(),
            self.arms.len(),
            self.finished(),
            self.cache_hits(),
        )
    }

    /// The experiment every arm runs (empty for a job without arms).
    fn experiment(&self) -> &str {
        self.arms.first().map_or("", |a| a.spec.experiment.as_str())
    }
}

/// A parsed, expanded submission: the client id plus one resolved spec per
/// grid point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Client identity for fair scheduling (`"anon"` when absent).
    pub client: String,
    /// One resolved spec per grid point, in grid order
    /// (instructions × mixes × seeds, seeds fastest).
    pub specs: Vec<RunSpec>,
}

/// Parses a `POST /jobs` body:
///
/// ```json
/// {"experiment":"fig08_singlecore","client":"agent-1",
///  "seeds":[1,2,3],"instructions":200000,"mixes":[4,8],"quick":true}
/// ```
///
/// `experiment` is required and must be registered; `client` defaults to
/// `anon`; `seeds` (scalar or list) defaults to `[42]`; `instructions` and
/// `mixes` (scalar or list) default to the experiment's registry defaults
/// (scaled by `quick` when set), exactly as the binary CLI resolves them.
///
/// The grid's arm count is checked against `max_arms` (the daemon's queue
/// cap) before any spec is built: a grid larger than the cap could never
/// be admitted, so it is refused outright rather than expanded.
///
/// # Errors
///
/// Returns a message suitable for a `400` response.
pub fn parse_job(body: &str, max_arms: usize) -> Result<JobSpec, String> {
    let doc = json::parse(body.trim()).map_err(|e| format!("invalid JSON body: {e}"))?;
    let experiment = doc
        .get("experiment")
        .and_then(JsonValue::as_str)
        .ok_or("missing required string field 'experiment'")?;
    let def = spec::find(experiment)
        .ok_or_else(|| format!("unknown experiment {experiment:?}; see /experiments"))?;
    let client = doc
        .get("client")
        .and_then(JsonValue::as_str)
        .unwrap_or("anon")
        .to_string();
    let quick = doc
        .get("quick")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let seeds = u64_list(&doc, "seeds")?.unwrap_or_else(|| vec![42]);
    let instructions = u64_list(&doc, "instructions")?;
    let mixes = u64_list(&doc, "mixes")?;
    let instructions: Vec<Option<u64>> = match instructions {
        Some(list) => list.into_iter().map(Some).collect(),
        None => vec![None],
    };
    let mixes: Vec<Option<usize>> = match mixes {
        Some(list) => list.into_iter().map(|m| Some(m as usize)).collect(),
        None => vec![None],
    };
    let arms = instructions
        .len()
        .checked_mul(mixes.len())
        .and_then(|n| n.checked_mul(seeds.len()));
    let Some(arms) = arms.filter(|&n| n <= max_arms) else {
        let count = arms.map_or_else(|| "too many".to_string(), |n| n.to_string());
        return Err(format!(
            "config grid has {count} arms, more than the queue cap of {max_arms}; \
             split it into smaller jobs"
        ));
    };
    let mut specs = Vec::with_capacity(arms);
    for &i in &instructions {
        for &m in &mixes {
            for &seed in &seeds {
                specs.push(RunSpec::resolve(def, i, seed, m, quick));
            }
        }
    }
    if specs.is_empty() {
        return Err("empty config grid".to_string());
    }
    Ok(JobSpec { client, specs })
}

/// Reads `key` as either a scalar u64 or a list of them.
fn u64_list(doc: &JsonValue, key: &str) -> Result<Option<Vec<u64>>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(value) => {
            if let Some(n) = value.as_u64() {
                return Ok(Some(vec![n]));
            }
            let arr = value
                .as_arr()
                .ok_or_else(|| format!("field '{key}' must be a number or a list of numbers"))?;
            let mut out = Vec::with_capacity(arr.len());
            for item in arr {
                out.push(
                    item.as_u64()
                        .ok_or_else(|| format!("field '{key}' has a non-integer element"))?,
                );
            }
            if out.is_empty() {
                return Err(format!("field '{key}' must not be an empty list"));
            }
            Ok(Some(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The daemon's default queue cap.
    const CAP: usize = 256;

    #[test]
    fn minimal_submission_uses_defaults() {
        let job = parse_job("{\"experiment\":\"fig08_singlecore\"}", CAP).unwrap();
        assert_eq!(job.client, "anon");
        assert_eq!(job.specs.len(), 1);
        let spec = &job.specs[0];
        assert_eq!(spec.experiment, "fig08_singlecore");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.instructions, 2_000_000);
        assert!(!spec.quick);
    }

    #[test]
    fn grid_expands_as_a_cross_product() {
        let job = parse_job(
            "{\"experiment\":\"fig13_smt_scurve\",\"client\":\"a\",\
             \"seeds\":[1,2],\"instructions\":[1000,2000],\"mixes\":4,\"quick\":true}",
            CAP,
        )
        .unwrap();
        assert_eq!(job.specs.len(), 4);
        assert!(job.specs.iter().all(|s| s.mixes == 4 && s.quick));
        assert_eq!(job.specs[0].instructions, 1000);
        assert_eq!(job.specs[0].seed, 1);
        assert_eq!(job.specs[1].seed, 2);
        assert_eq!(job.specs[2].instructions, 2000);
        // Every grid point has a distinct digest.
        let mut digests: Vec<String> = job.specs.iter().map(|s| s.digest("c")).collect();
        digests.sort();
        digests.dedup();
        assert_eq!(digests.len(), 4);
    }

    #[test]
    fn quick_applies_registry_preset() {
        let job = parse_job("{\"experiment\":\"fig08_singlecore\",\"quick\":true}", CAP).unwrap();
        assert_eq!(job.specs[0].instructions, 200_000);
        assert!(job.specs[0].quick);
    }

    #[test]
    fn bad_submissions_are_rejected() {
        assert!(parse_job("not json", CAP).is_err());
        assert!(parse_job("{}", CAP).is_err());
        assert!(parse_job("{\"experiment\":\"nope\"}", CAP).is_err());
        assert!(parse_job("{\"experiment\":\"fig08_singlecore\",\"seeds\":[]}", CAP).is_err());
        assert!(parse_job("{\"experiment\":\"fig08_singlecore\",\"seeds\":\"x\"}", CAP).is_err());
    }

    #[test]
    fn a_grid_over_the_cap_is_refused_before_it_is_expanded() {
        let list = |n: usize| (1..=n).map(|v| v.to_string()).collect::<Vec<_>>().join(",");
        let grid = |seeds: usize| {
            format!(
                "{{\"experiment\":\"fig08_singlecore\",\"seeds\":[{}],\"mixes\":[1,2]}}",
                list(seeds)
            )
        };
        assert_eq!(parse_job(&grid(CAP / 2), CAP).unwrap().specs.len(), CAP);
        let err = parse_job(&grid(CAP / 2 + 1), CAP).unwrap_err();
        assert!(
            err.contains("258 arms") && err.contains("queue cap of 256"),
            "{err}"
        );
        // 10^9 arms from about 15 KB of body: refused without building any.
        let huge = format!(
            "{{\"experiment\":\"fig08_singlecore\",\"seeds\":[{0}],\
             \"instructions\":[{0}],\"mixes\":[{0}]}}",
            list(1000)
        );
        assert!(parse_job(&huge, CAP)
            .unwrap_err()
            .contains("1000000000 arms"));
    }

    #[test]
    fn job_status_aggregates_arms() {
        let spec = RunSpec::resolve(spec::find("fig08_singlecore").unwrap(), None, 1, None, true);
        let arm = |status, cache_hit| Arm {
            spec: spec.clone(),
            digest: spec.digest("c"),
            status,
            cache_hit,
            wall_ms: 1.0,
            error: None,
            crash: None,
        };
        let mut job = Job {
            id: 3,
            client: "a".to_string(),
            arms: vec![arm(ArmStatus::Done, true), arm(ArmStatus::Queued, false)],
            submitted_unix: 0,
            events: std::sync::Arc::new(mab_monitor::EventRing::default()),
        };
        assert_eq!(job.status(), "running");
        assert_eq!(job.finished(), 1);
        assert_eq!(job.cache_hits(), 1);
        job.arms[1].status = ArmStatus::Done;
        assert_eq!(job.status(), "done");
        let doc = mab_telemetry::json::parse(&job.to_json()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(doc.get("cache_hits").unwrap().as_u64(), Some(1));
        job.arms[0].status = ArmStatus::Failed;
        assert_eq!(job.status(), "failed");
    }
}
