//! The daemon's core: job table, fair scheduler, worker threads and the
//! cache/ledger tie-ins.
//!
//! # Scheduling
//!
//! Every submitted job expands to arms queued under the submitting
//! client's id. `workers` threads each wait on the scheduler's condition
//! variable and, whenever they are free, pull the next arm **round-robin
//! across clients** and run it themselves. The round-robin choice is
//! therefore made exactly when capacity frees up — one client's
//! thousand-arm sweep cannot starve another client's two-arm probe — and
//! at most `workers` arms are ever running. Admission is bounded:
//! when the number of admitted-but-unfinished arms would exceed
//! `queue_cap`, submission fails with [`SubmitError::QueueFull`] (HTTP
//! `429`). A job whose grid alone exceeds `queue_cap` never gets here:
//! [`crate::job::parse_job`] refuses it (HTTP `400`) before expanding it.
//!
//! # Memoization
//!
//! Before executing, a worker consults the content-addressed
//! [`Cache`] (same digest ⇒ byte-identical output, by the runner's
//! determinism discipline) and the **in-flight table**: an arm whose
//! digest is already executing subscribes to that execution instead of
//! starting its own, so two clients submitting the same sweep
//! concurrently share one run. Every completion is recorded in the run
//! ledger with the `served`/`cache_hit` circumstance fields.
//!
//! # Shutdown
//!
//! [`ServeState::shutdown`] stops the workers once each finishes its
//! current arm (its result lands in the cache), and persists the job table
//! to `jobs.json` under the cache root as `{"next_id":N,"jobs":[…]}`, each
//! element the document `GET /jobs/:id` serves. The next start rebuilds
//! the jobs with [`Job::from_json`] and requeues their unfinished arms.

use crate::cache::Cache;
use crate::exec::Executor;
use crate::job::{Arm, ArmStatus, Job, JobSpec};
use mab_experiments::spec::RunSpec;
use mab_ledger::{Append, Ledger};
use mab_monitor::http::HttpStats;
use mab_monitor::EventRing;
use mab_telemetry::json::{self, JsonValue};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing arms.
    pub workers: usize,
    /// Maximum admitted-but-unfinished arms across all clients; beyond it
    /// submissions get `429`, and a single job larger than it gets `400`.
    pub queue_cap: usize,
    /// Root of the content-addressed result cache.
    pub cache_dir: PathBuf,
    /// Run-ledger directory for `served`/`cache_hit` records (`None`
    /// disables recording).
    pub ledger_dir: Option<PathBuf>,
    /// Suppress stderr progress lines.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: mab_runner::available_jobs(),
            queue_cap: 256,
            cache_dir: PathBuf::from("cache/serve"),
            ledger_dir: None,
            quiet: false,
        }
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The daemon is shutting down (HTTP `503`).
    Draining,
    /// Admitting the job would exceed `queue_cap` (HTTP `429`).
    QueueFull,
}

/// Why an artifact could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// No such job (HTTP `404`).
    NoSuchJob,
    /// No such arm index (HTTP `404`).
    NoSuchArm,
    /// The job (or requested arm) has not finished; carries the current
    /// status (HTTP `409`).
    NotFinished(String),
    /// The cache entry vanished or failed its CRC (HTTP `503` — resubmit
    /// to recompute).
    CacheMiss(String),
}

#[derive(Default)]
struct JobTable {
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
}

#[derive(Default)]
struct Sched {
    /// Per-client FIFO queues, round-robin serviced.
    clients: Vec<(String, VecDeque<(u64, usize)>)>,
    /// Round-robin cursor into `clients`.
    rr: usize,
    /// Arms admitted and not yet terminal (the `queue_cap` measure).
    open_arms: usize,
    /// Digest → arms subscribed to an execution already in flight. The
    /// executing arm itself is not listed.
    inflight: HashMap<String, Vec<(u64, usize)>>,
    /// Worker stop flag.
    stop: bool,
}

/// Shared daemon state: everything the API surface and the workers touch.
pub struct ServeState {
    /// Static configuration.
    pub config: ServeConfig,
    /// Code version all digests are computed under.
    pub code: String,
    /// The content-addressed result store.
    pub cache: Cache,
    executor: Arc<dyn Executor>,
    jobs: Mutex<JobTable>,
    sched: Mutex<Sched>,
    sched_cv: Condvar,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    draining: AtomicBool,
    /// Global progress stream (`GET /events`).
    pub events: EventRing,
    /// Connected SSE clients (all streams).
    pub sse_clients: AtomicU64,
    /// Events dropped across slow SSE clients.
    pub sse_dropped: AtomicU64,
    /// HTTP server-core counters.
    pub http: Arc<HttpStats>,
    /// Arms executed by this daemon instance.
    pub arms_executed: AtomicU64,
    /// Arms served from the cache or an in-flight twin.
    pub arms_cached: AtomicU64,
    /// Submissions rejected with `429` at the queue cap.
    pub rejected_submissions: AtomicU64,
    /// Crash reports attributed to failed arms (`GET /crashes`).
    pub crashes: AtomicU64,
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("config", &self.config)
            .field("code", &self.code)
            .finish_non_exhaustive()
    }
}

impl ServeState {
    /// Opens the cache, restores any persisted job table, and starts
    /// `config.workers` (at least one) worker threads.
    ///
    /// # Errors
    ///
    /// Propagates cache-directory failures.
    pub fn start(
        config: ServeConfig,
        executor: Arc<dyn Executor>,
    ) -> std::io::Result<Arc<ServeState>> {
        let cache = Cache::open(&config.cache_dir)?;
        let state = Arc::new(ServeState {
            code: mab_ledger::code_version(),
            cache,
            executor,
            jobs: Mutex::new(JobTable::default()),
            sched: Mutex::new(Sched::default()),
            sched_cv: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            draining: AtomicBool::new(false),
            events: EventRing::default(),
            sse_clients: AtomicU64::new(0),
            sse_dropped: AtomicU64::new(0),
            http: Arc::new(HttpStats::default()),
            arms_executed: AtomicU64::new(0),
            arms_cached: AtomicU64::new(0),
            rejected_submissions: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            config,
        });
        let resumed = state.resume();
        if resumed > 0 {
            state.progress(&format!("resumed {resumed} unfinished arms from jobs.json"));
        }
        for n in 0..state.worker_count() {
            let worker_state = Arc::clone(&state);
            let handle = std::thread::Builder::new()
                .name(format!("mab-serve-worker-{n}"))
                .spawn(move || worker_loop(&worker_state));
            match handle {
                Ok(handle) => state.workers.lock().unwrap().push(handle),
                Err(e) => {
                    state.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(state)
    }

    /// Worker threads executing arms: `config.workers`, at least one.
    fn worker_count(&self) -> usize {
        self.config.workers.max(1)
    }

    fn progress(&self, message: &str) {
        if !self.config.quiet {
            eprintln!("[mab-serve] {message}");
        }
    }

    /// True once shutdown has begun (new submissions get `503`).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Root directory for crash reports: `<cache_dir>/crashes`. Only
    /// created when something actually crashes.
    pub fn crash_root(&self) -> PathBuf {
        self.config.cache_dir.join("crashes")
    }

    /// Per-job crash directory. Executed children get it as
    /// `--crash-dir`, so a dying arm's flight-recorder report lands
    /// where the daemon can attribute it back to the owning job.
    pub fn job_crash_dir(&self, job_id: u64) -> PathBuf {
        self.crash_root().join(format!("job-{job_id}"))
    }

    /// Admits a job: expands the grid, checks capacity, queues the arms
    /// under the client's id and returns the job id.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Draining`] during shutdown, [`SubmitError::QueueFull`]
    /// past `queue_cap`.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        if self.draining() {
            return Err(SubmitError::Draining);
        }
        let arms: Vec<Arm> = spec
            .specs
            .into_iter()
            .map(|s| Arm::new(s, &self.code))
            .collect();
        let n = arms.len();
        // Reserve capacity atomically; released per-arm at completion.
        {
            let mut sched = self.sched.lock().unwrap();
            if sched.stop {
                return Err(SubmitError::Draining);
            }
            if sched.open_arms + n > self.config.queue_cap {
                self.rejected_submissions.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::QueueFull);
            }
            sched.open_arms += n;
        }
        let id = {
            let mut jobs = self.jobs.lock().unwrap();
            let id = jobs.next_id;
            jobs.next_id += 1;
            jobs.jobs.insert(
                id,
                Job {
                    id,
                    client: spec.client.clone(),
                    arms,
                    submitted_unix: unix_now(),
                    events: Arc::new(EventRing::default()),
                },
            );
            id
        };
        self.enqueue(&spec.client, (0..n).map(|i| (id, i)));
        mab_telemetry::blackbox::job_event(id, "submitted", &format!("{n} arms"));
        self.events.publish(
            "job_submitted",
            format!(
                "{{\"job\":{id},\"client\":\"{}\",\"arms\":{n}}}",
                json::escape(&spec.client)
            ),
        );
        Ok(id)
    }

    fn enqueue(&self, client: &str, items: impl Iterator<Item = (u64, usize)>) {
        let mut sched = self.sched.lock().unwrap();
        let queue = match sched.clients.iter_mut().find(|(name, _)| name == client) {
            Some((_, queue)) => queue,
            None => {
                sched.clients.push((client.to_string(), VecDeque::new()));
                &mut sched.clients.last_mut().unwrap().1
            }
        };
        queue.extend(items);
        drop(sched);
        self.sched_cv.notify_all();
    }

    /// Renders the `GET /jobs/:id` document.
    pub fn job_json(&self, id: u64) -> Option<String> {
        self.jobs.lock().unwrap().jobs.get(&id).map(Job::to_json)
    }

    /// The per-job event ring for `GET /jobs/:id/events`.
    pub fn job_events(&self, id: u64) -> Option<Arc<EventRing>> {
        self.jobs
            .lock()
            .unwrap()
            .jobs
            .get(&id)
            .map(|job| Arc::clone(&job.events))
    }

    /// Fetches a finished job's artifact: the exact stdout of the single
    /// arm (`arm` = `None` on one-arm jobs), one selected arm, or all arm
    /// reports concatenated with `=== arm N <digest> ===` separators.
    ///
    /// # Errors
    ///
    /// See [`ArtifactError`].
    pub fn artifact(&self, id: u64, arm: Option<usize>) -> Result<String, ArtifactError> {
        let targets: Vec<(usize, String)> = {
            let jobs = self.jobs.lock().unwrap();
            let job = jobs.jobs.get(&id).ok_or(ArtifactError::NoSuchJob)?;
            match arm {
                Some(i) => {
                    let arm = job.arms.get(i).ok_or(ArtifactError::NoSuchArm)?;
                    if arm.status != ArmStatus::Done {
                        return Err(ArtifactError::NotFinished(arm.status.name().to_string()));
                    }
                    vec![(i, arm.digest.clone())]
                }
                None => {
                    if job.status() != "done" {
                        return Err(ArtifactError::NotFinished(job.status().to_string()));
                    }
                    job.arms
                        .iter()
                        .enumerate()
                        .map(|(i, a)| (i, a.digest.clone()))
                        .collect()
                }
            }
        };
        let mut out = String::new();
        let single = targets.len() == 1;
        for (i, digest) in targets {
            let report = self
                .cache
                .lookup(&digest)
                .ok_or_else(|| ArtifactError::CacheMiss(digest.clone()))?;
            if single {
                return Ok(report);
            }
            out.push_str(&format!("=== arm {i} {digest} ===\n"));
            out.push_str(&report);
        }
        Ok(out)
    }

    /// Renders the `GET /queue` global view.
    pub fn queue_json(&self) -> String {
        let (queued_by_client, open_arms, inflight) = {
            let sched = self.sched.lock().unwrap();
            let by_client: Vec<(String, usize)> = sched
                .clients
                .iter()
                .filter(|(_, q)| !q.is_empty())
                .map(|(name, q)| (name.clone(), q.len()))
                .collect();
            (by_client, sched.open_arms, sched.inflight.len())
        };
        let mut out = format!(
            "{{\"code\":\"{}\",\"workers\":{},\"queue_cap\":{},\"draining\":{},\
             \"open_arms\":{open_arms},\"inflight\":{inflight},\
             \"arms_executed\":{},\"arms_cached\":{},\"crashes\":{},\
             \"rejected_submissions\":{},\"cache_entries\":{},\"queued\":{{",
            json::escape(&self.code),
            self.worker_count(),
            self.config.queue_cap,
            self.draining(),
            self.arms_executed.load(Ordering::Relaxed),
            self.arms_cached.load(Ordering::Relaxed),
            self.crashes.load(Ordering::Relaxed),
            self.rejected_submissions.load(Ordering::Relaxed),
            self.cache.entries(),
        );
        for (i, (client, n)) in queued_by_client.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{n}", json::escape(client)));
        }
        out.push_str("},\"jobs\":[");
        let jobs = self.jobs.lock().unwrap();
        for (i, job) in jobs.jobs.values().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&job.summary_json());
        }
        out.push_str("]}");
        out
    }

    /// Renders the `GET /crashes` listing: every `.mabcrash` report under
    /// the crash root, newest first, attributed to its owning job (the
    /// `job-<id>` subdirectory it landed in; `null` for daemon-level
    /// reports in the root itself).
    pub fn crashes_json(&self) -> String {
        let root = self.crash_root();
        // (modified_unix, job id, path, bytes)
        let mut rows: Vec<(u64, Option<u64>, String, u64)> = Vec::new();
        let scan = |dir: &PathBuf, job: Option<u64>, rows: &mut Vec<_>| {
            for path in crash_reports_in(dir) {
                let meta = std::fs::metadata(&path).ok();
                let bytes = meta.as_ref().map_or(0, std::fs::Metadata::len);
                let modified = meta
                    .and_then(|m| m.modified().ok())
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map_or(0, |d| d.as_secs());
                rows.push((modified, job, path, bytes));
            }
        };
        scan(&root, None, &mut rows);
        if let Ok(entries) = std::fs::read_dir(&root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if let Some(id) = name
                    .to_str()
                    .and_then(|n| n.strip_prefix("job-"))
                    .and_then(|n| n.parse::<u64>().ok())
                {
                    scan(&entry.path(), Some(id), &mut rows);
                }
            }
        }
        rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.2.cmp(&b.2)));
        let mut out = format!(
            "{{\"crash_dir\":\"{}\",\"count\":{},\"crashes\":[",
            json::escape(&root.display().to_string()),
            rows.len(),
        );
        for (i, (modified, job, path, bytes)) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"job\":{},\"report\":\"{}\",\"bytes\":{bytes},\"modified_unix\":{modified}}}",
                job.map_or("null".to_string(), |id| id.to_string()),
                json::escape(path),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Renders the Prometheus exposition page for `GET /metrics`, using
    /// the monitor's writer so both planes share one set of conventions.
    pub fn metrics_page(&self) -> String {
        use mab_monitor::metrics::{counter, gauge};
        let (queued, open_arms, inflight) = {
            let sched = self.sched.lock().unwrap();
            let queued: usize = sched.clients.iter().map(|(_, q)| q.len()).sum();
            (queued, sched.open_arms, sched.inflight.len())
        };
        let jobs = self.jobs.lock().unwrap().jobs.len();
        let mut out = String::with_capacity(2048);
        gauge(
            &mut out,
            "mab_serve_workers",
            "Executor worker threads.",
            self.worker_count() as f64,
        );
        gauge(
            &mut out,
            "mab_serve_queue_cap",
            "Maximum admitted-but-unfinished arms.",
            self.config.queue_cap as f64,
        );
        gauge(
            &mut out,
            "mab_serve_queue_depth",
            "Arms waiting in client queues.",
            queued as f64,
        );
        gauge(
            &mut out,
            "mab_serve_open_arms",
            "Admitted arms not yet terminal.",
            open_arms as f64,
        );
        gauge(
            &mut out,
            "mab_serve_inflight",
            "Distinct digests currently executing.",
            inflight as f64,
        );
        gauge(
            &mut out,
            "mab_serve_jobs",
            "Jobs in the job table.",
            jobs as f64,
        );
        gauge(
            &mut out,
            "mab_serve_draining",
            "1 once shutdown has begun.",
            if self.draining() { 1.0 } else { 0.0 },
        );
        counter(
            &mut out,
            "mab_serve_cache_hits_total",
            "Arms served from the cache or an in-flight twin.",
            self.arms_cached.load(Ordering::Relaxed) as f64,
        );
        counter(
            &mut out,
            "mab_serve_cache_misses_total",
            "Arms executed because no cached result existed.",
            self.arms_executed.load(Ordering::Relaxed) as f64,
        );
        gauge(
            &mut out,
            "mab_serve_cache_entries",
            "Entries in the content-addressed cache.",
            self.cache.entries() as f64,
        );
        counter(
            &mut out,
            "mab_serve_rejected_submissions_total",
            "Submissions rejected with 429 at the queue cap.",
            self.rejected_submissions.load(Ordering::Relaxed) as f64,
        );
        counter(
            &mut out,
            "mab_serve_crashes_total",
            "Crash reports attributed to failed arms.",
            self.crashes.load(Ordering::Relaxed) as f64,
        );
        gauge(
            &mut out,
            "mab_serve_sse_clients",
            "Currently connected SSE clients.",
            self.sse_clients.load(Ordering::Relaxed) as f64,
        );
        counter(
            &mut out,
            "mab_serve_sse_dropped_total",
            "Events dropped across slow SSE clients.",
            self.sse_dropped.load(Ordering::Relaxed) as f64,
        );
        out
    }

    /// Graceful shutdown: stop the workers once each finishes its current
    /// arm (its result lands in the cache), then persist the job table for
    /// resume. Idempotent.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.sched.lock().unwrap().stop = true;
        self.sched_cv.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in workers {
            if handle.join().is_err() {
                self.progress("a worker thread panicked");
            }
        }
        match self.persist() {
            Ok(unfinished) => {
                if unfinished > 0 {
                    self.progress(&format!(
                        "persisted {unfinished} unfinished arms to jobs.json for resume"
                    ));
                }
            }
            Err(e) => self.progress(&format!("persisting job table failed: {e}")),
        }
    }

    /// Writes the job table to `jobs.json` under the cache root (atomic
    /// tmp+rename): `{"next_id":N,"jobs":[…]}`, each element a job's
    /// [`Job::to_json`] document. Returns the number of unfinished arms.
    fn persist(&self) -> std::io::Result<usize> {
        let jobs = self.jobs.lock().unwrap();
        let docs: Vec<String> = jobs.jobs.values().map(Job::to_json).collect();
        let unfinished = jobs
            .jobs
            .values()
            .flat_map(|job| &job.arms)
            .filter(|arm| !arm.status.is_terminal())
            .count();
        let out = format!(
            "{{\"next_id\":{},\"jobs\":[{}]}}\n",
            jobs.next_id,
            docs.join(",")
        );
        let path = self.cache.root().join("jobs.json");
        let tmp = self.cache.root().join(".jobs.json.tmp");
        std::fs::write(&tmp, out)?;
        std::fs::rename(&tmp, &path)?;
        Ok(unfinished)
    }

    /// Restores `jobs.json` if present: each job is rebuilt by
    /// [`Job::from_json`] and its queued arms re-enter their client's
    /// queue. A document that is not a job is dropped, and so is a job
    /// whose id is taken or has no successor, since requeuing it could
    /// point a worker at another job's arms. `next_id` ends past every
    /// id. Returns the number of re-enqueued arms.
    fn resume(&self) -> usize {
        let path = self.cache.root().join("jobs.json");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return 0;
        };
        let Ok(doc) = json::parse(text.trim()) else {
            self.progress("jobs.json is unreadable; starting fresh");
            let _ = std::fs::remove_file(&path);
            return 0;
        };
        let mut pending: Vec<(String, Vec<(u64, usize)>)> = Vec::new();
        {
            let mut jobs = self.jobs.lock().unwrap();
            jobs.next_id = doc.get("next_id").and_then(JsonValue::as_u64).unwrap_or(0);
            let docs = doc.get("jobs").and_then(JsonValue::as_arr).unwrap_or(&[]);
            for job in docs.iter().filter_map(|d| Job::from_json(d, &self.code)) {
                let Some(after) = job.id.checked_add(1) else {
                    continue;
                };
                if jobs.jobs.contains_key(&job.id) {
                    continue;
                }
                let queued: Vec<(u64, usize)> = (0..job.arms.len())
                    .filter(|&i| job.arms[i].status == ArmStatus::Queued)
                    .map(|i| (job.id, i))
                    .collect();
                if !queued.is_empty() {
                    pending.push((job.client.clone(), queued));
                }
                jobs.next_id = jobs.next_id.max(after);
                jobs.jobs.insert(job.id, job);
            }
        }
        let requeued = pending.iter().map(|(_, items)| items.len()).sum();
        self.sched.lock().unwrap().open_arms += requeued;
        for (client, items) in pending {
            self.enqueue(&client, items.into_iter());
        }
        let _ = std::fs::remove_file(&path);
        requeued
    }

    /// Records one completed arm in the run ledger (when configured) with
    /// the `served`/`cache_hit` circumstance fields. Identical resubmits
    /// dedup against the existing record, so the ledger stays one line per
    /// identity.
    fn record_arm(&self, spec: &RunSpec, label: &str, cache_hit: bool) {
        let Some(dir) = &self.config.ledger_dir else {
            return;
        };
        let mut record = spec.identity_record(&self.code);
        record.started_unix = unix_now();
        record.served = Some(label.to_string());
        record.cache_hit = cache_hit;
        match Ledger::open(dir).and_then(|ledger| ledger.record(&record)) {
            Ok(Append::Recorded(_)) | Ok(Append::Deduplicated(_)) => {}
            Err(e) => self.progress(&format!("ledger append failed: {e}")),
        }
    }

    fn mark_running(&self, job_id: u64, arm_idx: usize) {
        let (digest, job_events) = {
            let mut jobs = self.jobs.lock().unwrap();
            let Some(job) = jobs.jobs.get_mut(&job_id) else {
                return;
            };
            job.arms[arm_idx].status = ArmStatus::Running;
            (job.arms[arm_idx].digest.clone(), Arc::clone(&job.events))
        };
        mab_telemetry::blackbox::job_event(job_id, "arm_start", &digest);
        self.publish(
            &job_events,
            "arm_start",
            format!("{{\"job\":{job_id},\"index\":{arm_idx},\"digest\":\"{digest}\"}}"),
        );
    }

    /// Publishes one progress event on the job's stream and the global one.
    fn publish(&self, job_events: &EventRing, event: &'static str, payload: String) {
        job_events.publish(event, payload.clone());
        self.events.publish(event, payload);
    }

    fn complete_arm(
        &self,
        job_id: u64,
        arm_idx: usize,
        cache_hit: bool,
        wall_ms: f64,
        error: Option<String>,
    ) {
        let failed = error.is_some();
        // A failed execution may have left a flight-recorder report in the
        // job's crash directory (newest first); claim the first one no
        // other arm of this job owns yet.
        let candidates = if failed {
            crash_reports_in(&self.job_crash_dir(job_id))
        } else {
            Vec::new()
        };
        let completion = {
            let mut jobs = self.jobs.lock().unwrap();
            let Some(job) = jobs.jobs.get_mut(&job_id) else {
                return;
            };
            let crash = candidates.into_iter().find(|p| {
                !job.arms
                    .iter()
                    .any(|a| a.crash.as_deref() == Some(p.as_str()))
            });
            let arm = &mut job.arms[arm_idx];
            arm.status = if failed {
                ArmStatus::Failed
            } else {
                ArmStatus::Done
            };
            arm.cache_hit = cache_hit;
            arm.wall_ms = wall_ms;
            arm.error = error;
            arm.crash = crash.clone();
            let spec = arm.spec.clone();
            let digest = arm.digest.clone();
            let label = format!("{}:{}", job.client, job.id);
            let finished = job
                .arms
                .iter()
                .all(|a| a.status.is_terminal())
                .then(|| (job.status(), job.cache_hits()));
            (
                spec,
                digest,
                label,
                Arc::clone(&job.events),
                finished,
                crash,
            )
        };
        let (spec, digest, label, job_events, finished, crash) = completion;
        if !failed {
            self.record_arm(&spec, &label, cache_hit);
        }
        mab_telemetry::blackbox::job_event(
            job_id,
            if failed { "arm_failed" } else { "arm_done" },
            &digest,
        );
        self.publish(
            &job_events,
            "arm_done",
            format!(
                "{{\"job\":{job_id},\"index\":{arm_idx},\"digest\":\"{digest}\",\
                 \"cache_hit\":{cache_hit},\"status\":\"{}\"}}",
                if failed { "failed" } else { "done" }
            ),
        );
        if let Some(report) = crash {
            self.crashes.fetch_add(1, Ordering::Relaxed);
            self.progress(&format!(
                "arm {arm_idx} of job {job_id} crashed; postmortem: mab-inspect postmortem {report}"
            ));
            self.publish(
                &job_events,
                "arm_crash",
                format!(
                    "{{\"job\":{job_id},\"index\":{arm_idx},\"report\":\"{}\"}}",
                    json::escape(&report)
                ),
            );
        }
        if let Some((status, hits)) = finished {
            self.publish(
                &job_events,
                "job_done",
                format!("{{\"job\":{job_id},\"status\":\"{status}\",\"cache_hits\":{hits}}}"),
            );
        }
        let mut sched = self.sched.lock().unwrap();
        sched.open_arms = sched.open_arms.saturating_sub(1);
    }

    /// Handles one scheduled arm on the calling worker: cache hit,
    /// in-flight subscription, or execution.
    fn process(&self, job_id: u64, arm_idx: usize) {
        let started = Instant::now();
        let (spec, digest) = {
            let jobs = self.jobs.lock().unwrap();
            let Some(job) = jobs.jobs.get(&job_id) else {
                return;
            };
            let arm = &job.arms[arm_idx];
            (arm.spec.clone(), arm.digest.clone())
        };
        // 1. Published result on disk?
        if self.cache.lookup(&digest).is_some() {
            self.arms_cached.fetch_add(1, Ordering::Relaxed);
            self.complete_arm(job_id, arm_idx, true, elapsed_ms(started), None);
            return;
        }
        // 2. Identical arm already executing? Subscribe instead of racing.
        {
            let mut sched = self.sched.lock().unwrap();
            if let Some(subscribers) = sched.inflight.get_mut(&digest) {
                subscribers.push((job_id, arm_idx));
                drop(sched);
                self.mark_running(job_id, arm_idx);
                return;
            }
            sched.inflight.insert(digest.clone(), Vec::new());
        }
        // 3. Execute here, on this worker.
        self.mark_running(job_id, arm_idx);
        let result = self.executor.run(&spec, &self.job_crash_dir(job_id));
        let wall_ms = elapsed_ms(started);
        // Store while the digest is still in flight, so an identical arm
        // scheduled meanwhile subscribes or hits the cache instead of
        // executing again.
        if let Ok(report) = &result {
            if let Err(e) = self.cache.store(&digest, report) {
                self.progress(&format!("cache store for {digest} failed: {e}"));
            }
        }
        let subscribers = {
            let mut sched = self.sched.lock().unwrap();
            sched.inflight.remove(&digest).unwrap_or_default()
        };
        match result {
            Ok(_) => {
                self.arms_executed.fetch_add(1, Ordering::Relaxed);
                self.complete_arm(job_id, arm_idx, false, wall_ms, None);
                for (sub_job, sub_arm) in subscribers {
                    self.arms_cached.fetch_add(1, Ordering::Relaxed);
                    self.complete_arm(sub_job, sub_arm, true, wall_ms, None);
                }
            }
            Err(message) => {
                self.complete_arm(job_id, arm_idx, false, wall_ms, Some(message.clone()));
                for (sub_job, sub_arm) in subscribers {
                    self.complete_arm(
                        sub_job,
                        sub_arm,
                        false,
                        wall_ms,
                        Some(format!("shared execution failed: {message}")),
                    );
                }
            }
        }
    }
}

/// One worker: waits until the scheduler yields an arm (round-robin across
/// clients) or shutdown begins, runs it, and repeats.
fn worker_loop(state: &ServeState) {
    loop {
        let (job_id, arm_idx) = {
            let mut sched = state.sched.lock().unwrap();
            loop {
                if sched.stop {
                    return;
                }
                if let Some(item) = pick_round_robin(&mut sched) {
                    break item;
                }
                sched = state.sched_cv.wait(sched).unwrap();
            }
        };
        state.process(job_id, arm_idx);
    }
}

/// Pops the next arm round-robin across client queues, pruning emptied
/// queues.
fn pick_round_robin(sched: &mut Sched) -> Option<(u64, usize)> {
    let n = sched.clients.len();
    for k in 0..n {
        let i = (sched.rr + k) % n;
        if let Some(item) = sched.clients[i].1.pop_front() {
            if sched.clients[i].1.is_empty() {
                sched.clients.remove(i);
                sched.rr = if sched.clients.is_empty() {
                    0
                } else {
                    i % sched.clients.len()
                };
            } else {
                sched.rr = (i + 1) % n;
            }
            return Some(item);
        }
    }
    None
}

/// Lists the `.mabcrash` reports directly inside `dir`, newest first.
/// Missing directories (nothing ever crashed) yield an empty list.
fn crash_reports_in(dir: &PathBuf) -> Vec<String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut reports: Vec<(std::time::SystemTime, String)> = entries
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("mabcrash") {
                return None;
            }
            let modified = entry
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(std::time::UNIX_EPOCH);
            Some((modified, path.display().to_string()))
        })
        .collect();
    reports.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    reports.into_iter().map(|(_, path)| path).collect()
}

fn elapsed_ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Seconds since the Unix epoch (0 when the clock is unavailable).
fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_interleaves_clients() {
        let mut sched = Sched::default();
        sched
            .clients
            .push(("a".to_string(), VecDeque::from([(1, 0), (1, 1), (1, 2)])));
        sched
            .clients
            .push(("b".to_string(), VecDeque::from([(2, 0)])));
        sched
            .clients
            .push(("c".to_string(), VecDeque::from([(3, 0), (3, 1)])));
        let mut order = Vec::new();
        while let Some(item) = pick_round_robin(&mut sched) {
            order.push(item);
        }
        // a b c a c a — each pass takes one arm per client with work left.
        assert_eq!(order, vec![(1, 0), (2, 0), (3, 0), (1, 1), (3, 1), (1, 2)]);
        assert!(sched.clients.is_empty());
    }
}
