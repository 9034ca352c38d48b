//! End-to-end tests for the serve daemon: real HTTP server, real scheduler
//! and cache, stub executors instead of experiment binaries.

use mab_monitor::client::{self, SseClient};
use mab_monitor::http;
use mab_serve::{api, Executor, ServeConfig, ServeState};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Deterministic stub: report derived from the spec, optional artificial
/// latency, run counting.
struct StubExecutor {
    runs: AtomicUsize,
    delay: Duration,
}

impl StubExecutor {
    fn new(delay: Duration) -> Arc<StubExecutor> {
        Arc::new(StubExecutor {
            runs: AtomicUsize::new(0),
            delay,
        })
    }

    fn runs(&self) -> usize {
        self.runs.load(Ordering::SeqCst)
    }
}

impl Executor for StubExecutor {
    fn run(
        &self,
        spec: &mab_experiments::spec::RunSpec,
        _crash_dir: &std::path::Path,
    ) -> Result<String, String> {
        std::thread::sleep(self.delay);
        self.runs.fetch_add(1, Ordering::SeqCst);
        Ok(format!(
            "report {} i={} s={} m={}\n",
            spec.experiment, spec.instructions, spec.seed, spec.mixes
        ))
    }
}

/// Seed of the one arm [`GateExecutor`] holds.
const GATE_SEED: u64 = 1_000;

/// Finishes every arm at once except the one with seed [`GATE_SEED`],
/// which it announces on `started` and holds until the test drops the
/// sender of `release`.
struct GateExecutor {
    started: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Executor for GateExecutor {
    fn run(
        &self,
        spec: &mab_experiments::spec::RunSpec,
        _crash_dir: &std::path::Path,
    ) -> Result<String, String> {
        if spec.seed == GATE_SEED {
            self.started.lock().unwrap().send(()).ok();
            self.release.lock().unwrap().recv().ok();
        }
        Ok(format!("seed={}\n", spec.seed))
    }
}

struct TestServer {
    state: Arc<ServeState>,
    server: http::ServerHandle,
    url: String,
    dir: PathBuf,
}

impl TestServer {
    fn start(
        tag: &str,
        executor: Arc<StubExecutor>,
        workers: usize,
        queue_cap: usize,
    ) -> TestServer {
        TestServer::start_with(tag, executor, workers, queue_cap)
    }

    fn start_with(
        tag: &str,
        executor: Arc<dyn Executor>,
        workers: usize,
        queue_cap: usize,
    ) -> TestServer {
        let dir = std::env::temp_dir().join(format!("mab-serve-e2e-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = ServeConfig {
            workers,
            queue_cap,
            cache_dir: dir.join("cache"),
            ledger_dir: Some(dir.join("ledger")),
            quiet: true,
        };
        let state = ServeState::start(config, executor).unwrap();
        let handler_state = Arc::clone(&state);
        let server = http::serve_with(
            "127.0.0.1:0",
            "serve-e2e",
            Arc::clone(&state.http),
            Arc::new(AtomicBool::new(false)),
            Arc::new(move |req, conn| api::route(&handler_state, req, conn)),
        )
        .unwrap();
        let url = format!("http://{}", server.addr());
        TestServer {
            state,
            server,
            url,
            dir,
        }
    }

    fn post_job(&self, body: &str) -> client::HttpResponse {
        client::post(&format!("{}/jobs", self.url), body, Duration::from_secs(5)).unwrap()
    }

    fn get(&self, path: &str) -> client::HttpResponse {
        client::get(&format!("{}{path}", self.url), Duration::from_secs(5)).unwrap()
    }

    /// Polls `GET /jobs/:id` until the job reaches a terminal status.
    fn wait_done(&self, id: u64) -> mab_telemetry::json::JsonValue {
        for _ in 0..400 {
            let resp = self.get(&format!("/jobs/{id}"));
            assert_eq!(resp.status, 200, "{}", resp.body);
            let doc = mab_telemetry::json::parse(resp.body.trim()).unwrap();
            let status = doc
                .get("status")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string();
            if status == "done" || status == "failed" {
                return doc;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        panic!("job {id} never finished");
    }

    fn stop(self) -> PathBuf {
        let TestServer {
            state,
            mut server,
            dir,
            ..
        } = self;
        state.shutdown();
        server.shutdown();
        dir
    }
}

fn job_id(resp: &client::HttpResponse) -> u64 {
    assert_eq!(resp.status, 200, "{}", resp.body);
    mab_telemetry::json::parse(resp.body.trim())
        .unwrap()
        .get("id")
        .and_then(|v| v.as_u64())
        .unwrap()
}

#[test]
fn submit_fetch_and_resubmit_hits_cache() {
    let executor = StubExecutor::new(Duration::ZERO);
    let srv = TestServer::start("roundtrip", Arc::clone(&executor), 2, 64);

    let resp = srv.post_job(
        "{\"experiment\":\"fig08_singlecore\",\"client\":\"t1\",\"seeds\":[1,2],\"quick\":true}",
    );
    let id = job_id(&resp);
    let doc = srv.wait_done(id);
    assert_eq!(doc.get("cache_hits").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(executor.runs(), 2);

    // Per-arm artifact is the executor's exact bytes.
    let arm0 = srv.get(&format!("/jobs/{id}/artifact?arm=0"));
    assert_eq!(arm0.status, 200);
    assert_eq!(arm0.body, "report fig08_singlecore i=200000 s=1 m=0\n");
    // Whole-job artifact concatenates with arm headers.
    let all = srv.get(&format!("/jobs/{id}/artifact"));
    assert!(all.body.starts_with("=== arm 0 "));
    assert!(all.body.contains("s=1"));
    assert!(all.body.contains("s=2"));

    // The ledger recorded one served line per arm, no cache hits yet.
    let ledger = mab_ledger::Ledger::open(srv.dir.join("ledger")).unwrap();
    let records = ledger.read_all().unwrap().records;
    assert_eq!(records.len(), 2);
    assert!(records
        .iter()
        .all(|r| r.served.as_deref() == Some("t1:0") && !r.cache_hit));

    // Identical resubmission: zero new executions, everything cache-served,
    // ledger dedups (no growth).
    let resp = srv.post_job(
        "{\"experiment\":\"fig08_singlecore\",\"client\":\"t2\",\"seeds\":[1,2],\"quick\":true}",
    );
    let id2 = job_id(&resp);
    let doc = srv.wait_done(id2);
    assert_eq!(doc.get("cache_hits").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(executor.runs(), 2);
    let arm0_again = srv.get(&format!("/jobs/{id2}/artifact?arm=0"));
    assert_eq!(arm0_again.body, arm0.body);
    assert_eq!(ledger.read_all().unwrap().records.len(), 2);

    let queue = srv.get("/queue");
    let qdoc = mab_telemetry::json::parse(queue.body.trim()).unwrap();
    assert_eq!(qdoc.get("arms_executed").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(qdoc.get("arms_cached").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(qdoc.get("cache_entries").and_then(|v| v.as_u64()), Some(2));

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn concurrent_identical_submissions_share_one_execution() {
    let executor = StubExecutor::new(Duration::from_millis(300));
    let srv = TestServer::start("inflight", Arc::clone(&executor), 2, 64);

    let body_a =
        "{\"experiment\":\"fig12_multilevel\",\"client\":\"alice\",\"seeds\":9,\"quick\":true}";
    let body_b =
        "{\"experiment\":\"fig12_multilevel\",\"client\":\"bob\",\"seeds\":9,\"quick\":true}";
    let id_a = job_id(&srv.post_job(body_a));
    let id_b = job_id(&srv.post_job(body_b));

    let doc_a = srv.wait_done(id_a);
    let doc_b = srv.wait_done(id_b);
    // Exactly one execution; the second arm subscribed to the first.
    assert_eq!(executor.runs(), 1);
    let hits_a = doc_a.get("cache_hits").and_then(|v| v.as_u64()).unwrap();
    let hits_b = doc_b.get("cache_hits").and_then(|v| v.as_u64()).unwrap();
    assert_eq!(hits_a + hits_b, 1);
    // Both serve identical bytes.
    let art_a = srv.get(&format!("/jobs/{id_a}/artifact"));
    let art_b = srv.get(&format!("/jobs/{id_b}/artifact"));
    assert_eq!(art_a.body, art_b.body);

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn corrupt_cache_entries_are_recomputed_not_served() {
    let executor = StubExecutor::new(Duration::ZERO);
    let srv = TestServer::start("corrupt", Arc::clone(&executor), 1, 64);

    let body = "{\"experiment\":\"fig09_accuracy\",\"client\":\"c\",\"seeds\":3,\"quick\":true}";
    let id = job_id(&srv.post_job(body));
    srv.wait_done(id);
    assert_eq!(executor.runs(), 1);
    let good = srv.get(&format!("/jobs/{id}/artifact")).body;

    // Flip bytes in the stored report without touching its length.
    let digest = {
        let doc = mab_telemetry::json::parse(srv.get(&format!("/jobs/{id}")).body.trim()).unwrap();
        let arms = doc
            .get("arms")
            .and_then(|v| v.as_arr().map(<[_]>::to_vec))
            .unwrap();
        arms[0]
            .get("digest")
            .and_then(|v| v.as_str())
            .unwrap()
            .to_string()
    };
    let entry_path = srv.dir.join("cache").join(format!("{digest}.report"));
    let entry = std::fs::read_to_string(&entry_path).unwrap();
    let (header, report) = entry.split_once('\n').unwrap();
    assert_eq!(report, good);
    let corrupted: String = good.chars().rev().collect();
    std::fs::write(&entry_path, format!("{header}\n{corrupted}")).unwrap();

    // The artifact endpoint refuses to serve the corrupt entry.
    let resp = srv.get(&format!("/jobs/{id}/artifact"));
    assert_eq!(resp.status, 503, "{}", resp.body);

    // A resubmission recomputes instead of serving the corrupt bytes.
    let id2 = job_id(&srv.post_job(body));
    let doc = srv.wait_done(id2);
    assert_eq!(doc.get("cache_hits").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(executor.runs(), 2);
    assert_eq!(srv.get(&format!("/jobs/{id2}/artifact")).body, good);

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn queue_cap_rejects_with_429() {
    let executor = StubExecutor::new(Duration::from_millis(400));
    let srv = TestServer::start("backpressure", Arc::clone(&executor), 1, 2);

    let first = srv.post_job(
        "{\"experiment\":\"fig10_bandwidth\",\"client\":\"a\",\"seeds\":[1,2],\"quick\":true}",
    );
    let id = job_id(&first);
    // Queue is at capacity (2 open arms): the next submission bounces.
    let rejected = srv.post_job(
        "{\"experiment\":\"fig10_bandwidth\",\"client\":\"b\",\"seeds\":7,\"quick\":true}",
    );
    assert_eq!(rejected.status, 429, "{}", rejected.body);

    // Capacity frees as arms finish; the retry is accepted.
    srv.wait_done(id);
    let retried = srv.post_job(
        "{\"experiment\":\"fig10_bandwidth\",\"client\":\"b\",\"seeds\":7,\"quick\":true}",
    );
    assert_eq!(retried.status, 200, "{}", retried.body);
    srv.wait_done(job_id(&retried));

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_grid_larger_than_the_queue_cap_gets_400_not_429() {
    let executor = StubExecutor::new(Duration::ZERO);
    let srv = TestServer::start("grid-cap", Arc::clone(&executor), 1, 2);

    // Three arms on an empty two-arm queue: no amount of waiting admits it.
    let resp = srv.post_job(
        "{\"experiment\":\"fig10_bandwidth\",\"client\":\"a\",\"seeds\":[1,2,3],\"quick\":true}",
    );
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("queue cap of 2"), "{}", resp.body);
    assert_eq!(executor.runs(), 0);
    let qdoc = mab_telemetry::json::parse(srv.get("/queue").body.trim()).unwrap();
    assert_eq!(
        qdoc.get("rejected_submissions").and_then(|v| v.as_u64()),
        Some(0)
    );

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn settings_are_refused_where_the_experiment_reads_none() {
    let executor = StubExecutor::new(Duration::ZERO);
    let srv = TestServer::start("mixes", Arc::clone(&executor), 1, 8);

    for (body, error) in [
        (
            "{\"experiment\":\"fig09_accuracy\",\"mixes\":2,\"quick\":true}",
            "takes no mix cap",
        ),
        (
            "{\"experiment\":\"tab_storage\",\"seeds\":[1,2,3]}",
            "takes no instruction count or seed",
        ),
        (
            "{\"experiment\":\"tab_storage\",\"instructions\":5000}",
            "takes no instruction count or seed",
        ),
    ] {
        let resp = srv.post_job(body);
        assert_eq!(resp.status, 400, "{body}: {}", resp.body);
        assert!(resp.body.contains(error), "{body}: {}", resp.body);
    }
    let id = job_id(&srv.post_job(
        "{\"experiment\":\"fig13_smt_scurve\",\"seeds\":[1,2],\"mixes\":[2,3],\"quick\":true}",
    ));
    let doc = srv.wait_done(id);
    assert_eq!(doc.get("arms_total").and_then(|v| v.as_u64()), Some(4));
    assert_eq!(executor.runs(), 4);
    let last = srv.get(&format!("/jobs/{id}/artifact?arm=3")).body;
    assert_eq!(last, "report fig13_smt_scurve i=10000 s=2 m=3\n");
    // tab_storage reads no size: `quick` names the run it names without.
    for (body, hits) in [
        ("{\"experiment\":\"tab_storage\"}", 0),
        ("{\"experiment\":\"tab_storage\",\"quick\":true}", 1),
    ] {
        let doc = srv.wait_done(job_id(&srv.post_job(body)));
        assert_eq!(doc.get("cache_hits").and_then(|v| v.as_u64()), Some(hits));
    }
    assert_eq!(executor.runs(), 5);

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_deeply_nested_body_gets_400_and_the_daemon_keeps_serving() {
    let executor = StubExecutor::new(Duration::ZERO);
    let srv = TestServer::start("deep-body", Arc::clone(&executor), 1, 8);

    // Parsed on a connection thread's 2 MiB stack; without the parser's
    // depth limit it overflows that stack and aborts the whole process.
    let resp = srv.post_job(&"[".repeat(10_000));
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);
    let health = srv.get("/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn per_job_sse_streams_progress_to_job_done() {
    let executor = StubExecutor::new(Duration::from_millis(500));
    let srv = TestServer::start("sse", Arc::clone(&executor), 1, 64);

    let id = job_id(&srv.post_job(
        "{\"experiment\":\"fig11_altcache\",\"client\":\"s\",\"seeds\":5,\"quick\":true}",
    ));
    let mut sse = SseClient::connect(
        &format!("{}/jobs/{id}/events", srv.url),
        Duration::from_secs(5),
    )
    .unwrap();
    let mut saw_arm_done = false;
    let mut saw_job_done = false;
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline && !saw_job_done {
        match sse.next_frame() {
            Ok(Some(frame)) => {
                if frame.event == "arm_done" {
                    assert!(frame.data.contains("\"cache_hit\":false"), "{}", frame.data);
                    saw_arm_done = true;
                }
                if frame.event == "job_done" {
                    assert!(frame.data.contains("\"status\":\"done\""), "{}", frame.data);
                    saw_job_done = true;
                }
            }
            Ok(None) => break,
            Err(_) => {}
        }
    }
    assert!(saw_arm_done, "never saw arm_done on the job stream");
    assert!(saw_job_done, "never saw job_done on the job stream");

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

/// Dies on every arm: writes a CRC-framed `.mabcrash` report into the
/// per-job crash directory (exactly what a crashing experiment binary
/// leaves behind) and reports failure.
struct CrashingExecutor;

impl Executor for CrashingExecutor {
    fn run(
        &self,
        spec: &mab_experiments::spec::RunSpec,
        crash_dir: &std::path::Path,
    ) -> Result<String, String> {
        std::fs::create_dir_all(crash_dir).unwrap();
        let body = format!(
            "{{\"kind\":\"crash\",\"cause\":\"panic\",\"message\":\"injected\",\
             \"thread\":\"main\",\"time_unix\":0,\"experiment\":\"{}\",\"digest\":\"d\"}}\n",
            spec.experiment
        );
        let header = format!(
            "{} {:08x} {}\n",
            mab_telemetry::blackbox::MAGIC,
            mab_telemetry::crc32(body.as_bytes()),
            body.lines().count()
        );
        std::fs::write(
            crash_dir.join(format!("crash-0-{}-0.mabcrash", spec.seed)),
            format!("{header}{body}"),
        )
        .unwrap();
        Err("simulated crash".to_string())
    }
}

#[test]
fn crashed_arms_are_attributed_and_exposed() {
    let srv = TestServer::start_with("crash", Arc::new(CrashingExecutor), 1, 64);

    let id = job_id(&srv.post_job(
        "{\"experiment\":\"fig08_singlecore\",\"client\":\"c\",\"seeds\":7,\"quick\":true}",
    ));
    let doc = srv.wait_done(id);
    assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("failed"));

    // The failing arm carries its crash report path, and the report is a
    // valid flight-recorder dump.
    let arms = doc
        .get("arms")
        .and_then(|v| v.as_arr().map(<[_]>::to_vec))
        .unwrap();
    let report = arms[0]
        .get("crash")
        .and_then(|v| v.as_str())
        .expect("failed arm has crash attribution")
        .to_string();
    let parsed = mab_telemetry::blackbox::read_report(std::path::Path::new(&report)).unwrap();
    assert_eq!(parsed.cause, "panic");

    // `GET /crashes` lists the report under the owning job.
    let crashes = srv.get("/crashes");
    assert_eq!(crashes.status, 200, "{}", crashes.body);
    let cdoc = mab_telemetry::json::parse(crashes.body.trim()).unwrap();
    assert_eq!(cdoc.get("count").and_then(|v| v.as_u64()), Some(1));
    let rows = cdoc
        .get("crashes")
        .and_then(|v| v.as_arr().map(<[_]>::to_vec))
        .unwrap();
    assert_eq!(rows[0].get("job").and_then(|v| v.as_u64()), Some(id));
    assert_eq!(
        rows[0].get("report").and_then(|v| v.as_str()),
        Some(report.as_str())
    );

    // The crash count shows up on /queue and /metrics; the exposition page
    // stays well-formed (every sample line is `name[{labels}] value`).
    let qdoc = mab_telemetry::json::parse(srv.get("/queue").body.trim()).unwrap();
    assert_eq!(qdoc.get("crashes").and_then(|v| v.as_u64()), Some(1));
    let metrics = srv.get("/metrics").body;
    assert!(metrics.contains("mab_serve_crashes_total 1"), "{metrics}");
    assert!(
        metrics.contains("mab_serve_cache_misses_total 0"),
        "{metrics}"
    );
    for line in metrics.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap();
        assert!(!series.is_empty(), "bad series in: {line}");
        assert!(
            value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
            "bad value in: {line}"
        );
    }

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn queue_cap_rejections_are_counted() {
    let executor = StubExecutor::new(Duration::from_millis(400));
    let srv = TestServer::start("reject-count", Arc::clone(&executor), 1, 1);

    let id = job_id(&srv.post_job(
        "{\"experiment\":\"fig10_bandwidth\",\"client\":\"a\",\"seeds\":1,\"quick\":true}",
    ));
    let rejected = srv.post_job(
        "{\"experiment\":\"fig10_bandwidth\",\"client\":\"b\",\"seeds\":2,\"quick\":true}",
    );
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    let metrics = srv.get("/metrics").body;
    assert!(
        metrics.contains("mab_serve_rejected_submissions_total 1"),
        "{metrics}"
    );
    let qdoc = mab_telemetry::json::parse(srv.get("/queue").body.trim()).unwrap();
    assert_eq!(
        qdoc.get("rejected_submissions").and_then(|v| v.as_u64()),
        Some(1)
    );
    srv.wait_done(id);

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn shutdown_persists_unfinished_jobs_and_resume_completes_them() {
    let executor = StubExecutor::new(Duration::from_millis(250));
    let srv = TestServer::start("resume", Arc::clone(&executor), 1, 64);

    // Three slow arms on one worker: shutdown lands mid-sweep.
    let id = job_id(&srv.post_job(
        "{\"experiment\":\"fig13_smt_scurve\",\"client\":\"r\",\"seeds\":[1,2,3],\"quick\":true}",
    ));
    std::thread::sleep(Duration::from_millis(100));
    let dir = srv.stop();

    // The drain finished some arms, persisted the rest.
    let jobs_json = std::fs::read_to_string(dir.join("cache").join("jobs.json")).unwrap();
    assert!(jobs_json.contains("\"queued\""), "{jobs_json}");
    let ran_before = executor.runs();
    assert!(ran_before < 3, "shutdown should leave work unfinished");

    // A fresh daemon over the same cache dir resumes and completes the job
    // without redoing finished arms.
    let config = ServeConfig {
        workers: 1,
        queue_cap: 64,
        cache_dir: dir.join("cache"),
        ledger_dir: Some(dir.join("ledger")),
        quiet: true,
    };
    let state = ServeState::start(config, executor.clone() as Arc<dyn Executor>).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let done = mab_telemetry::json::parse(state.job_json(id).expect("job resumed").trim())
            .unwrap()
            .get("status")
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .unwrap();
        if done == "done" {
            break;
        }
        assert!(Instant::now() < deadline, "resumed job never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(executor.runs(), 3, "finished arms must not be re-executed");
    // jobs.json stays and follows the table: the job is finished there too.
    let jobs_json = std::fs::read_to_string(dir.join("cache").join("jobs.json")).unwrap();
    assert!(!jobs_json.contains("\"queued\""), "{jobs_json}");
    let artifact = state.artifact(id, Some(2)).unwrap();
    assert!(artifact.contains("s=3"));
    state.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn one_worker_runs_one_arm_at_a_time_and_serves_clients_round_robin() {
    let (started_tx, started) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let executor = GateExecutor {
        started: Mutex::new(started_tx),
        release: Mutex::new(release_rx),
    };
    let srv = TestServer::start_with("one-worker", Arc::new(executor), 1, 64);
    let mut sse =
        SseClient::connect(&format!("{}/events", srv.url), Duration::from_secs(5)).unwrap();
    let post = |client: &str, seeds: &str| {
        job_id(&srv.post_job(&format!(
            "{{\"experiment\":\"fig09_accuracy\",\"client\":\"{client}\",\"seeds\":{seeds},\"quick\":true}}"
        )))
    };

    // The gate arm holds the only worker while A, then B, queue theirs.
    let gate = post("gate", &GATE_SEED.to_string());
    started
        .recv_timeout(Duration::from_secs(5))
        .expect("the gate arm never started");
    let a = post("a", "[1,2,3]");
    let b = post("b", "[4,5]");
    let (events, _) = srv.state.events.wait_after(0, Duration::ZERO);
    let running = events
        .iter()
        .filter(|(_, event, _)| *event == "arm_start")
        .count();
    assert_eq!(running, 1, "one worker, yet arm_start events: {events:?}");
    drop(release);

    // Once free, the worker alternates between the clients.
    let mut order = String::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while order.len() < 5 {
        assert!(Instant::now() < deadline, "arm_start order so far: {order}");
        let frame = match sse.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => panic!("event stream closed; order so far: {order}"),
            Err(_) => continue,
        };
        if frame.event != "arm_start" {
            continue;
        }
        let doc = mab_telemetry::json::parse(&frame.data).unwrap();
        match doc.get("job").and_then(|v| v.as_u64()) {
            Some(job) if job == a => order.push('A'),
            Some(job) if job == b => order.push('B'),
            _ => {}
        }
    }
    assert_eq!(order, "ABABA");

    for id in [gate, a, b] {
        srv.wait_done(id);
    }
    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn jobs_json_holds_the_job_documents_and_the_cache_one_file_per_entry() {
    let executor = StubExecutor::new(Duration::from_millis(150));
    let srv = TestServer::start("persist", Arc::clone(&executor), 1, 64);

    let done = job_id(&srv.post_job(
        "{\"experiment\":\"fig09_accuracy\",\"client\":\"p\",\"seeds\":[1,2],\"quick\":true}",
    ));
    srv.wait_done(done);
    // Three slow arms on one worker: shutdown lands mid-sweep.
    let pending = job_id(&srv.post_job(
        "{\"experiment\":\"fig09_accuracy\",\"client\":\"q\",\"seeds\":[3,4,5],\"quick\":true}",
    ));
    std::thread::sleep(Duration::from_millis(50));
    srv.state.shutdown();

    let bodies: Vec<String> = [done, pending]
        .iter()
        .map(|&id| srv.state.job_json(id).unwrap())
        .collect();
    let cache = srv.dir.join("cache");
    assert_eq!(
        std::fs::read_to_string(cache.join("jobs.json")).unwrap(),
        format!("{{\"next_id\":2,\"jobs\":[{}]}}\n", bodies.join(","))
    );
    assert!(bodies[1].contains("\"status\":\"queued\""), "{}", bodies[1]);

    // Beside jobs.json, the cache root holds one `<digest>.report` file
    // per executed arm and nothing else.
    let mut names: Vec<String> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            assert!(e.file_type().unwrap().is_file(), "{:?}", e.path());
            e.file_name().into_string().unwrap()
        })
        .collect();
    names.sort();
    assert_eq!(names.pop().as_deref(), Some("jobs.json"));
    assert_eq!(names.len(), executor.runs());
    assert!(names
        .iter()
        .all(|n| n.len() == 16 + ".report".len() && n.ends_with(".report")));
    assert_eq!(srv.state.cache.entries(), executor.runs());

    let dir = srv.stop();
    std::fs::remove_dir_all(dir).ok();
}

/// A `jobs.json` as earlier builds wrote it: each arm names its
/// experiment, the job does not, and no derived field is written. A
/// one-worker daemon left it at shutdown: job 0's seed 1 done, seed 2
/// failed with a crash report, seed 3 done, and seed 4 and job 1 queued.
const EARLIER_JOBS_JSON: &str = r#"{"next_id":2,"jobs":[{"id":0,"client":"alice","submitted_unix":1792430515,"arms":[{"experiment":"fig09_accuracy","instructions":150000,"seed":1,"mixes":2,"quick":true,"status":"done","cache_hit":false,"wall_ms":0.719867},{"experiment":"fig09_accuracy","instructions":150000,"seed":2,"mixes":2,"quick":true,"status":"failed","cache_hit":false,"wall_ms":2.101932,"error":"fig09_accuracy exited with exit status: 1","crash":"cache/crashes/job-0/crash-7-2-0.mabcrash"},{"experiment":"fig09_accuracy","instructions":150000,"seed":3,"mixes":2,"quick":true,"status":"done","cache_hit":false,"wall_ms":3002.2263159999998},{"experiment":"fig09_accuracy","instructions":150000,"seed":4,"mixes":2,"quick":true,"status":"queued","cache_hit":false,"wall_ms":0}]},{"id":1,"client":"bob","submitted_unix":1792430516,"arms":[{"experiment":"fig09_accuracy","instructions":150000,"seed":1,"mixes":2,"quick":true,"status":"queued","cache_hit":false,"wall_ms":0}]}]}
"#;

#[test]
fn a_jobs_json_written_by_earlier_builds_resumes() {
    let dir = std::env::temp_dir().join(format!("mab-serve-e2e-earlier-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("cache")).unwrap();
    std::fs::write(dir.join("cache").join("jobs.json"), EARLIER_JOBS_JSON).unwrap();
    let executor = StubExecutor::new(Duration::ZERO);
    let config = ServeConfig {
        workers: 1,
        queue_cap: 64,
        cache_dir: dir.join("cache"),
        ledger_dir: None,
        quiet: true,
    };
    let state = ServeState::start(config, executor.clone() as Arc<dyn Executor>).unwrap();
    let doc = |id: u64| mab_telemetry::json::parse(&state.job_json(id).unwrap()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while [0, 1].iter().any(|&id| {
        let d = doc(id);
        d.get("arms_finished").and_then(|v| v.as_u64())
            != d.get("arms_total").and_then(|v| v.as_u64())
    }) {
        assert!(Instant::now() < deadline, "resumed arms never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
    // Only the two queued arms ran.
    assert_eq!(executor.runs(), 2);

    let job0 = doc(0);
    assert_eq!(
        job0.get("experiment").and_then(|v| v.as_str()),
        Some("fig09_accuracy")
    );
    assert_eq!(job0.get("status").and_then(|v| v.as_str()), Some("failed"));
    let arms = job0.get("arms").and_then(|v| v.as_arr()).unwrap();
    let field = |i: usize, key: &str| {
        arms[i]
            .get(key)
            .and_then(|v| v.as_str())
            .map(str::to_string)
    };
    let statuses: Vec<_> = (0..4).map(|i| field(i, "status").unwrap()).collect();
    assert_eq!(statuses, ["done", "failed", "done", "done"]);
    assert_eq!(
        field(1, "error").as_deref(),
        Some("fig09_accuracy exited with exit status: 1")
    );
    assert_eq!(
        field(1, "crash").as_deref(),
        Some("cache/crashes/job-0/crash-7-2-0.mabcrash")
    );
    assert_eq!(
        arms[0].get("wall_ms").and_then(|v| v.as_f64()),
        Some(0.719867)
    );
    // Every digest is computed under the running code version.
    let def = mab_experiments::spec::find("fig09_accuracy").unwrap();
    for (i, seed) in (1..=4).enumerate() {
        let spec =
            mab_experiments::spec::RunSpec::resolve(def, Some(150_000), Some(seed), None, false)
                .unwrap();
        assert_eq!(field(i, "digest"), Some(spec.digest(&state.code)));
    }
    assert_eq!(doc(1).get("status").and_then(|v| v.as_str()), Some("done"));
    // The next submission takes the next id.
    let spec = mab_serve::parse_job("{\"experiment\":\"fig09_accuracy\",\"seeds\":9}", 64).unwrap();
    assert_eq!(state.submit(spec), Ok(2));
    state.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_jobs_json_that_reuses_ids_resumes_each_id_once() {
    // Job 0 twice (three arms, then one), an id with no successor, and a
    // `next_id` behind them all. Requeuing both job 0s would hand a worker
    // arm 2 of a one-arm job.
    let arm = |seed: u64| {
        format!("{{\"instructions\":1000,\"seed\":{seed},\"mixes\":2,\"quick\":true,\"status\":\"queued\"}}")
    };
    let job = |id: u64, seeds: &[u64]| {
        let arms: Vec<String> = seeds.iter().map(|&s| arm(s)).collect();
        format!(
            "{{\"id\":{id},\"client\":\"c\",\"experiment\":\"fig09_accuracy\",\
             \"submitted_unix\":0,\"arms\":[{}]}}",
            arms.join(",")
        )
    };
    let dir = std::env::temp_dir().join(format!("mab-serve-e2e-reused-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("cache")).unwrap();
    std::fs::write(
        dir.join("cache").join("jobs.json"),
        format!(
            "{{\"next_id\":0,\"jobs\":[{},{},{}]}}",
            job(0, &[1, 2, 3]),
            job(0, &[4]),
            job(u64::MAX, &[5])
        ),
    )
    .unwrap();
    let executor = StubExecutor::new(Duration::ZERO);
    let config = ServeConfig {
        workers: 1,
        queue_cap: 64,
        cache_dir: dir.join("cache"),
        ledger_dir: None,
        quiet: true,
    };
    let state = ServeState::start(config, executor.clone() as Arc<dyn Executor>).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !state.job_json(0).unwrap().contains("\"status\":\"done\"") {
        assert!(Instant::now() < deadline, "{}", state.job_json(0).unwrap());
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(state.job_json(0).unwrap().contains("\"arms_total\":3"));
    assert_eq!(executor.runs(), 3);
    assert_eq!(state.job_json(u64::MAX), None);
    let spec = mab_serve::parse_job("{\"experiment\":\"fig09_accuracy\",\"seeds\":9}", 64).unwrap();
    assert_eq!(state.submit(spec), Ok(1));
    state.shutdown();
    std::fs::remove_dir_all(dir).ok();
}
