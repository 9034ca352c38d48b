//! A daemon killed outright loses no accepted job. `mab-serve` writes its
//! job table to `jobs.json` whenever the table changes, so a `kill -9`
//! mid-sweep followed by a restart on the same cache directory finds the
//! job, keeps the arm that finished and runs the rest.
//!
//! The real `mab-serve` binary runs here, with a stub "experiment binary"
//! in its `--bin-dir` that sleeps briefly and prints its argv.

#![cfg(unix)]

use mab_monitor::client;
use mab_telemetry::json::{self, JsonValue};
use std::io::{BufRead, BufReader};
use std::os::unix::fs::PermissionsExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(5);

/// A running daemon and the URL it announced.
struct Daemon {
    child: Child,
    url: String,
}

impl Daemon {
    /// Starts `mab-serve` with one worker on an ephemeral port and waits
    /// for its `listening on` line.
    fn start(cache_dir: &Path, bin_dir: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mab-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--cache-dir"])
            .arg(cache_dir)
            .arg("--bin-dir")
            .arg(bin_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mab-serve");
        let mut lines = BufReader::new(child.stderr.take().expect("stderr piped")).lines();
        let url = loop {
            let line = lines
                .next()
                .expect("mab-serve exited before listening")
                .expect("read mab-serve stderr");
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap().to_string();
            }
        };
        // Drain the rest so the daemon never blocks on a full pipe.
        std::thread::spawn(move || lines.for_each(drop));
        Daemon { child, url }
    }

    fn get(&self, path: &str) -> client::HttpResponse {
        client::get(&format!("{}{path}", self.url), TIMEOUT).expect("GET")
    }

    /// `GET /jobs/:id`, parsed.
    fn job(&self, id: u64) -> JsonValue {
        let resp = self.get(&format!("/jobs/{id}"));
        assert_eq!(resp.status, 200, "/jobs/{id}: {}", resp.body);
        json::parse(resp.body.trim()).unwrap()
    }

    /// Polls job `id` until `done(doc)` holds.
    fn wait(&self, id: u64, what: &str, done: impl Fn(&JsonValue) -> bool) -> JsonValue {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let doc = self.job(id);
            if done(&doc) {
                return doc;
            }
            assert!(Instant::now() < deadline, "job {id} never {what}: {doc:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    /// SIGKILL, then reap: the kill the test is about, and the cleanup
    /// when an assertion fails.
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn u64_field(doc: &JsonValue, key: &str) -> u64 {
    doc.get(key).and_then(JsonValue::as_u64).unwrap()
}

#[test]
fn a_job_accepted_before_a_kill_finishes_after_the_restart() {
    let root = std::env::temp_dir().join(format!("mab-serve-kill-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let (bin_dir, cache_dir): (PathBuf, PathBuf) = (root.join("bin"), root.join("cache"));
    std::fs::create_dir_all(&bin_dir).unwrap();
    let stub = bin_dir.join("fig09_accuracy");
    std::fs::write(
        &stub,
        "#!/bin/sh\nsleep 0.3\nfor arg in \"$@\"; do echo \"$arg\"; done\n",
    )
    .unwrap();
    std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755)).unwrap();

    let first = Daemon::start(&cache_dir, &bin_dir);
    let body = "{\"experiment\":\"fig09_accuracy\",\"seeds\":[1,2,3],\"quick\":true}";
    let resp = client::post(&format!("{}/jobs", first.url), body, TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let id = u64_field(&json::parse(resp.body.trim()).unwrap(), "id");
    let doc = first.wait(id, "finished an arm", |d| {
        u64_field(d, "arms_finished") >= 1
    });
    drop(first);
    assert!(u64_field(&doc, "arms_finished") < 3, "{doc:?}");

    let second = Daemon::start(&cache_dir, &bin_dir);
    let doc = second.wait(id, "finished", |d| {
        d.get("status").and_then(JsonValue::as_str) == Some("done")
    });
    let arms = doc.get("arms").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(arms.len(), 3);
    assert_eq!(
        arms[0].get("status").and_then(JsonValue::as_str),
        Some("done")
    );
    assert_eq!(
        arms[0].get("cache_hit").and_then(JsonValue::as_bool),
        Some(false)
    );
    // The stub printed the argv each arm ran with: fig09's `--quick` size,
    // spelled out, and no mix cap.
    let crash_dir = cache_dir.join("crashes").join(format!("job-{id}"));
    for (i, seed) in (1..=3).enumerate() {
        let argv = format!(
            "--instructions\n150000\n--seed\n{seed}\n--quiet\n--crash-dir\n{}\n",
            crash_dir.display()
        );
        let artifact = second.get(&format!("/jobs/{id}/artifact?arm={i}"));
        assert_eq!(artifact.status, 200, "arm {i}: {}", artifact.body);
        assert_eq!(artifact.body, argv, "arm {i}");
    }
    drop(second);
    std::fs::remove_dir_all(&root).ok();
}
