//! The daemon's two parsers of text it did not just write: a `POST /jobs`
//! body ([`parse_job`]) and a `jobs.json` job document
//! ([`Job::from_json`]). Two example tests pin how a job document reads
//! back: under the running code, and refused whole when it is not a job
//! (`serve_http.rs` resumes a `jobs.json` in the earlier form). Two
//! properties then feed both parsers random strings of JSON and job-field
//! fragments, and well-formed inputs damaged at random. Neither may panic,
//! and whatever either accepts must be something the daemon could have
//! built from a valid submission.

use mab_experiments::spec::{self, RunSpec};
use mab_serve::{parse_job, Arm, ArmStatus, Job};
use mab_telemetry::json;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A job with arms done, failed, running and queued, under code `c1`.
fn sample_job() -> Job {
    let def = spec::find("fig13_smt_scurve").unwrap();
    let mut arms: Vec<Arm> = (1..=4)
        .map(|seed| {
            let spec = RunSpec::resolve(def, Some(1000), Some(seed), Some(2), false).unwrap();
            Arm::new(spec, "c1")
        })
        .collect();
    arms[0].status = ArmStatus::Done;
    arms[0].cache_hit = true;
    arms[0].wall_ms = 1.25;
    arms[1].status = ArmStatus::Failed;
    arms[1].wall_ms = 3.0;
    arms[1].error = Some("fig13_smt_scurve exited with \"1\"".to_string());
    arms[1].crash = Some("crashes/job-7/a.mabcrash".to_string());
    arms[2].status = ArmStatus::Running;
    Job {
        id: 7,
        client: "alice".to_string(),
        arms,
        submitted_unix: 1_700_000_000,
        events: std::sync::Arc::new(mab_monitor::EventRing::default()),
    }
}

#[test]
fn from_json_rebuilds_the_job_document_under_the_running_code() {
    let job = sample_job();
    let doc = json::parse(&job.to_json()).unwrap();
    let back = Job::from_json(&doc, "c2").unwrap();
    assert_eq!((back.id, back.client.as_str()), (7, "alice"));
    assert_eq!(back.submitted_unix, 1_700_000_000);
    let statuses: Vec<ArmStatus> = back.arms.iter().map(|a| a.status).collect();
    use ArmStatus::{Done, Failed, Queued};
    // The running arm never finished: it comes back queued.
    assert_eq!(statuses, [Done, Failed, Queued, Queued]);
    for (old, new) in job.arms.iter().zip(&back.arms) {
        assert_eq!(new.spec, old.spec);
        assert_eq!(new.digest, old.spec.digest("c2"));
        assert_ne!(new.digest, old.digest);
    }
    for i in 0..2 {
        let (old, new) = (&job.arms[i], &back.arms[i]);
        assert_eq!(
            (new.cache_hit, new.wall_ms, &new.error, &new.crash),
            (old.cache_hit, old.wall_ms, &old.error, &old.crash)
        );
    }
    // Rendered under the same code, the document reads back as itself
    // once the running arm is queued again.
    let mut queued = sample_job();
    queued.arms[2].status = Queued;
    let same = Job::from_json(&doc, "c1").unwrap();
    assert_eq!(same.to_json(), queued.to_json());
}

#[test]
fn from_json_rejects_what_is_not_a_job() {
    let good = sample_job().to_json();
    assert!(Job::from_json(&json::parse(&good).unwrap(), "c").is_some());
    for (from, to) in [
        ("\"id\":7,", ""),
        (
            "\"experiment\":\"fig13_smt_scurve\"",
            "\"experiment\":\"nope\"",
        ),
        ("\"seed\":1,", ""),
        ("\"mixes\":2,", "\"mixes\":-2,"),
        ("\"mixes\":2,", ""),
        ("\"client\":\"alice\",", ""),
        ("\"wall_ms\":1.25", "\"wall_ms\":null"),
    ] {
        let bad = good.replacen(from, to, 1);
        assert_ne!(bad, good, "{from}");
        let doc = json::parse(&bad).unwrap();
        assert!(Job::from_json(&doc, "c").is_none(), "{from} -> {to}");
    }
    let empty = json::parse("{\"id\":1,\"experiment\":\"fig09_accuracy\",\"arms\":[]}").unwrap();
    assert!(Job::from_json(&empty, "c").is_none());
}

#[test]
fn from_json_ignores_the_size_and_seed_tab_storage_does_not_read() {
    // A tab_storage arm as builds that digested both wrote it.
    let doc = json::parse(
        r#"{"id":0,"client":"a","experiment":"tab_storage","submitted_unix":1,"arms":[{"status":"done","cache_hit":false,"instructions":1,"seed":42,"mixes":0,"wall_ms":2}]}"#,
    )
    .unwrap();
    let job = Job::from_json(&doc, "c").unwrap();
    let def = spec::find("tab_storage").unwrap();
    let spec = RunSpec::resolve(def, None, None, None, false).unwrap();
    assert_eq!(job.arms[0].spec, spec);
    assert_eq!(job.arms[0].status, ArmStatus::Done);
}

/// Code version the job documents are read under.
const CODE: &str = "0.1.0+props";

/// Pieces of JSON and of the two formats' keys and values.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    " ",
    "\"experiment\":",
    "\"client\":",
    "\"seeds\":",
    "\"seed\":",
    "\"instructions\":",
    "\"mixes\":",
    "\"quick\":",
    "\"id\":",
    "\"arms\":",
    "\"status\":",
    "\"error\":",
    "\"crash\":",
    "\"wall_ms\":",
    "\"cache_hit\":",
    "\"fig08_singlecore\"",
    "\"fig09_accuracy\"",
    "\"nope\"",
    "\"done\"",
    "\"failed\"",
    "\"queued\"",
    "0",
    "1",
    "7",
    "-1",
    "2.5",
    "1e400",
    "18446744073709551615",
    "18446744073709551616",
    "true",
    "false",
    "null",
    "[]",
    "{}",
    "\"\"",
];

/// Well-formed submissions.
const BODIES: &[&str] = &[
    r#"{"experiment":"fig08_singlecore"}"#,
    r#"{"experiment":"fig13_smt_scurve","client":"a","seeds":[1,2],"instructions":[1000,2000],"mixes":4,"quick":true}"#,
    r#"{"experiment":"fig13_smt_scurve","seeds":7,"mixes":[1,2,3],"quick":false}"#,
];

/// Well-formed job documents: the current form, and the form earlier
/// builds wrote to `jobs.json`.
const JOB_DOCS: &[&str] = &[
    r#"{"id":3,"client":"a","experiment":"fig09_accuracy","status":"failed","submitted_unix":9,"arms_total":3,"arms_finished":2,"cache_hits":1,"arms":[{"index":0,"digest":"0123456789abcdef","status":"done","cache_hit":true,"instructions":150000,"seed":1,"mixes":2,"quick":true,"wall_ms":1.5},{"index":1,"digest":"0123456789abcdef","status":"failed","cache_hit":false,"instructions":150000,"seed":2,"mixes":2,"quick":true,"wall_ms":2,"error":"exit 1","crash":"c/job-3/x.mabcrash"},{"index":2,"digest":"0123456789abcdef","status":"queued","cache_hit":false,"instructions":150000,"seed":3,"mixes":2,"quick":true,"wall_ms":0}]}"#,
    r#"{"id":0,"client":"alice","submitted_unix":1792430515,"arms":[{"experiment":"fig09_accuracy","instructions":150000,"seed":1,"mixes":2,"quick":true,"status":"done","cache_hit":false,"wall_ms":0.719867},{"experiment":"fig09_accuracy","instructions":150000,"seed":4,"mixes":2,"quick":true,"status":"queued","cache_hit":false,"wall_ms":0}]}"#,
];

/// A random input: a string of fragments, or one of `seeds` damaged by
/// one or two cuts, bit flips, deletions and fragment splices.
fn random_text(rng: &mut StdRng, seeds: &[&str]) -> String {
    let fragment = |rng: &mut StdRng| FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())];
    if rng.gen_bool(0.25) {
        return (0..rng.gen_range(0..40)).map(|_| fragment(rng)).collect();
    }
    let mut bytes = seeds[rng.gen_range(0..seeds.len())].as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..3) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0..4) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= 1u8 << rng.gen_range(0..8),
            2 => {
                let end = rng.gen_range(at..bytes.len() + 1);
                bytes.drain(at..end);
            }
            _ => {
                let splice = fragment(rng).bytes();
                bytes.splice(at..at, splice);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Checks what `parse_job` made of `body` under queue cap `cap`.
fn check_parse_job(body: &str, cap: usize) -> Result<bool, TestCaseError> {
    let Ok(job) = parse_job(body, cap) else {
        return Ok(false);
    };
    prop_assert!(
        (1..=cap).contains(&job.specs.len()),
        "{} specs under cap {cap} from {body:?}",
        job.specs.len()
    );
    for s in &job.specs {
        let def = spec::find(&s.experiment);
        prop_assert!(def.is_some(), "{body:?}");
        prop_assert!(def.unwrap().reads_mixes() || s.mixes == 0, "{body:?}");
    }
    Ok(true)
}

/// Checks what `Job::from_json` made of `text`, when `json::parse`
/// accepts it.
fn check_from_json(text: &str) -> Result<bool, TestCaseError> {
    let Ok(doc) = json::parse(text) else {
        return Ok(false);
    };
    let Some(job) = Job::from_json(&doc, CODE) else {
        return Ok(false);
    };
    prop_assert!(!job.arms.is_empty(), "{text:?}");
    for arm in &job.arms {
        let def = spec::find(&arm.spec.experiment);
        prop_assert!(def.is_some(), "{text:?}");
        prop_assert!(
            def.unwrap().reads_mixes() || arm.spec.mixes == 0,
            "{text:?}"
        );
        prop_assert_eq!(&arm.digest, &arm.spec.digest(CODE));
        prop_assert!(arm.status != ArmStatus::Running, "{text:?}");
        if arm.status == ArmStatus::Queued {
            prop_assert!(!arm.cache_hit && arm.error.is_none() && arm.crash.is_none());
        }
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// `parse_job` never panics, and every grid it accepts has between 1
    /// and `cap` arms, each of a registered experiment.
    #[test]
    fn parse_job_accepts_only_admissible_grids_of_registered_experiments(
        case in 0u64..u64::MAX,
        cap in 1usize..64,
    ) {
        let mut rng = StdRng::seed_from_u64(case);
        check_parse_job(&random_text(&mut rng, BODIES), cap)?;
    }

    /// `Job::from_json` never panics on a document `json::parse` accepts,
    /// and a job it rebuilds has arms of registered experiments, digests
    /// under the running code, and nothing finished about a queued arm.
    #[test]
    fn job_from_json_never_panics_and_rebuilds_only_sound_jobs(case in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(case);
        check_from_json(&random_text(&mut rng, JOB_DOCS))?;
    }
}

/// The damage leaves enough inputs parseable that the properties above
/// reach the accepting paths, not only the JSON syntax errors.
#[test]
fn the_random_inputs_reach_both_parsers_accepting_paths() {
    let mut rng = StdRng::seed_from_u64(1);
    let (mut jobs, mut docs) = (0, 0);
    for _ in 0..2000 {
        jobs += usize::from(check_parse_job(&random_text(&mut rng, BODIES), 8).unwrap());
        docs += usize::from(check_from_json(&random_text(&mut rng, JOB_DOCS)).unwrap());
    }
    assert!(jobs >= 40, "parse_job accepted {jobs} of 2000");
    assert!(docs >= 40, "Job::from_json rebuilt {docs} of 2000");
}
