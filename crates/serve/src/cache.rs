//! The content-addressed result store behind `mab-serve`.
//!
//! One file per completed arm, named by the ledger content address
//! ([`mab_ledger::config_digest`] over experiment, canonical config and
//! code version):
//!
//! ```text
//! <root>/<digest>.report   "<crc32 hex> <byte count>\n", then the arm's
//!                          exact stdout (the artifact)
//! ```
//!
//! Determinism makes this sound: the digest names a pure computation, so a
//! stored report can be served in place of a re-execution byte-for-byte.
//! The store defends the other direction too — a hit is only a hit when
//! the header's byte count and CRC32 match the report that follows, so
//! truncated or corrupted entries read as misses and get recomputed, never
//! served.
//!
//! A store writes a temp file and renames it over `<digest>.report`, so
//! concurrent writers and crashed daemons can never publish a torn entry.
//! A daemon killed between the two steps leaves its `.tmp-<digest>-<pid>`
//! behind; the next [`Cache::open`] deletes it. The `.report` suffix also
//! keeps a `<digest>/` directory, the entry layout of earlier builds, from
//! blocking the rename.

use mab_telemetry::crc32;
use std::path::{Path, PathBuf};

/// A content-addressed result store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Cache {
    root: PathBuf,
}

impl Cache {
    /// Opens (creating if needed) the store rooted at `root` and deletes
    /// every `.tmp-*` file in it: the temp files of stores that never
    /// reached their rename. A store another process has in flight in the
    /// same root loses its temp file and fails, which costs an entry, never
    /// tears one.
    ///
    /// # Errors
    ///
    /// Propagates failures to create or list the directory.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Cache> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        for entry in std::fs::read_dir(&root)?.filter_map(Result::ok) {
            let is_file = entry.file_type().is_ok_and(|t| t.is_file());
            if is_file && entry.file_name().to_string_lossy().starts_with(".tmp-") {
                std::fs::remove_file(entry.path()).ok();
            }
        }
        Ok(Cache { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry file for `digest`.
    fn entry_path(&self, digest: &str) -> PathBuf {
        self.root.join(format!("{digest}.report"))
    }

    /// Looks up a digest, verifying the entry's header. Any mismatch — a
    /// missing file, a damaged header, truncation, bit rot — is a miss.
    pub fn lookup(&self, digest: &str) -> Option<String> {
        let mut header = std::fs::read_to_string(self.entry_path(digest)).ok()?;
        let report = header.split_off(header.find('\n')? + 1);
        (header == entry_header(&report)).then_some(report)
    }

    /// Stores `report` under `digest`, atomically replacing any existing
    /// entry. The temp file is named by digest and process, so callers in
    /// one process must not store one digest twice at once; the daemon's
    /// in-flight table keeps them from it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; a failed store leaves no partial
    /// entry behind.
    pub fn store(&self, digest: &str, report: &str) -> std::io::Result<()> {
        let tmp = self
            .root
            .join(format!(".tmp-{digest}-{}", std::process::id()));
        let stored = std::fs::write(&tmp, entry_header(report) + report)
            .and_then(|()| std::fs::rename(&tmp, self.entry_path(digest)));
        if stored.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        stored
    }

    /// Number of published entries (`.report` files) in the store.
    pub fn entries(&self) -> usize {
        std::fs::read_dir(&self.root)
            .map(|dir| {
                dir.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|ext| ext == "report"))
                    .count()
            })
            .unwrap_or(0)
    }
}

/// The header line an entry holding `report` starts with.
fn entry_header(report: &str) -> String {
    format!("{:08x} {}\n", crc32(report.as_bytes()), report.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> Cache {
        let root =
            std::env::temp_dir().join(format!("mab-serve-cache-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        Cache::open(root).unwrap()
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let cache = temp_cache("roundtrip");
        let digest = "00112233445566aa";
        assert_eq!(cache.lookup(digest), None);
        cache.store(digest, "line one\nline two\n").unwrap();
        assert_eq!(
            cache.lookup(digest).as_deref(),
            Some("line one\nline two\n")
        );
        assert_eq!(cache.entries(), 1);
        // One file per entry: the report behind its header line.
        let names: Vec<_> = std::fs::read_dir(cache.root())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["00112233445566aa.report"]);
        let bytes = std::fs::read_to_string(cache.entry_path(digest)).unwrap();
        assert_eq!(
            bytes,
            format!(
                "{:08x} 18\nline one\nline two\n",
                crc32(b"line one\nline two\n")
            )
        );
        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn truncated_flipped_or_misheaded_entries_are_misses() {
        let cache = temp_cache("corrupt");
        let digest = "aabbccddeeff0011";
        let report = "the full report body\n";
        cache.store(digest, report).unwrap();
        let path = cache.entry_path(digest);
        let good = std::fs::read(&path).unwrap();
        let header_len = good.iter().position(|&b| b == b'\n').unwrap() + 1;

        // Truncation: every cut short of the whole file is a miss.
        for cut in 0..good.len() {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert_eq!(cache.lookup(digest), None, "cut at {cut}");
        }

        // A flipped report byte keeps the length but fails the CRC.
        for i in header_len..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            assert_eq!(cache.lookup(digest), None, "flipped byte {i}");
        }

        // A damaged header: wrong CRC, wrong count, extra or missing
        // fields, no header line at all.
        let crc = format!("{:08x}", crc32(report.as_bytes()));
        for header in [
            format!("{:08x} 21\n", crc32(report.as_bytes()) ^ 1),
            format!("{crc} 20\n"),
            format!("{crc} 22\n"),
            format!("{crc} +21\n"),
            format!("{crc}  21\n"),
            format!("{crc} 21 x\n"),
            format!("{crc}\n"),
            "21\n".to_string(),
            String::new(),
        ] {
            std::fs::write(&path, format!("{header}{report}")).unwrap();
            assert_eq!(cache.lookup(digest), None, "header {header:?}");
        }

        // Restore: hit again.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(cache.lookup(digest).as_deref(), Some(report));
        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn a_temp_file_left_by_a_killed_store_is_never_served() {
        let digest = "feedfacecafebeef";
        let report = "the full report body\n";
        let entry = entry_header(report) + report;
        // A daemon killed between the temp write and the rename: mid-write,
        // then after the whole entry was written. Pid 1 never runs a test.
        for (tag, left) in [("partial", &entry[..entry.len() / 2]), ("whole", &entry)] {
            let cache = temp_cache(&format!("killed-{tag}"));
            std::fs::write(cache.root().join(format!(".tmp-{digest}-1")), left).unwrap();
            assert_eq!(cache.lookup(digest), None, "{tag}");
            assert_eq!(cache.entries(), 0, "{tag}");
            cache.store(digest, report).unwrap();
            assert_eq!(cache.lookup(digest).as_deref(), Some(report), "{tag}");
            assert_eq!(cache.entries(), 1, "{tag}");
            std::fs::remove_dir_all(cache.root()).ok();
        }
    }

    #[test]
    fn open_deletes_the_temp_files_killed_stores_left() {
        let cache = temp_cache("sweep");
        let digest = "feedfacecafebeef";
        let report = "the full report body\n";
        cache.store(digest, report).unwrap();
        // A store killed mid-write and one killed just before its rename.
        let entry = entry_header(report) + report;
        let partial = cache.root().join(format!(".tmp-{digest}-1"));
        let whole = cache.root().join(".tmp-0011223344556677-1");
        std::fs::write(&partial, &entry[..entry.len() / 2]).unwrap();
        std::fs::write(&whole, &entry).unwrap();
        let jobs = cache.root().join("jobs.json");
        std::fs::write(&jobs, "{}").unwrap();
        let crashes = cache.root().join("crashes");
        std::fs::create_dir_all(&crashes).unwrap();

        let cache = Cache::open(cache.root()).unwrap();
        assert!(!partial.exists() && !whole.exists());
        assert!(jobs.exists() && crashes.is_dir());
        assert_eq!(cache.lookup(digest).as_deref(), Some(report));
        assert_eq!(cache.entries(), 1);
        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn store_replaces_an_entry_and_an_old_entry_directory_does_not_block_it() {
        let cache = temp_cache("overwrite");
        let digest = "0123456789abcdef";
        // An entry directory as earlier builds laid it out.
        std::fs::create_dir_all(cache.root().join(digest)).unwrap();
        std::fs::write(cache.root().join(digest).join("report.txt"), "old\n").unwrap();
        cache.store(digest, "v1\n").unwrap();
        cache.store(digest, "v2\n").unwrap();
        assert_eq!(cache.lookup(digest).as_deref(), Some("v2\n"));
        assert_eq!(cache.entries(), 1);
        std::fs::remove_dir_all(cache.root()).ok();
    }
}
