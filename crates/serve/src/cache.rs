//! The content-addressed result store behind `mab-serve`.
//!
//! One directory per completed arm, named by the ledger content address
//! ([`mab_ledger::config_digest`] over experiment, canonical config and
//! code version):
//!
//! ```text
//! <root>/<digest>/report.txt   the arm's exact stdout (the artifact)
//! <root>/<digest>/meta.json    digest, experiment, byte count, CRC32
//! ```
//!
//! Determinism makes this sound: the digest names a pure computation, so a
//! stored report can be served in place of a re-execution byte-for-byte.
//! The store defends the other direction too — a hit is only a hit when
//! the report's CRC32 matches `meta.json`, so truncated or corrupted
//! entries read as misses and get recomputed, never served.
//!
//! Writes go through a temp file + atomic rename of the entry directory,
//! so concurrent writers and crashed daemons can never publish a torn
//! entry.

use mab_telemetry::crc32;
use std::path::{Path, PathBuf};

/// A content-addressed result store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Cache {
    root: PathBuf,
}

impl Cache {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Cache> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Cache { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Looks up a digest, verifying the entry's CRC. Any mismatch —
    /// missing files, unparsable meta, truncation, bit rot — is a miss.
    pub fn lookup(&self, digest: &str) -> Option<String> {
        let dir = self.root.join(digest);
        let meta_text = std::fs::read_to_string(dir.join("meta.json")).ok()?;
        let meta = mab_telemetry::json::parse(meta_text.trim()).ok()?;
        let stated_crc = meta.get("crc32").and_then(|v| v.as_str())?.to_string();
        let stated_bytes = meta.get("bytes").and_then(|v| v.as_u64())?;
        let report = std::fs::read_to_string(dir.join("report.txt")).ok()?;
        if report.len() as u64 != stated_bytes {
            return None;
        }
        if format!("{:08x}", crc32(report.as_bytes())) != stated_crc {
            return None;
        }
        Some(report)
    }

    /// Stores `report` under `digest`, atomically replacing any existing
    /// entry.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; a failed store leaves no partial
    /// entry behind.
    pub fn store(&self, digest: &str, experiment: &str, report: &str) -> std::io::Result<()> {
        let tmp = self
            .root
            .join(format!(".tmp-{digest}-{}", std::process::id()));
        std::fs::create_dir_all(&tmp)?;
        let meta = format!(
            "{{\"digest\":\"{digest}\",\"experiment\":\"{}\",\"bytes\":{},\"crc32\":\"{:08x}\"}}\n",
            mab_telemetry::json::escape(experiment),
            report.len(),
            crc32(report.as_bytes()),
        );
        std::fs::write(tmp.join("report.txt"), report)?;
        std::fs::write(tmp.join("meta.json"), meta)?;
        let dir = self.root.join(digest);
        // Publish atomically; an existing (equal, by construction) entry
        // stays in place if the rename loses a race.
        if dir.exists() {
            std::fs::remove_dir_all(&dir).ok();
        }
        match std::fs::rename(&tmp, &dir) {
            Ok(()) => Ok(()),
            Err(e) => {
                std::fs::remove_dir_all(&tmp).ok();
                if dir.join("meta.json").exists() {
                    // Lost a store race to an identical entry: fine.
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Number of published entries (digest directories) in the store.
    pub fn entries(&self) -> usize {
        std::fs::read_dir(&self.root)
            .map(|dir| {
                dir.filter_map(Result::ok)
                    .filter(|e| {
                        e.file_name()
                            .to_str()
                            .is_some_and(|n| !n.starts_with('.') && n.len() == 16)
                    })
                    .count()
            })
            .unwrap_or(0)
    }
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
        cache
            .store(digest, "fig08_singlecore", "line one\nline two\n")
            .unwrap();
        assert_eq!(
            cache.lookup(digest).as_deref(),
            Some("line one\nline two\n")
        );
        assert_eq!(cache.entries(), 1);
        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn corrupt_or_truncated_entries_are_misses() {
        let cache = temp_cache("corrupt");
        let digest = "aabbccddeeff0011";
        cache.store(digest, "x", "the full report body\n").unwrap();
        let report_path = cache.root().join(digest).join("report.txt");

        // Truncation: byte count mismatch.
        std::fs::write(&report_path, "the full").unwrap();
        assert_eq!(cache.lookup(digest), None);

        // Same-length corruption: CRC mismatch.
        std::fs::write(&report_path, "the full report bodY\n").unwrap();
        assert_eq!(cache.lookup(digest), None);

        // Restore: hit again.
        cache.store(digest, "x", "the full report body\n").unwrap();
        assert_eq!(
            cache.lookup(digest).as_deref(),
            Some("the full report body\n")
        );

        // Missing meta: miss.
        std::fs::remove_file(cache.root().join(digest).join("meta.json")).unwrap();
        assert_eq!(cache.lookup(digest), None);
        std::fs::remove_dir_all(cache.root()).ok();
    }

    #[test]
    fn store_overwrites_atomically() {
        let cache = temp_cache("overwrite");
        let digest = "0123456789abcdef";
        cache.store(digest, "x", "v1\n").unwrap();
        cache.store(digest, "x", "v1\n").unwrap();
        assert_eq!(cache.lookup(digest).as_deref(), Some("v1\n"));
        assert_eq!(cache.entries(), 1);
        std::fs::remove_dir_all(cache.root()).ok();
    }
}
