//! The daemon's persistent campaign store: append-only, content-
//! addressed by manifest digest.
//!
//! Layout under the `--store` root:
//!
//! ```text
//! <root>/campaigns/<digest as 16 hex digits>/
//!     manifest.json    # the canonicalized manifest, written once
//!     journal.json     # {version, manifest_digest, verdicts[]}, atomically rewritten
//!     cancelled        # marker: present iff the campaign was cancelled
//! ```
//!
//! Every write goes through the atomic temp-file + fsync + rename path
//! ([`chess_bench::write_atomic`] / [`chess_bench::JournalWriter`]), so
//! a `kill -9` at any instant leaves each file either at its previous
//! or its next complete content — which is what lets a restarted daemon
//! resume every in-flight campaign and reprint completed reports
//! byte-for-byte. Nothing is ever mutated in place: verdicts only
//! accumulate, and a campaign directory is only ever added to.

use std::path::{Path, PathBuf};

use chess_bench::{read_journal, write_atomic, Json};

use crate::campaign::{parse_journal_doc, Verdict};

/// A campaign store rooted at a directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

/// One campaign as found on disk by a startup scan.
#[derive(Debug, Clone)]
pub struct StoredCampaign {
    /// The manifest digest (the campaign's identity).
    pub digest: u64,
    /// The canonicalized manifest document text.
    pub manifest_text: String,
    /// Verdicts journaled so far (possibly all of them).
    pub verdicts: Vec<Verdict>,
    /// Whether the campaign carries the cancelled marker.
    pub cancelled: bool,
}

/// Renders a digest the way the store and the wire protocol spell it.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Parses a digest spelled by [`digest_hex`].
///
/// # Errors
///
/// Rejects anything but exactly 16 hex digits.
pub fn parse_digest(text: &str) -> Result<u64, String> {
    if text.len() != 16 {
        return Err(format!("campaign id must be 16 hex digits, got {text:?}"));
    }
    u64::from_str_radix(text, 16).map_err(|_| format!("campaign id must be hex, got {text:?}"))
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn open(root: &Path) -> Result<Store, String> {
        let campaigns = root.join("campaigns");
        std::fs::create_dir_all(&campaigns)
            .map_err(|e| format!("create store {}: {e}", campaigns.display()))?;
        Ok(Store {
            root: root.to_path_buf(),
        })
    }

    fn campaign_dir(&self, digest: u64) -> PathBuf {
        self.root.join("campaigns").join(digest_hex(digest))
    }

    /// Path of a campaign's journal file (for a [`chess_bench::JournalWriter`]).
    pub fn journal_path(&self, digest: u64) -> PathBuf {
        self.campaign_dir(digest).join("journal.json")
    }

    /// Whether the store already holds this campaign.
    pub fn contains(&self, digest: u64) -> bool {
        self.campaign_dir(digest).join("manifest.json").exists()
    }

    /// Admits a campaign: creates its directory and writes the
    /// canonicalized manifest (idempotent — resubmitting the same
    /// manifest rewrites identical bytes).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn admit(&self, digest: u64, manifest_text: &str) -> Result<(), String> {
        let dir = self.campaign_dir(digest);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        write_atomic(&dir.join("manifest.json"), manifest_text)
    }

    /// Marks a campaign cancelled: the startup scan will not resume it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn mark_cancelled(&self, digest: u64) -> Result<(), String> {
        write_atomic(&self.campaign_dir(digest).join("cancelled"), "cancelled\n")
    }

    /// Loads one stored campaign.
    ///
    /// # Errors
    ///
    /// Fails on missing manifests and corrupt journals; a *missing*
    /// journal is fine (no verdicts yet).
    pub fn load(&self, digest: u64) -> Result<StoredCampaign, String> {
        let dir = self.campaign_dir(digest);
        let manifest_path = dir.join("manifest.json");
        let manifest_text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
        let journal_path = self.journal_path(digest);
        let verdicts = if journal_path.exists() {
            let doc = read_journal(&journal_path)?;
            parse_journal_doc(&doc, Some(digest))
                .map_err(|e| format!("{}: {e}", journal_path.display()))?
        } else {
            Vec::new()
        };
        Ok(StoredCampaign {
            digest,
            manifest_text,
            verdicts,
            cancelled: dir.join("cancelled").exists(),
        })
    }

    /// Scans the store and loads every campaign, sorted by digest so a
    /// restarted daemon re-queues work in a stable order.
    ///
    /// # Errors
    ///
    /// Fails only when the campaigns directory cannot be read; a
    /// corrupt individual campaign is skipped with a warning in the
    /// returned list's stead (the daemon logs it).
    pub fn scan(&self) -> Result<(Vec<StoredCampaign>, Vec<String>), String> {
        let campaigns = self.root.join("campaigns");
        let mut found = Vec::new();
        let mut warnings = Vec::new();
        let entries = std::fs::read_dir(&campaigns)
            .map_err(|e| format!("read store {}: {e}", campaigns.display()))?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Ok(digest) = parse_digest(name) else {
                continue;
            };
            match self.load(digest) {
                Ok(c) => found.push(c),
                Err(e) => warnings.push(format!("skipping campaign {name}: {e}")),
            }
        }
        found.sort_by_key(|c| c.digest);
        Ok((found, warnings))
    }
}

/// Parses a stored manifest text back into a document.
///
/// # Errors
///
/// Propagates syntax errors (possible only if the store was edited by
/// hand — the daemon only writes canonicalized documents).
pub fn parse_manifest_text(text: &str) -> Result<Json, String> {
    Json::parse(text).map_err(|e| format!("stored manifest: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{journal_doc, VerdictOutcome};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("chess-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn digests_round_trip_and_reject_garbage() {
        for d in [0u64, 1, u64::MAX, 0xdead_beef_0000_0001] {
            assert_eq!(parse_digest(&digest_hex(d)).unwrap(), d);
        }
        assert!(parse_digest("xyz").is_err());
        assert!(parse_digest("123").is_err());
        assert!(parse_digest("00000000000000000").is_err(), "17 digits");
    }

    #[test]
    fn store_persists_and_scans_campaigns() {
        let root = tempdir("scan");
        let store = Store::open(&root).unwrap();
        assert!(!store.contains(7));
        store.admit(7, "{\"jobs\": []}").unwrap();
        assert!(store.contains(7));
        let verdicts = vec![Verdict {
            id: "a".to_string(),
            attempts: 1,
            outcome: VerdictOutcome::Done {
                payload: "{\"code\": 0, \"line\": \"ok\"}".to_string(),
            },
        }];
        let journal = journal_doc(7, &verdicts).to_string_pretty();
        write_atomic(&store.journal_path(7), &journal).unwrap();
        store.admit(9, "{\"jobs\": [1]}").unwrap();
        store.mark_cancelled(9).unwrap();

        // A fresh handle (the restarted daemon) sees everything.
        let (found, warnings) = Store::open(&root).unwrap().scan().unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].digest, 7);
        assert_eq!(found[0].verdicts, verdicts);
        assert!(!found[0].cancelled);
        assert_eq!(found[1].digest, 9);
        assert!(found[1].verdicts.is_empty());
        assert!(found[1].cancelled);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_journals_are_skipped_with_a_warning() {
        let root = tempdir("corrupt");
        let store = Store::open(&root).unwrap();
        store.admit(3, "{\"jobs\": []}").unwrap();
        std::fs::write(store.journal_path(3), "not json").unwrap();
        let (found, warnings) = store.scan().unwrap();
        assert!(found.is_empty());
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("0000000000000003"), "{warnings:?}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
