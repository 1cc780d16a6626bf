//! Crash-safe persistence for job records and session checkpoints.
//!
//! The store keeps two directories under its root:
//!
//! ```text
//! state/
//!   jobs/         one JSON record per job: {id}.json
//!   checkpoints/  one MboState checkpoint per in-flight job: {id}.ckpt
//! ```
//!
//! Every write is tmp-file + atomic rename (the same discipline as the
//! exec-layer disk cache), so a `kill -9` at any instant leaves either
//! the old file or the new one — never a torn hybrid. Each write has a
//! temp file of its own, so concurrent writers of one file cannot tear
//! it either. Job ids are server-assigned (`j<seq>`) and validated on
//! load, so a stray file in the directory is skipped rather than
//! trusted.

use crate::{Result, ServeError};
use serde_json::Value;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Directory-backed storage for job records and checkpoints.
#[derive(Debug)]
pub(crate) struct JobStore {
    jobs: PathBuf,
    checkpoints: PathBuf,
}

/// Writes this process has started, across every store: the suffix that
/// gives each write's temp file a name of its own.
static WRITES: AtomicU64 = AtomicU64::new(0);

/// Publishes `bytes` as `dir/name` through a temp file named for this
/// one write (`.{name}.{pid}.{n}.tmp`), so two writers of one name
/// never share a temp file and the rename publishes a whole file.
fn atomic_write(dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
    let write = WRITES.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{name}.{}.{write}.tmp", std::process::id()));
    let fin = dir.join(name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    match fs::rename(&tmp, &fin) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(ServeError::Io(e))
        }
    }
}

/// Whether `name` looks like a server-assigned job id (`j<digits>`).
fn valid_job_id(name: &str) -> bool {
    name.len() > 1
        && name.starts_with('j')
        && name[1..].bytes().all(|b| b.is_ascii_digit())
}

impl JobStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub(crate) fn open(root: &Path) -> Result<JobStore> {
        let jobs = root.join("jobs");
        let checkpoints = root.join("checkpoints");
        fs::create_dir_all(&jobs)?;
        fs::create_dir_all(&checkpoints)?;
        Ok(JobStore { jobs, checkpoints })
    }

    /// Persists one job record atomically.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub(crate) fn save_job(&self, id: &str, record: &Value) -> Result<()> {
        atomic_write(&self.jobs, &format!("{id}.json"), record.to_string().as_bytes())
    }

    /// Loads every valid job record, sorted by numeric job sequence.
    /// Unparseable or foreign files are skipped, not fatal: recovery
    /// must tolerate a partially written tmp file or operator debris.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub(crate) fn load_jobs(&self) -> Result<Vec<Value>> {
        let mut found: Vec<(u64, Value)> = Vec::new();
        for entry in fs::read_dir(&self.jobs)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".json") else { continue };
            if !valid_job_id(stem) {
                continue;
            }
            let Ok(seq) = stem[1..].parse::<u64>() else { continue };
            let Ok(text) = fs::read_to_string(entry.path()) else { continue };
            let Ok(record) = serde_json::from_str(&text) else { continue };
            found.push((seq, record));
        }
        found.sort_by_key(|(seq, _)| *seq);
        Ok(found.into_iter().map(|(_, record)| record).collect())
    }

    /// Persists one session checkpoint atomically.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub(crate) fn save_checkpoint(&self, id: &str, checkpoint: &str) -> Result<()> {
        atomic_write(&self.checkpoints, &format!("{id}.ckpt"), checkpoint.as_bytes())
    }

    /// Loads a session checkpoint, if one was ever persisted.
    pub(crate) fn load_checkpoint(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.checkpoints.join(format!("{id}.ckpt"))).ok()
    }

    /// Removes a job's checkpoint (terminal states no longer need it).
    pub(crate) fn remove_checkpoint(&self, id: &str) {
        let _ = fs::remove_file(self.checkpoints.join(format!("{id}.ckpt")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("clapped_jobstore_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_round_trip_sorted_by_sequence() {
        let root = temp_dir("roundtrip");
        let store = JobStore::open(&root).unwrap();
        store.save_job("j10", &json!({"id": "j10"})).unwrap();
        store.save_job("j2", &json!({"id": "j2"})).unwrap();
        store.save_job("j2", &json!({"id": "j2", "v": 2})).unwrap();
        let loaded = store.load_jobs().unwrap();
        let ids: Vec<&str> = loaded.iter().filter_map(|r| r["id"].as_str()).collect();
        assert_eq!(ids, ["j2", "j10"]);
        assert_eq!(loaded[0]["v"].as_u64(), Some(2), "rewrite wins");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn debris_is_skipped_not_fatal() {
        let root = temp_dir("debris");
        let store = JobStore::open(&root).unwrap();
        store.save_job("j1", &json!({"id": "j1"})).unwrap();
        fs::write(root.join("jobs/.j9.4242.tmp"), "{torn").unwrap();
        fs::write(root.join("jobs/notes.json"), "not a job").unwrap();
        fs::write(root.join("jobs/j3.json"), "{also torn").unwrap();
        let loaded = store.load_jobs().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0]["id"].as_str(), Some("j1"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_writers_of_one_job_never_publish_a_torn_record() {
        let root = temp_dir("concurrent");
        let store = JobStore::open(&root).unwrap();
        // Large records, so a write takes long enough to be overtaken.
        let record = |writer: usize, round: usize| {
            json!({"id": "j1", "writer": writer, "round": round, "pad": "x".repeat(64 * 1024)})
        };
        store.save_job("j1", &record(0, 0)).unwrap();
        let path = root.join("jobs/j1.json");
        let done = AtomicBool::new(false);
        // The writers and the reader start together.
        let start = Barrier::new(5);
        let (writes, (reads, torn)) = std::thread::scope(|s| {
            let writers: Vec<_> = (0..4)
                .map(|w| {
                    let (store, record, start) = (&store, &record, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..100).try_for_each(|r| store.save_job("j1", &record(w, r)))
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                let (mut reads, mut torn) = (0, Vec::new());
                while !done.load(Ordering::Relaxed) {
                    let text = fs::read_to_string(&path).unwrap_or_default();
                    let whole = serde_json::from_str(&text)
                        .is_ok_and(|v| v["id"].as_str() == Some("j1"));
                    if !whole {
                        torn.push(text.len());
                    }
                    reads += 1;
                }
                (reads, torn)
            });
            // Join every writer before stopping the reader, whatever
            // the writers returned.
            let writes: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();
            done.store(true, Ordering::Relaxed);
            (writes, reader.join().unwrap())
        });
        let _ = fs::remove_dir_all(&root);
        for w in writes {
            w.unwrap();
        }
        assert!(reads > 0);
        assert!(torn.is_empty(), "torn records of {torn:?} bytes in {reads} reads");
    }

    #[test]
    fn checkpoints_store_and_remove() {
        let root = temp_dir("ckpt");
        let store = JobStore::open(&root).unwrap();
        assert!(store.load_checkpoint("j1").is_none());
        store.save_checkpoint("j1", "{\"phase\":3}").unwrap();
        assert_eq!(store.load_checkpoint("j1").as_deref(), Some("{\"phase\":3}"));
        store.save_checkpoint("j1", "{\"phase\":4}").unwrap();
        assert_eq!(store.load_checkpoint("j1").as_deref(), Some("{\"phase\":4}"));
        store.remove_checkpoint("j1");
        assert!(store.load_checkpoint("j1").is_none());
        let _ = fs::remove_dir_all(&root);
    }
}
