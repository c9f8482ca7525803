//! Snapshot rotation under concurrency (`SharedLegalityCache::
//! save_snapshot_to`).
//!
//! The rotation contract the serve loop leans on:
//!
//! * **Tear-free**: every generation file on disk is a complete,
//!   checksummed `irlt-cache/v3` snapshot at every instant — even
//!   while inserts race the save and rotations race each other —
//!   because saves go to a temp sibling and land by atomic rename.
//! * **Fixpoint**: save → load → save reproduces the snapshot byte
//!   for byte, including for snapshots taken mid-insert-storm (a
//!   snapshot is of *some* consistent prefix of the insert history).
//! * **Generation cap**: at most `keep_generations` rotated files
//!   exist besides the live one.

use irlt::core::{generation_path, KeyMode, SharedLegalityCache};
use irlt::driver::{demo_corpus, execute_job, ExecOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("irlt-rotation-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cache() -> SharedLegalityCache {
    SharedLegalityCache::with_config(1 << 16, 8, KeyMode::Fingerprint)
}

/// Loads `bytes` into a fresh cache and re-saves; the snapshot format
/// guarantees the bytes come back identical.
fn save_load_save(bytes: &[u8]) -> Vec<u8> {
    let fresh = cache();
    fresh
        .load_snapshot(bytes)
        .expect("every rotated generation must load cleanly");
    fresh.save_snapshot().expect("re-save after load")
}

/// The satellite property: while two worker threads pump inserts into
/// the cache through real searches, a third thread rotates snapshots
/// as fast as it can. Every file ever observed must be a loadable
/// fixpoint — a torn or half-written snapshot would fail the checksum
/// (load error) or the byte-fixpoint comparison.
#[test]
fn rotation_races_inserts_without_tearing() {
    let dir = scratch("race");
    let path = dir.join("live.snap");
    let shared = cache();
    let stop = Arc::new(AtomicBool::new(false));

    let jobs = demo_corpus(24);
    let mut workers = Vec::new();
    for half in 0..2 {
        let shared = shared.clone();
        let jobs = jobs.clone();
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            let opts = ExecOptions::default();
            let mut owner = half as u64 * 1000;
            // Keep inserting until the rotator is done: re-running the
            // same corpus under fresh owners keeps the insert path hot
            // (owner id is part of the deposit, not the key).
            while !stop.load(Ordering::Acquire) {
                for (k, job) in jobs.iter().enumerate() {
                    execute_job(job, owner + k as u64, half, Some(&shared), &opts);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                owner += jobs.len() as u64;
            }
        }));
    }

    // Rotate repeatedly while the storm runs; after each save, check
    // the *live* file parses and is a fixpoint (read-back may observe
    // a later rotation's rename — that file must be valid too, which
    // this loop checks on subsequent iterations).
    let keep = 3usize;
    let mut rotations = 0;
    for _ in 0..12 {
        let stats = shared
            .save_snapshot_to(&path, keep)
            .expect("rotation must not fail under racing inserts");
        rotations += 1;
        assert!(stats.bytes > 0);
        let bytes = std::fs::read(&path).expect("live snapshot exists after save");
        assert_eq!(
            save_load_save(&bytes),
            bytes,
            "live snapshot must be a save→load→save fixpoint mid-race"
        );
    }
    stop.store(true, Ordering::Release);
    for w in workers {
        w.join().unwrap();
    }

    // Every surviving generation is complete and loadable.
    for k in 0..=keep {
        let gen = generation_path(&path, k);
        if k < rotations.min(keep + 1) {
            let bytes = std::fs::read(&gen)
                .unwrap_or_else(|e| panic!("generation {} must exist: {e}", gen.display()));
            assert_eq!(save_load_save(&bytes), bytes, "generation {k} torn");
        }
    }
    // The cap holds: no generation beyond `keep`.
    assert!(
        !generation_path(&path, keep + 1).exists(),
        "generation cap exceeded"
    );
    // No temp residue from any rotation.
    assert!(!path.with_extension("new").exists(), "temp file leaked");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rotation while a live server is executing requests: the serve-side
/// integration of the same property. The server rotates every 4
/// finished requests; at exit, every generation on disk is a loadable
/// fixpoint and warm-starts a batch identically to the live file.
#[test]
fn rotation_during_serve_leaves_every_generation_valid() {
    let dir = scratch("serve");
    let path = dir.join("serving.snap");
    let socket = dir.join("s.sock");
    let server = irlt::serve::Server::spawn(
        irlt::serve::ServeConfig {
            workers: 2,
            snapshot: Some(irlt::serve::SnapshotPolicy {
                path: path.clone(),
                every_requests: 4,
                keep_generations: 2,
            }),
            ..irlt::serve::ServeConfig::default()
        },
        &socket,
    )
    .unwrap();
    let jobs = demo_corpus(16);
    let report = irlt::serve::client::run_jobs(
        &socket,
        &jobs,
        &irlt::serve::client::ClientOptions::default(),
    )
    .unwrap();
    assert_eq!(report.completed(), 16);
    irlt::serve::client::shutdown(&socket).unwrap();
    let summary = server.join();
    assert!(summary.rotations >= 2, "{summary}");
    assert_eq!(summary.rotation_failures, 0, "{summary}");

    let mut seen = 0;
    for k in 0..=2usize {
        let gen = generation_path(&path, k);
        if !gen.exists() {
            continue;
        }
        seen += 1;
        let bytes = std::fs::read(&gen).unwrap();
        assert_eq!(
            save_load_save(&bytes),
            bytes,
            "generation {k} written during serving is torn"
        );
        // And it actually warm-starts.
        let warm = cache();
        let stats = warm.load_snapshot(&bytes).unwrap();
        assert!(stats.entries_loaded > 0, "generation {k} empty");
    }
    assert!(seen >= 2, "rotations must leave rotated generations");
    let _ = std::fs::remove_dir_all(&dir);
}
