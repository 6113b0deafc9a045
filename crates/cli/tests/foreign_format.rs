//! Stores whose `Index` rows are not v2 are refused at open with one typed
//! error naming the recorded format — by the indexer, the query engine and
//! the `seqdet info` / `seqdet audit` commands — and are never decoded as
//! v2. Two such stores exist: one whose `Meta` records another format, and
//! one with an index config but no format key (a v1 store from before the
//! key existed).

use seqdet_core::tables::META;
use seqdet_core::{CoreError, IndexConfig, Indexer, Policy};
use seqdet_log::EventLogBuilder;
use seqdet_query::{QueryEngine, QueryError};
use seqdet_storage::{DiskStore, KvStore};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

const FORMAT_KEY: &[u8] = b"config:posting_format";

/// Index a small log into a fresh disk store, then rewrite its recorded
/// posting format: `Some(name)` records `name`, `None` deletes the key.
fn foreign_store(name: &str, format: Option<&str>) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdet-foreign-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(DiskStore::open(&dir).expect("fresh store opens"));
    let mut ix =
        Indexer::with_store(Arc::clone(&store), IndexConfig::new(Policy::SkipTillNextMatch))
            .expect("fresh store takes the index config");
    let mut b = EventLogBuilder::new();
    b.add("t1", "A", 1).add("t1", "B", 2).add("t2", "A", 3).add("t2", "B", 5);
    ix.index_log(&b.build()).expect("valid log");
    match format {
        Some(f) => store.put(META, FORMAT_KEY, f.as_bytes()).expect("meta write"),
        None => assert!(store.delete(META, FORMAT_KEY).expect("meta delete")),
    }
    store.flush().expect("flush");
    dir
}

fn assert_refused(e: &CoreError, recorded: Option<&str>) {
    match e {
        CoreError::UnsupportedPostingFormat { recorded: r } => assert_eq!(r.as_deref(), recorded),
        other => panic!("expected UnsupportedPostingFormat, got {other}"),
    }
}

/// Run the CLI on `dir`; it must fail with a message naming the format.
fn assert_cli_refuses(args: &[&str], dir: &Path, names: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_seqdet"))
        .args(args)
        .arg("--store")
        .arg(dir)
        .output()
        .expect("seqdet runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} accepted a foreign store");
    assert!(stderr.contains("unsupported posting format"), "{args:?}: {stderr}");
    assert!(stderr.contains(names), "{args:?} does not name {names}: {stderr}");
}

#[test]
fn foreign_format_stores_are_refused_everywhere() {
    for (name, recorded, names) in [("v1", Some("v1"), "\"v1\""), ("no-key", None, "records none")]
    {
        let dir = foreign_store(name, recorded);
        {
            let store = Arc::new(DiskStore::open(&dir).expect("store reopens"));
            let cfg = IndexConfig::new(Policy::SkipTillNextMatch);
            match Indexer::with_store(Arc::clone(&store), cfg) {
                Err(e) => assert_refused(&e, recorded),
                Ok(_) => panic!("{name}: indexer opened a foreign store"),
            }
            match QueryEngine::new(store) {
                Err(QueryError::Core(e)) => assert_refused(&e, recorded),
                Err(e) => panic!("{name}: expected a core error, got {e}"),
                Ok(_) => panic!("{name}: query engine opened a foreign store"),
            }
            match seqdet_core::audit_disk(&dir) {
                Err(e) => assert_refused(&e, recorded),
                Ok(_) => panic!("{name}: audit accepted a foreign store"),
            }
        }
        assert_cli_refuses(&["info"], &dir, names);
        assert_cli_refuses(&["audit"], &dir, names);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
