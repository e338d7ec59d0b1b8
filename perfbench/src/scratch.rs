//! Private scratch directories inside the checkout.
//!
//! Every directory is named by the process id plus a process-wide atomic
//! counter, so concurrent runs (and repeated set-ups within one run)
//! never share, and so never delete, each other's files.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes directories created by this process; it publishes no
/// other data, so `Relaxed` suffices.
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A directory that is created empty and removed, with its contents, on
/// drop.
#[derive(Debug)]
pub struct PrivateDir {
    path: PathBuf,
}

impl PrivateDir {
    /// Creates `<parent>/<tag>-<pid>-<n>`.
    ///
    /// # Errors
    ///
    /// Fails if the directory already exists or cannot be created.
    pub fn new(parent: &Path, tag: &str) -> std::io::Result<Self> {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(parent)?;
        std::fs::create_dir(&path)?;
        Ok(Self { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total size in bytes of the regular files directly inside.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn file_bytes(&self) -> std::io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(&self.path)? {
            let meta = entry?.metadata()?;
            if meta.is_file() {
                total += meta.len();
            }
        }
        Ok(total)
    }
}

impl Drop for PrivateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Names of the entries left in `dir`, sorted; empty when `dir` is
/// missing.
///
/// # Errors
///
/// Propagates file-system errors other than a missing directory.
pub fn leftovers(dir: &Path) -> std::io::Result<Vec<String>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut names = Vec::new();
    for entry in entries {
        names.push(entry?.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirs_are_unique_and_removed_on_drop() {
        let parent = std::env::temp_dir().join(format!("perfbench-scratch-{}", std::process::id()));
        let a = PrivateDir::new(&parent, "kv").expect("create");
        let b = PrivateDir::new(&parent, "kv").expect("create");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("x"), b"12345").expect("write");
        assert_eq!(a.file_bytes().expect("size"), 5);
        assert_eq!(leftovers(&parent).expect("list").len(), 2);
        drop((a, b));
        assert!(leftovers(&parent).expect("list").is_empty());
        std::fs::remove_dir(&parent).expect("parent empty");
        assert!(leftovers(&parent).expect("missing is empty").is_empty());
    }
}
