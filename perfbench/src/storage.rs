//! A timing decorator around the production `FsStorage`, handed to the
//! server through `ServerConfig::storage`: it measures `replace`,
//! `append`, `sync` and `read` from outside the `runtime` layer (spans in
//! the traced pass, bytes always).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shil::runtime::storage::AppendFile;
use shil::runtime::{FsStorage, Storage};

use crate::trace;

#[derive(Debug, Default)]
pub struct TimedStorage {
    inner: FsStorage,
    bytes_written: Arc<AtomicU64>,
}

impl TimedStorage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes handed to `replace` and `append` so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }
}

impl Storage for TimedStorage {
    fn read(&self, path: &Path) -> io::Result<String> {
        let _s = trace::span("runtime.storage.read");
        self.inner.read(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn AppendFile>> {
        Ok(Box::new(TimedAppend {
            inner: self.inner.open_append(path)?,
            bytes_written: Arc::clone(&self.bytes_written),
        }))
    }

    fn replace(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let _s = trace::span("runtime.storage.replace");
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.replace(path, bytes)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[derive(Debug)]
struct TimedAppend {
    inner: Box<dyn AppendFile>,
    bytes_written: Arc<AtomicU64>,
}

impl AppendFile for TimedAppend {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let _s = trace::span("runtime.storage.append");
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        let _s = trace::span("runtime.storage.sync");
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decorator_counts_bytes_and_passes_data_through() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-storage-{}", std::process::id()));
        let s = TimedStorage::new();
        s.create_dir_all(&dir).unwrap();
        s.replace(&dir.join("a.txt"), b"hello").unwrap();
        let mut f = s.open_append(&dir.join("b.txt")).unwrap();
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(s.read(&dir.join("a.txt")).unwrap(), "hello");
        assert_eq!(s.read(&dir.join("b.txt")).unwrap(), "abc");
        assert_eq!(s.bytes_written(), 8);
        s.remove_dir_all(&dir).unwrap();
    }
}
