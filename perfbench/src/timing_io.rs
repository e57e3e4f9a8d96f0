//! A timing wrapper around the store's real filesystem backend.
//!
//! Passed through `StoreConfig::io` in the traced `ingest` run: every
//! filesystem call the WAL, checkpoint and recovery code makes becomes an
//! `io.*` span (a child of the store call that caused it), and written and
//! read bytes are counted.

use crate::trace;
use hilog_store::{IoStats, OpenMode, RealIo, StoreFile, StoreIo};
use std::io::{self, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Bytes moved through the wrapper (statistics only, hence `Relaxed`).
#[derive(Debug, Default)]
pub struct IoBytes {
    written: AtomicU64,
    read: AtomicU64,
}

impl IoBytes {
    /// `(written, read)` so far.
    pub fn get(&self) -> (u64, u64) {
        (self.written.load(Relaxed), self.read.load(Relaxed))
    }
}

#[derive(Debug)]
pub struct TimingIo {
    inner: RealIo,
    bytes: Arc<IoBytes>,
}

impl TimingIo {
    pub fn new() -> (TimingIo, Arc<IoBytes>) {
        let bytes = Arc::new(IoBytes::default());
        let io = TimingIo {
            inner: RealIo::new(),
            bytes: Arc::clone(&bytes),
        };
        (io, bytes)
    }
}

fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = trace::span(name);
    let out = f();
    span.end();
    out
}

#[derive(Debug)]
struct TimingFile {
    inner: Box<dyn StoreFile>,
    bytes: Arc<IoBytes>,
}

impl StoreFile for TimingFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let n = timed("io.read", || self.inner.read_to_end(buf))?;
        self.bytes.read.fetch_add(n as u64, Relaxed);
        Ok(n)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        timed("io.write", || self.inner.write_all(buf))?;
        self.bytes.written.fetch_add(buf.len() as u64, Relaxed);
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        timed("io.sync", || self.inner.sync_data())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        timed("io.meta", || self.inner.set_len(len))
    }

    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        timed("io.meta", || self.inner.seek(pos))
    }
}

impl StoreIo for TimingIo {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StoreFile>> {
        let inner = timed("io.meta", || self.inner.open(path, mode))?;
        Ok(Box::new(TimingFile {
            inner,
            bytes: Arc::clone(&self.bytes),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let data = timed("io.read", || self.inner.read(path))?;
        self.bytes.read.fetch_add(data.len() as u64, Relaxed);
        Ok(data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        timed("io.meta", || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        timed("io.meta", || self.inner.remove_file(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        timed("io.meta", || self.inner.create_dir_all(path))
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        timed("io.meta", || self.inner.list_dir(path))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        timed("io.meta", || self.inner.file_len(path))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        timed("io.sync", || self.inner.sync_dir(path))
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }
}
