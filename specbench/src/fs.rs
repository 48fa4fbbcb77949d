//! A counting [`Fs`] wrapper: the storage layer's calls, bytes, fsyncs
//! and busy time, measured from outside through the public `Fs` trait.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use specdr::storage::Fs;

use crate::trace::Tracer;

/// Storage counts over some interval. Times are in nanoseconds.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Io {
    /// `append` calls (each syncs the file).
    pub append_calls: u64,
    pub append_bytes: u64,
    pub append_ns: u64,
    /// `write` calls (each syncs the file).
    pub write_calls: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    /// fsyncs the `Fs` contract implies: one per `append`, `write`,
    /// `rename` (parent directory) and `sync_dir`.
    pub fsyncs: u64,
    pub read_calls: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    /// Time inside every other call.
    pub other_ns: u64,
}

impl Io {
    fn zip(&self, o: &Io, f: impl Fn(u64, u64) -> u64) -> Io {
        Io {
            append_calls: f(self.append_calls, o.append_calls),
            append_bytes: f(self.append_bytes, o.append_bytes),
            append_ns: f(self.append_ns, o.append_ns),
            write_calls: f(self.write_calls, o.write_calls),
            write_bytes: f(self.write_bytes, o.write_bytes),
            write_ns: f(self.write_ns, o.write_ns),
            fsyncs: f(self.fsyncs, o.fsyncs),
            read_calls: f(self.read_calls, o.read_calls),
            read_bytes: f(self.read_bytes, o.read_bytes),
            read_ns: f(self.read_ns, o.read_ns),
            other_ns: f(self.other_ns, o.other_ns),
        }
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Io) -> Io {
        self.zip(earlier, |a, b| a - b)
    }

    /// Field-wise `self + other`.
    pub fn plus(&self, other: &Io) -> Io {
        self.zip(other, |a, b| a + b)
    }

    /// Time spent in storage calls of every kind.
    pub fn busy_ns(&self) -> u64 {
        self.append_ns + self.write_ns + self.read_ns + self.other_ns
    }
}

/// Wraps another [`Fs`] and counts every call. When the tracer records,
/// each call is also a `storage.*` span under the tracer's writer span.
pub struct CountingFs {
    inner: Arc<dyn Fs>,
    io: Mutex<Io>,
    tracer: Arc<Tracer>,
}

impl CountingFs {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Fs>, tracer: Arc<Tracer>) -> CountingFs {
        CountingFs {
            inner,
            io: Mutex::new(Io::default()),
            tracer,
        }
    }

    /// The counts so far.
    pub fn snapshot(&self) -> Io {
        *self.io.lock().expect("storage counts lock poisoned")
    }

    /// Runs one call as span `name`, then lets `count` record it with
    /// the call's time (ns). A failed call is not counted.
    fn counted<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> io::Result<T>,
        count: impl FnOnce(&mut Io, &T, u64),
    ) -> io::Result<T> {
        let parent = self.tracer.writer_parent();
        let span = (parent != 0).then(|| self.tracer.open(name, parent));
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(span) = span {
            self.tracer.close(span, Vec::new());
        }
        if let Ok(v) = &out {
            count(
                &mut self.io.lock().expect("storage counts lock poisoned"),
                v,
                ns,
            );
        }
        out
    }
}

impl Fs for CountingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.counted(
            "storage.read",
            || self.inner.read(path),
            |io, v, ns| {
                io.read_calls += 1;
                io.read_bytes += v.len() as u64;
                io.read_ns += ns;
            },
        )
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.counted(
            "storage.write",
            || self.inner.write(path, data),
            |io, _, ns| {
                io.write_calls += 1;
                io.write_bytes += data.len() as u64;
                io.write_ns += ns;
                io.fsyncs += 1;
            },
        )
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.counted(
            "storage.append",
            || self.inner.append(path, data),
            |io, _, ns| {
                io.append_calls += 1;
                io.append_bytes += data.len() as u64;
                io.append_ns += ns;
                io.fsyncs += 1;
            },
        )
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counted(
            "storage.rename",
            || self.inner.rename(from, to),
            |io, _, ns| {
                io.other_ns += ns;
                io.fsyncs += 1;
            },
        )
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.counted(
            "storage.create_dir",
            || self.inner.create_dir_all(path),
            other,
        )
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.counted("storage.remove", || self.inner.remove_file(path), other)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.counted("storage.remove", || self.inner.remove_dir_all(path), other)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.counted(
            "storage.sync_dir",
            || self.inner.sync_dir(path),
            |io, _, ns| {
                io.other_ns += ns;
                io.fsyncs += 1;
            },
        )
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.counted("storage.read_dir", || self.inner.read_dir(path), other)
    }
}

/// Counts a call that moves no file data.
fn other<T>(io: &mut Io, _: &T, ns: u64) {
    io.other_ns += ns;
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdr::storage::MemFs;

    #[test]
    fn counts_match_a_scripted_call_sequence() {
        let tracer = Arc::new(Tracer::new(true));
        let fs = CountingFs::new(MemFs::shared(), Arc::clone(&tracer));
        let dir = Path::new("/w");
        fs.create_dir_all(dir).unwrap();
        fs.append(&dir.join("wal"), b"abc").unwrap();
        fs.append(&dir.join("wal"), b"defgh").unwrap();
        fs.write(&dir.join("tmp"), b"0123456789").unwrap();
        fs.rename(&dir.join("tmp"), &dir.join("ckpt")).unwrap();
        fs.sync_dir(dir).unwrap();
        assert_eq!(fs.read(&dir.join("wal")).unwrap(), b"abcdefgh");
        assert_eq!(fs.read(&dir.join("ckpt")).unwrap().len(), 10);
        // A failed call counts neither a call nor bytes.
        assert!(fs.read(&dir.join("missing")).is_err());
        assert!(fs.exists(&dir.join("ckpt")));

        let s = fs.snapshot();
        assert_eq!(
            (s.append_calls, s.append_bytes, s.write_calls, s.write_bytes),
            (2, 8, 1, 10)
        );
        assert_eq!((s.read_calls, s.read_bytes), (2, 18));
        assert_eq!(s.fsyncs, 2 + 1 + 1 + 1);
        assert!(s.busy_ns() >= s.append_ns + s.write_ns);
        assert_eq!(s.since(&s), Io::default());
        assert_eq!(s.plus(&s).since(&s), s);

        // Spans are recorded only under an open writer span.
        assert!(tracer.spans().is_empty());
        let root = tracer.open("subcube.checkpoint", 0);
        tracer.set_writer_parent(root.id());
        fs.append(&dir.join("wal"), b"x").unwrap();
        tracer.set_writer_parent(0);
        tracer.close(root, Vec::new());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "storage.append");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(fs.snapshot().since(&s).append_calls, 1);
    }
}
