//! Shared-filesystem model for FSglobals.
//!
//! FSglobals copies the PIE binary once per virtual rank onto a shared
//! filesystem and `dlopen`s each copy. Its startup cost is therefore
//! dominated by filesystem I/O, and — unlike the other methods — it
//! *scales with node count*, because every process on every node writes
//! and reads its ranks' copies through the same shared filesystem servers.
//!
//! This model charges a per-operation latency plus a bandwidth term, with
//! an optional contention factor for concurrent clients, and actually
//! stores the file bytes (so copy sizes and capacity limits are real).
//! Costs are returned as simulated [`Duration`]s; callers decide whether
//! to sleep them (real-time runs) or account them (reported totals).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Cost parameters; defaults approximate a busy Lustre-like parallel FS.
#[derive(Debug, Clone, Copy)]
pub struct FsCostModel {
    /// Fixed cost per metadata operation (create/open/stat).
    pub op_latency: Duration,
    /// Streaming bandwidth per client, bytes/second.
    pub bandwidth_bps: f64,
    /// Additional per-client slowdown factor applied when `clients`
    /// concurrent clients hammer the FS: effective_bw = bw / (1 +
    /// contention * (clients - 1)).
    pub contention: f64,
}

impl Default for FsCostModel {
    fn default() -> Self {
        FsCostModel {
            op_latency: Duration::from_micros(500),
            bandwidth_bps: 1.2e9,
            contention: 0.35,
        }
    }
}

impl FsCostModel {
    /// Cost of transferring `bytes` with `clients` concurrent clients.
    pub fn transfer_cost(&self, bytes: usize, clients: usize) -> Duration {
        let slow = 1.0 + self.contention * (clients.saturating_sub(1)) as f64;
        let secs = bytes as f64 / (self.bandwidth_bps / slow);
        self.op_latency + Duration::from_secs_f64(secs)
    }
}

/// Filesystem errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Capacity limit would be exceeded — FSglobals needs space for one
    /// binary copy per rank, which is a real deployment constraint.
    NoSpace { requested: usize, available: usize },
    NotFound { path: String },
    AlreadyExists { path: String },
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NoSpace {
                requested,
                available,
            } => write!(f, "shared fs: no space ({requested} B requested, {available} B free)"),
            FsError::NotFound { path } => write!(f, "shared fs: {path}: not found"),
            FsError::AlreadyExists { path } => write!(f, "shared fs: {path}: already exists"),
        }
    }
}

impl std::error::Error for FsError {}

/// The shared filesystem visible to all simulated nodes.
pub struct SharedFs {
    /// Each file's bytes, refcounted so [`SharedFs::link_file`] can share
    /// one allocation across many paths (hardlink/reflink semantics).
    files: HashMap<String, Arc<[u8]>>,
    cost: FsCostModel,
    capacity: Option<usize>,
    used: usize,
    /// Total simulated I/O time charged so far (for reports).
    total_cost: Duration,
    /// Fault injection: writes remaining before the next one fails with
    /// `NoSpace` regardless of real capacity (None = off).
    fail_writes_after: Option<u64>,
}

impl SharedFs {
    pub fn new() -> SharedFs {
        SharedFs::with_cost_model(FsCostModel::default())
    }

    /// A filesystem with a byte-capacity limit from the start — the
    /// deployment constraint FSglobals runs into (one binary copy per
    /// rank must fit).
    pub fn with_capacity(cap: usize) -> SharedFs {
        let mut fs = SharedFs::new();
        fs.capacity = Some(cap);
        fs
    }

    pub fn with_cost_model(cost: FsCostModel) -> SharedFs {
        SharedFs {
            files: HashMap::new(),
            cost,
            capacity: None,
            used: 0,
            total_cost: Duration::ZERO,
            fail_writes_after: None,
        }
    }

    /// Impose a capacity limit (failure injection). Kept for tests: fault hook.
    pub fn set_capacity(&mut self, cap: Option<usize>) {
        self.capacity = cap;
    }

    /// The configured capacity limit, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Free bytes under the capacity limit (`usize::MAX` when unlimited).
    pub fn bytes_free(&self) -> usize {
        match self.capacity {
            Some(cap) => cap.saturating_sub(self.used),
            None => usize::MAX,
        }
    }

    /// Fault injection: let the next `n` writes succeed, then fail every
    /// subsequent write with `NoSpace` — models a quota or an FS filling
    /// up *under* a run whose capacity probe had passed. Kept for tests: fault hook.
    pub fn fail_writes_after(&mut self, n: u64) {
        self.fail_writes_after = Some(n);
    }

    /// Admission control for any operation that creates a file of `len`
    /// bytes at `path`: duplicate paths, injected write failures, and
    /// the capacity limit — shared by writes, copies, and links so every
    /// creation charges capacity identically.
    fn admit(&mut self, path: &str, len: usize) -> Result<(), FsError> {
        if self.files.contains_key(path) {
            return Err(FsError::AlreadyExists {
                path: path.to_string(),
            });
        }
        if let Some(left) = self.fail_writes_after.as_mut() {
            if *left == 0 {
                return Err(FsError::NoSpace {
                    requested: len,
                    available: 0,
                });
            }
            *left -= 1;
        }
        if let Some(cap) = self.capacity {
            let available = cap.saturating_sub(self.used);
            if len > available {
                return Err(FsError::NoSpace {
                    requested: len,
                    available,
                });
            }
        }
        Ok(())
    }

    /// Write a file; returns the simulated cost of doing so.
    pub fn write_file(
        &mut self,
        path: &str,
        bytes: Vec<u8>,
        clients: usize,
    ) -> Result<Duration, FsError> {
        self.admit(path, bytes.len())?;
        let cost = self.cost.transfer_cost(bytes.len(), clients);
        self.used += bytes.len();
        self.files.insert(path.to_string(), bytes.into());
        self.total_cost += cost;
        Ok(cost)
    }

    /// Read a file's size (models the loader reading the copy); returns
    /// (size, simulated cost).
    pub fn read_file(&mut self, path: &str, clients: usize) -> Result<(usize, Duration), FsError> {
        let len = self
            .files
            .get(path)
            .ok_or_else(|| FsError::NotFound {
                path: path.to_string(),
            })?
            .len();
        let cost = self.cost.transfer_cost(len, clients);
        self.total_cost += cost;
        Ok((len, cost))
    }

    /// Copy a file server-side; returns the simulated cost (a read + a
    /// write through the client). Kept for tests: oracle of [`Self::link_file`].
    pub fn copy_file(
        &mut self,
        src: &str,
        dst: &str,
        clients: usize,
    ) -> Result<Duration, FsError> {
        let bytes: Vec<u8> = self
            .files
            .get(src)
            .ok_or_else(|| FsError::NotFound {
                path: src.to_string(),
            })?
            .to_vec();
        let read_cost = self.cost.transfer_cost(bytes.len(), clients);
        self.total_cost += read_cost;
        let write_cost = self.write_file(dst, bytes, clients)?;
        Ok(read_cost + write_cost)
    }

    /// Link a file (hardlink/reflink): the new path shares `src`'s byte
    /// allocation instead of duplicating it. Deliberately charges the
    /// SAME simulated cost, capacity, and injected-failure budget as
    /// [`Self::copy_file`] — FSglobals still models one binary copy per
    /// rank on a space-limited shared FS, so every capacity probe,
    /// `NoSpace` failure, and reported I/O duration is bit-identical to
    /// the copy path. What a link saves is the *host-side* memcpy, which
    /// is pure wall-clock.
    pub fn link_file(
        &mut self,
        src: &str,
        dst: &str,
        clients: usize,
    ) -> Result<Duration, FsError> {
        let shared = self.files.get(src).cloned().ok_or_else(|| FsError::NotFound {
            path: src.to_string(),
        })?;
        let len = shared.len();
        let read_cost = self.cost.transfer_cost(len, clients);
        self.total_cost += read_cost;
        self.admit(dst, len)?;
        let write_cost = self.cost.transfer_cost(len, clients);
        self.used += len;
        self.files.insert(dst.to_string(), shared);
        self.total_cost += write_cost;
        Ok(read_cost + write_cost)
    }

    pub fn delete_file(&mut self, path: &str) -> Result<(), FsError> {
        match self.files.remove(path) {
            Some(bytes) => {
                self.used -= bytes.len();
                Ok(())
            }
            None => Err(FsError::NotFound {
                path: path.to_string(),
            }),
        }
    }

    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Files on the FS. Kept for tests: a fact no report carries.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    pub fn bytes_used(&self) -> usize {
        self.used
    }

    /// Total simulated I/O time charged so far.
    pub fn total_cost(&self) -> Duration {
        self.total_cost
    }
}

impl Default for SharedFs {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SharedFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedFs")
            .field("files", &self.files.len())
            .field("bytes_used", &self.used)
            .field("total_cost", &self.total_cost)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip_with_costs() {
        let mut fs = SharedFs::new();
        let c1 = fs.write_file("/a", vec![0u8; 1 << 20], 1).unwrap();
        assert!(c1 > Duration::ZERO);
        let (size, c2) = fs.read_file("/a", 1).unwrap();
        assert_eq!(size, 1 << 20);
        assert!(c2 > Duration::ZERO);
        assert_eq!(fs.total_cost(), c1 + c2);
    }

    #[test]
    fn bigger_files_cost_more() {
        let m = FsCostModel::default();
        assert!(m.transfer_cost(100 << 20, 1) > m.transfer_cost(1 << 20, 1));
    }

    #[test]
    fn contention_slows_transfers() {
        let m = FsCostModel::default();
        assert!(m.transfer_cost(10 << 20, 64) > m.transfer_cost(10 << 20, 1));
    }

    #[test]
    fn capacity_enforced() {
        let mut fs = SharedFs::new();
        fs.set_capacity(Some(1000));
        fs.write_file("/a", vec![0u8; 600], 1).unwrap();
        match fs.write_file("/b", vec![0u8; 600], 1) {
            Err(FsError::NoSpace { available, .. }) => assert_eq!(available, 400),
            other => panic!("expected NoSpace, got {other:?}"),
        }
        // deleting frees space
        fs.delete_file("/a").unwrap();
        fs.write_file("/b", vec![0u8; 600], 1).unwrap();
    }

    #[test]
    fn with_capacity_reports_free_space() {
        let mut fs = SharedFs::with_capacity(1000);
        assert_eq!(fs.capacity(), Some(1000));
        assert_eq!(fs.bytes_free(), 1000);
        fs.write_file("/a", vec![0u8; 300], 1).unwrap();
        assert_eq!(fs.bytes_free(), 700);
        // unlimited fs reports "infinite" free space
        assert_eq!(SharedFs::new().bytes_free(), usize::MAX);
    }

    #[test]
    fn fail_writes_after_trips_on_the_nth_write() {
        let mut fs = SharedFs::new();
        fs.fail_writes_after(2);
        fs.write_file("/a", vec![1], 1).unwrap();
        fs.write_file("/b", vec![2], 1).unwrap();
        match fs.write_file("/c", vec![3], 1) {
            Err(FsError::NoSpace { available, .. }) => assert_eq!(available, 0),
            other => panic!("expected injected NoSpace, got {other:?}"),
        }
        // reads are unaffected
        assert!(fs.read_file("/a", 1).is_ok());
    }

    #[test]
    fn duplicate_write_rejected() {
        let mut fs = SharedFs::new();
        fs.write_file("/a", vec![1], 1).unwrap();
        assert!(matches!(
            fs.write_file("/a", vec![2], 1),
            Err(FsError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn copy_file_duplicates_bytes() {
        let mut fs = SharedFs::new();
        fs.write_file("/bin", vec![7u8; 4096], 1).unwrap();
        let cost = fs.copy_file("/bin", "/bin.rank0", 8).unwrap();
        assert!(cost > Duration::ZERO);
        assert!(fs.exists("/bin.rank0"));
        assert_eq!(fs.bytes_used(), 8192);
    }

    #[test]
    fn link_file_charges_like_copy_but_shares_bytes() {
        let mut copied = SharedFs::new();
        let mut linked = SharedFs::new();
        for fs in [&mut copied, &mut linked] {
            fs.write_file("/bin", vec![7u8; 4096], 1).unwrap();
        }
        let c = copied.copy_file("/bin", "/bin.rank0", 8).unwrap();
        let l = linked.link_file("/bin", "/bin.rank0", 8).unwrap();
        // Identical observable accounting: simulated cost and logical
        // bytes — the model's behavior cannot depend on which path ran.
        assert_eq!(c, l);
        assert_eq!(copied.bytes_used(), linked.bytes_used());
        assert_eq!(copied.total_cost(), linked.total_cost());
        // ...but only the copy committed a second allocation.
        assert!(!Arc::ptr_eq(&copied.files["/bin"], &copied.files["/bin.rank0"]));
        assert!(Arc::ptr_eq(&linked.files["/bin"], &linked.files["/bin.rank0"]));
        // link contents read back identically and deletes free capacity
        let (size, _) = linked.read_file("/bin.rank0", 1).unwrap();
        assert_eq!(size, 4096);
        linked.delete_file("/bin.rank0").unwrap();
        assert_eq!(linked.bytes_used(), 4096);
    }

    #[test]
    fn link_file_respects_capacity_and_injected_failures() {
        // capacity: a link still needs the same space as a copy
        let mut fs = SharedFs::with_capacity(6000);
        fs.write_file("/bin", vec![1u8; 4096], 1).unwrap();
        match fs.link_file("/bin", "/bin.rank0", 1) {
            Err(FsError::NoSpace { available, .. }) => assert_eq!(available, 6000 - 4096),
            other => panic!("expected NoSpace, got {other:?}"),
        }
        // injected write failures trip links exactly like writes
        let mut fs = SharedFs::new();
        fs.write_file("/bin", vec![1u8; 64], 1).unwrap();
        fs.fail_writes_after(1);
        fs.link_file("/bin", "/l1", 1).unwrap();
        assert!(matches!(
            fs.link_file("/bin", "/l2", 1),
            Err(FsError::NoSpace { .. })
        ));
        // duplicate destinations rejected
        assert!(matches!(
            fs.link_file("/bin", "/l1", 1),
            Err(FsError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn missing_file_errors() {
        let mut fs = SharedFs::new();
        assert!(matches!(
            fs.read_file("/nope", 1),
            Err(FsError::NotFound { .. })
        ));
        assert!(matches!(
            fs.copy_file("/nope", "/x", 1),
            Err(FsError::NotFound { .. })
        ));
        assert!(matches!(fs.delete_file("/nope"), Err(FsError::NotFound { .. })));
    }
}
