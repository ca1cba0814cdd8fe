//! FSglobals (§3.2): copy the PIE binary per rank onto a shared
//! filesystem, then `dlopen` (POSIX-standard) each copy.
//!
//! Same segment-duplication idea as PIPglobals, but the duplication
//! vehicle is the filesystem instead of linker namespaces:
//!
//! * **pro**: portable beyond GNU/Linux (no `dlmopen`), no namespace cap;
//! * **con**: needs a shared filesystem with space for one binary copy per
//!   rank, and startup pays real I/O that *scales with rank count and
//!   node count* (Fig. 5's outlier);
//! * **con**: shared objects are not supported (copying every dependency
//!   per rank while avoiding system components was deemed impractical);
//! * **con**: no migration, same interception problem as PIPglobals.

use super::{Common, ImageRanks};
use crate::env::PrivatizeEnv;
use crate::probe::prerequisites;
use crate::rank::RankInstance;
use crate::{Method, PrivatizeError, Privatizer};
use pvr_isomalloc::RankMemory;
use std::time::Duration;

pub struct FsGlobals {
    common: Common,
    /// One image per rank, each `dlopen`ed from its own file copy.
    ranks: ImageRanks,
    io_cost: Duration,
    deployed_path: String,
    /// Every file THIS privatizer wrote to the shared FS (the deployed
    /// original if we deployed it, plus one copy per instantiated rank).
    /// Deleted on drop so a torn-down startup (method fallback, error)
    /// releases its FS footprint instead of leaking it.
    created_paths: Vec<String>,
}

impl FsGlobals {
    pub fn new(env: PrivatizeEnv) -> Result<FsGlobals, PrivatizeError> {
        prerequisites(Method::FsGlobals, &env)?;
        let common = Common::new(env)?;

        // Deploy the original binary to the shared FS (once per job).
        let deployed_path = format!("/scratch/{}", common.env.binary.spec.name);
        let file_size = common.env.binary.file_size();
        let mut io_cost = Duration::ZERO;
        let mut created_paths = Vec::new();
        {
            // Checked above, but never panic on a missing mount: an FS
            // that disappears between the guard and here must surface as
            // the same degradable error the probe/fallback chain handles.
            let Some(fs_arc) = common.env.shared_fs.as_ref().cloned() else {
                return Err(PrivatizeError::Unsupported {
                    method: Method::FsGlobals,
                    reason: "no shared filesystem mounted".to_string(),
                });
            };
            let mut fs = fs_arc.lock();
            if !fs.exists(&deployed_path) {
                io_cost += fs
                    .write_file(
                        &deployed_path,
                        vec![0x7Fu8; file_size],
                        common.env.concurrent_processes,
                    )
                    .map_err(PrivatizeError::Fs)?;
                created_paths.push(deployed_path.clone());
            }
        }

        Ok(FsGlobals {
            ranks: ImageRanks::new(&common),
            common,
            io_cost,
            deployed_path,
            created_paths,
        })
    }
}

impl Drop for FsGlobals {
    fn drop(&mut self) {
        // Release this process's FS footprint. Without this, a startup
        // that fails at rank k (NoSpace) leaks k binary copies — and a
        // method fallback could never reclaim the space it needs.
        if let Some(fs_arc) = self.common.env.shared_fs.as_ref() {
            let mut fs = fs_arc.lock();
            for path in self.created_paths.drain(..) {
                let _ = fs.delete_file(&path);
            }
        }
    }
}

impl Privatizer for FsGlobals {
    fn method(&self) -> Method {
        Method::FsGlobals
    }

    fn instantiate_rank(
        &mut self,
        rank: usize,
        _mem: &mut RankMemory,
    ) -> Result<RankInstance, PrivatizeError> {
        let binary = self.common.env.binary.clone();
        let clients = self.common.env.concurrent_processes;

        // 1. copy the binary on the shared FS (the expensive part)
        let copy_path = format!("{}.vp{rank}", self.deployed_path);
        let Some(fs_arc) = self.common.env.shared_fs.as_ref().cloned() else {
            // An unmounted FS mid-startup degrades like any other FS
            // failure instead of panicking the whole runtime.
            return Err(PrivatizeError::Unsupported {
                method: Method::FsGlobals,
                reason: "no shared filesystem mounted".to_string(),
            });
        };
        {
            let mut fs = fs_arc.lock();
            // Per-rank copies are FS links (one physical copy per job,
            // a link per rank): a link charges the capacity and cost of
            // a full copy (see `SharedFs::link_file`), so every probe,
            // `NoSpace` and reported duration is that of a copy, without
            // the host-side byte duplication.
            self.io_cost += fs
                .link_file(&self.deployed_path, &copy_path, clients)
                .map_err(PrivatizeError::Fs)?;
            // The copy exists on the FS from here on; track it so it is
            // cleaned up on any failure below and on drop.
            self.created_paths.push(copy_path.clone());
            // the loader reads the copy back in
            match fs.read_file(&copy_path, clients) {
                Ok((_, read_cost)) => self.io_cost += read_cost,
                Err(e) => {
                    let _ = fs.delete_file(&copy_path);
                    self.created_paths.pop();
                    return Err(PrivatizeError::Fs(e));
                }
            }
        }

        // 2. dlopen the distinct file: a distinct image, plain POSIX.
        let copy = binary.copy_as(&copy_path);
        let img = match self.common.env.loader.dlopen(&copy) {
            Ok(img) => img,
            Err(e) => {
                let _ = fs_arc.lock().delete_file(&copy_path);
                self.created_paths.pop();
                return Err(e.into());
            }
        };

        Ok(self.ranks.add(rank, Method::FsGlobals, img))
    }

    fn supports_migration(&self) -> bool {
        false
    }

    fn simulated_startup_cost(&self) -> Duration {
        self.io_cost
    }

    fn per_rank_copied_bytes(&self) -> usize {
        self.ranks.copied_bytes
    }

    fn rank_data_segment(&self, rank: usize) -> Option<(*const u8, usize)> {
        self.ranks.data_segment(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use pvr_progimage::{link, ImageSpec, SharedFs};
    use std::sync::Arc;

    fn bin() -> Arc<pvr_progimage::ProgramBinary> {
        link(
            ImageSpec::builder("app")
                .global("g", 8)
                .static_var("s", 8)
                .code_padding(1 << 20)
                .build(),
        )
    }

    #[test]
    fn privatizes_with_io_cost() {
        let mut p = FsGlobals::new(PrivatizeEnv::new(bin())).unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        let r0 = p.instantiate_rank(0, &mut m0).unwrap();
        let r1 = p.instantiate_rank(1, &mut m1).unwrap();
        r0.access("g").write_u64(1);
        r1.access("g").write_u64(2);
        assert_eq!(r0.access("g").read_u64(), 1);
        r0.access("s").write_u64(7);
        r1.access("s").write_u64(8);
        assert_eq!(r0.access("s").read_u64(), 7, "statics privatized");
        // startup paid real simulated I/O, growing with ranks
        let two_ranks = p.simulated_startup_cost();
        assert!(two_ranks > Duration::ZERO);
        let mut m2 = RankMemory::new();
        let _ = p.instantiate_rank(2, &mut m2).unwrap();
        assert!(p.simulated_startup_cost() > two_ranks);
    }

    #[test]
    fn no_shared_fs_rejected() {
        let env = PrivatizeEnv::new(bin()).with_shared_fs(None);
        assert!(matches!(
            FsGlobals::new(env),
            Err(PrivatizeError::Unsupported { .. })
        ));
    }

    #[test]
    fn shared_objects_rejected() {
        let b = link(
            ImageSpec::builder("app")
                .global("g", 8)
                .uses_shared_objects(true)
                .build(),
        );
        assert!(matches!(
            FsGlobals::new(PrivatizeEnv::new(b)),
            Err(PrivatizeError::Unsupported { .. })
        ));
    }

    #[test]
    fn fs_out_of_space_fails_startup() {
        let fs = Arc::new(Mutex::new(SharedFs::new()));
        fs.lock().set_capacity(Some(2 << 20)); // fits original only
        let env = PrivatizeEnv::new(bin()).with_shared_fs(Some(fs));
        let mut p = FsGlobals::new(env).unwrap();
        let mut mem = RankMemory::new();
        match p.instantiate_rank(0, &mut mem) {
            Err(PrivatizeError::Fs(pvr_progimage::FsError::NoSpace { .. })) => {}
            other => panic!("expected NoSpace, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn fs_out_of_space_cleans_up_partial_copies() {
        // Regression: a startup failing at rank k used to leak the k
        // already-copied binaries (plus the deploy) on the shared FS, so
        // no later attempt could ever reclaim the space.
        let file_size = bin().file_size();
        let fs = Arc::new(Mutex::new(SharedFs::with_capacity(file_size * 3)));
        {
            let env = PrivatizeEnv::new(bin()).with_shared_fs(Some(fs.clone()));
            let mut p = FsGlobals::new(env).unwrap();
            let mut ok = 0;
            loop {
                let mut mem = RankMemory::new();
                match p.instantiate_rank(ok, &mut mem) {
                    Ok(_) => ok += 1,
                    Err(PrivatizeError::Fs(pvr_progimage::FsError::NoSpace { .. })) => break,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            assert_eq!(ok, 2, "deploy + 2 copies fit in 3x capacity");
            assert!(fs.lock().bytes_used() > 0);
        }
        // Dropping the failed privatizer releases everything it wrote.
        assert_eq!(fs.lock().bytes_used(), 0, "partial state must be released");
        assert_eq!(fs.lock().file_count(), 0);
        // A retry sized within the budget now succeeds.
        let env = PrivatizeEnv::new(bin()).with_shared_fs(Some(fs));
        let mut p = FsGlobals::new(env).unwrap();
        for rank in 0..2 {
            let mut mem = RankMemory::new();
            p.instantiate_rank(rank, &mut mem).unwrap();
        }
    }

    #[test]
    fn rank_data_segments_are_distinct_per_rank() {
        let mut p = FsGlobals::new(PrivatizeEnv::new(bin())).unwrap();
        let mut m0 = RankMemory::new();
        let mut m1 = RankMemory::new();
        p.instantiate_rank(0, &mut m0).unwrap();
        p.instantiate_rank(1, &mut m1).unwrap();
        let (b0, l0) = p.rank_data_segment(0).unwrap();
        let (b1, l1) = p.rank_data_segment(1).unwrap();
        assert_ne!(b0, b1, "each rank gets its own data segment copy");
        assert_eq!(l0, l1);
        assert!(p.rank_data_segment(7).is_none());
    }

    #[test]
    fn many_ranks_no_namespace_limit() {
        // unlike PIPglobals, FSglobals scales past 12 VPs per process
        let mut p = FsGlobals::new(PrivatizeEnv::new(bin())).unwrap();
        for rank in 0..20 {
            let mut mem = RankMemory::new();
            p.instantiate_rank(rank, &mut mem).unwrap();
        }
    }
}
