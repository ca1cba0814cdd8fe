//! The privatization method implementations.

mod cowglobals;
mod fsglobals;
mod manual;
pub(crate) mod pieglobals;
mod pipglobals;
mod swapglobals;
mod tlsglobals;
mod unprivatized;

pub use cowglobals::CowGlobals;
pub use fsglobals::FsGlobals;
pub use tlsglobals::HlsLevel;
pub use manual::ManualRefactor;
pub use pieglobals::{PieGlobals, ScanPolicy};
pub use pipglobals::PipGlobals;
pub use swapglobals::Swapglobals;
pub use tlsglobals::{TagPolicy, TlsGlobals};
pub use unprivatized::Unprivatized;

use crate::env::PrivatizeEnv;
use crate::rank::{CtxAction, RankInstance};
use crate::{Method, PrivatizeError, Privatizer, VarAccess};
use pvr_progimage::{LoadedImage, VarClass};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-method knobs (defaults are the paper's shipping configuration).
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Which variables the user tagged `thread_local` (TLSglobals only).
    pub tls_tags: TagPolicy,
    /// Pointer-fixup strategy (PIE- and COWglobals).
    pub scan: ScanPolicy,
    /// MPC hierarchical-local-storage levels \[21\]: privatize each listed
    /// variable at Process/PE/Rank granularity instead of the default
    /// per-rank copy, to reduce memory overhead (TLSglobals and
    /// -fmpc-privatize).
    pub hls_levels: HashMap<String, HlsLevel>,
}

/// Build a privatizer for `method` in environment `env`.
///
/// Fails with [`PrivatizeError::Unsupported`] when the environment lacks
/// the method's prerequisites — the portability story Tables 1/3 rate.
pub fn create_privatizer(
    method: Method,
    env: PrivatizeEnv,
    opts: Options,
) -> Result<Box<dyn Privatizer>, PrivatizeError> {
    match method {
        Method::Unprivatized => Ok(Box::new(Unprivatized::new(env)?)),
        Method::ManualRefactor => Ok(Box::new(ManualRefactor::new(env, Method::ManualRefactor)?)),
        Method::Photran => Ok(Box::new(ManualRefactor::new(env, Method::Photran)?)),
        Method::Swapglobals => Ok(Box::new(Swapglobals::new(env)?)),
        Method::TlsGlobals => Ok(Box::new(TlsGlobals::with_hls(
            env,
            opts.tls_tags,
            false,
            opts.hls_levels,
        )?)),
        Method::MpcPrivatize => Ok(Box::new(TlsGlobals::with_hls(
            env,
            TagPolicy::All,
            true,
            opts.hls_levels,
        )?)),
        Method::PipGlobals => Ok(Box::new(PipGlobals::new(env)?)),
        Method::FsGlobals => Ok(Box::new(FsGlobals::new(env)?)),
        Method::PieGlobals => Ok(Box::new(PieGlobals::new(env, opts.scan)?)),
        Method::CowGlobals => Ok(Box::new(CowGlobals::new(env, opts.scan)?)),
    }
}

/// State shared by all method implementations: the environment and the
/// base image `dlopen`ed into it.
pub(crate) struct Common {
    pub env: PrivatizeEnv,
    pub base_image: Arc<LoadedImage>,
}

impl Common {
    pub fn new(mut env: PrivatizeEnv) -> Result<Common, PrivatizeError> {
        let base_image = env.loader.dlopen(&env.binary.clone())?;
        Ok(Common { env, base_image })
    }
}

/// Every variable resolved into `img`: data variables to its data
/// segment, TLS variables into `tls`, a block built from its template
/// ([`process_tls_block`]).
pub(crate) fn image_accesses(img: &LoadedImage, tls: *mut u8) -> HashMap<String, VarAccess> {
    img.binary
        .spec
        .vars
        .iter()
        .map(|v| {
            let p = match v.class {
                VarClass::Global | VarClass::Static => img.data_addr_of(&v.name),
                // SAFETY: `tls` spans the image's TLS template, which holds
                // every TLS variable's offset.
                VarClass::ThreadLocal => img.tls_offset_of(&v.name).map(|o| unsafe { tls.add(o) }),
            };
            (v.name.clone(), VarAccess::Direct(p.expect("symbol in layout")))
        })
        .collect()
}

/// A process-wide TLS block built from the image's TLS template — what
/// unprivatized execution gives every rank on a PE (shared, i.e. wrong,
/// when ranks expect private values).
pub(crate) fn process_tls_block(image: &LoadedImage) -> Box<[u8]> {
    let tpl = image.tls_template();
    if tpl.is_empty() {
        vec![0u8; 8].into_boxed_slice()
    } else {
        tpl.to_vec().into_boxed_slice()
    }
}

/// The ranks of a method that loads one image per rank (PIP- and
/// FSglobals): each owns its image — process state of the loader, not
/// rank memory, which is why neither method migrates — and a TLS block
/// built from that image's template. Globals are reached IP-relatively
/// inside the rank's own image, so there is nothing to swap at a context
/// switch.
pub(crate) struct ImageRanks {
    ranks: Vec<(usize, Arc<LoadedImage>, Box<[u8]>)>,
    /// Bytes each rank's image duplicates: its code and data segments.
    pub copied_bytes: usize,
}

impl ImageRanks {
    pub fn new(common: &Common) -> ImageRanks {
        let layout = &common.env.binary.layout;
        ImageRanks {
            ranks: Vec::new(),
            copied_bytes: layout.code_size + layout.data_size,
        }
    }

    /// Give `rank` the freshly loaded `img`.
    pub fn add(&mut self, rank: usize, method: Method, img: Arc<LoadedImage>) -> RankInstance {
        let tls = process_tls_block(&img);
        let accesses = image_accesses(&img, tls.as_ptr() as *mut u8);
        let code_base = img.segment_addrs().code_base;
        self.ranks.push((rank, img, tls));
        RankInstance::new(rank, method, accesses, CtxAction::None, code_base)
    }

    /// `rank`'s data segment, for the runtime's segment-integrity audit.
    pub fn data_segment(&self, rank: usize) -> Option<(*const u8, usize)> {
        let (_, img, _) = self.ranks.iter().find(|(r, ..)| *r == rank)?;
        let seg = img.segment_addrs();
        Some((seg.data_base as *const u8, seg.data_len))
    }
}
