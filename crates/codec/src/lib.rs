//! A from-scratch MPEG-4 visual-profile encoder/decoder whose every data
//! access is traced through a simulated memory hierarchy.
//!
//! This crate reimplements the algorithmic structure of the MoMuSys ISO
//! reference codec the paper measures:
//!
//! - **Object model** — visual objects (VOs) sampled into video object
//!   planes (VOPs), each coded as I (intra), P (forward-predicted) or
//!   B (bidirectionally interpolated), with the decode-order reordering
//!   of the paper's Figure 1.
//! - **Motion estimation** — block SAD search over restricted windows
//!   with one-pixel offsets and half-pel refinement (the encoder's
//!   dominant cost; the source of the paper's "blocking creates
//!   locality" observation).
//! - **Texture coding** — 8×8 DCT, scalar quantization, zigzag scan and
//!   run-level entropy coding.
//! - **Shape coding** — binary alpha blocks compressed with a
//!   context-based adaptive arithmetic coder (CAE), enabling
//!   arbitrary-shaped VOPs for the multi-object experiments.
//! - **Scalability** — multi-layer VOLs (temporal enhancement layers)
//!   for the 2-layer experiments.
//!
//! The codec is generic over [`m4ps_memsim::MemModel`]: run it over a
//! [`m4ps_memsim::Hierarchy`] to collect the paper's statistics, or a
//! [`m4ps_memsim::NullModel`] for fast functional use.
//!
//! # Examples
//!
//! ```
//! use m4ps_codec::{EncoderConfig, FrameView, VideoObjectCoder};
//! use m4ps_memsim::{AddressSpace, NullModel};
//! use m4ps_vidgen::{Resolution, Scene, SceneSpec};
//!
//! # fn main() -> Result<(), m4ps_codec::CodecError> {
//! let scene = Scene::new(SceneSpec {
//!     resolution: Resolution::QCIF,
//!     objects: 0,
//!     seed: 1,
//! });
//! let mut space = AddressSpace::new();
//! let mut mem = NullModel::new();
//! let config = EncoderConfig::fast_test();
//! let mut coder = VideoObjectCoder::new(&mut space, 176, 144, config)?;
//! let mut vops = Vec::new();
//! for t in 0..4 {
//!     let f = scene.frame(t);
//!     let view = FrameView { width: 176, height: 144, y: &f.y, u: &f.u, v: &f.v };
//!     vops.extend(coder.encode_frame(&mut mem, &view, None)?);
//! }
//! vops.extend(coder.flush(&mut mem)?);
//! assert!(!vops.is_empty());
//! # Ok(())
//! # }
//! ```

mod arith;
mod config;
mod decoder;
mod encoder;
mod error;
mod header;
mod mbops;
mod mc;
mod me;
mod plane;
mod rate;
mod scene_session;
mod shape;
mod slices;
mod texture;
mod types;
mod vlc;

pub use arith::{ArithDecoder, ArithEncoder, ContextModel};
pub use config::{EncoderConfig, GopStructure, SearchStrategy};
pub use decoder::{DecodedVop, VideoObjectDecoder};
pub use encoder::{EncodedVop, FrameView, ReconPlanes, VideoObjectCoder, VopStats};
pub use error::CodecError;
pub use header::{VolHeader, VopHeader, MAX_DIMENSION};
pub use mc::motion_compensate_block;
pub use me::{MotionSearch, SearchOutcome};
pub use plane::{FrameViewMut, PlaneViewMut, TracedFrame, TracedPlane, PAD};
pub use rate::RateController;
pub use scene_session::{SceneDecoder, SceneEncoder, SessionStats};
pub use shape::{decode_alpha_plane, encode_alpha_plane, BabClass};
pub use slices::{Scheduling, SCHED_ENV};
pub use texture::{QuantizedBlock, TextureCoder};
pub use types::{MacroblockKind, MotionVector, VopKind};
pub use vlc::{get_se, get_ue, put_se, put_ue};
