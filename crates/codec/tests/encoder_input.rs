//! Encoder input contract: a frame of the wrong size or a mask of the
//! wrong length is refused with a `CodecError` before anything is
//! loaded — never a panic — on every entry point (`encode_frame`,
//! `encode_p_with_ref`, `SceneEncoder::encode_frame`), and the coder
//! stays usable afterwards.

use m4ps_codec::{
    CodecError, EncoderConfig, FrameView, SceneEncoder, VideoObjectCoder, VolHeader, VopKind,
};
use m4ps_memsim::{AddressSpace, NullModel};
use m4ps_vidgen::{Resolution, Scene, SceneSpec, YuvFrame};

fn view(f: &YuvFrame) -> FrameView<'_> {
    FrameView {
        width: f.resolution.width,
        height: f.resolution.height,
        y: &f.y,
        u: &f.u,
        v: &f.v,
    }
}

fn scene(resolution: Resolution, objects: usize) -> Scene {
    Scene::new(SceneSpec {
        resolution,
        objects,
        seed: 3,
    })
}

fn vol(binary_shape: bool, enhancement: bool) -> VolHeader {
    let qcif = Resolution::QCIF;
    VolHeader {
        vo_id: 0,
        vol_id: u32::from(enhancement),
        width: qcif.width,
        height: qcif.height,
        binary_shape,
        enhancement,
    }
}

#[test]
fn wrong_size_frame_on_reference_path_is_an_error() {
    let mut space = AddressSpace::new();
    let mut mem = NullModel::new();
    let config = EncoderConfig::fast_test();
    let qcif = scene(Resolution::QCIF, 0);
    let cif = scene(Resolution::CIF, 0);
    let mut base = VideoObjectCoder::with_vol(&mut space, vol(false, false), config).unwrap();
    let mut enh = VideoObjectCoder::with_vol(&mut space, vol(false, true), config).unwrap();
    base.encode_frame(&mut mem, &view(&qcif.frame(0)), None)
        .unwrap();
    let ext = base.last_anchor().unwrap();

    let big = cif.frame(1);
    let err = enh
        .encode_p_with_ref(&mut mem, &view(&big), None, ext)
        .unwrap_err();
    assert!(
        matches!(
            err,
            CodecError::DimensionMismatch {
                expected: (176, 144),
                found: (352, 288)
            }
        ),
        "{err:?}"
    );
    // The refused frame consumed nothing: the next one codes normally.
    let vop = enh
        .encode_p_with_ref(&mut mem, &view(&qcif.frame(1)), None, ext)
        .unwrap();
    assert_eq!((vop.kind, vop.display_index), (VopKind::P, 0));
}

#[test]
fn short_mask_is_an_error_on_both_coder_paths() {
    let mut space = AddressSpace::new();
    let mut mem = NullModel::new();
    let config = EncoderConfig::fast_test();
    let s = scene(Resolution::QCIF, 1);
    let frame = s.frame(0);
    let mask = s.alpha(0, 0).data;
    let short = &mask[..mask.len() / 2];
    let mut base = VideoObjectCoder::with_vol(&mut space, vol(true, false), config).unwrap();
    let mut enh = VideoObjectCoder::with_vol(&mut space, vol(true, true), config).unwrap();

    let err = base
        .encode_frame(&mut mem, &view(&frame), Some(short))
        .unwrap_err();
    assert!(matches!(err, CodecError::InvalidConfig(_)), "{err:?}");
    let vops = base
        .encode_frame(&mut mem, &view(&frame), Some(&mask))
        .unwrap();
    assert_eq!(vops[0].kind, VopKind::I);

    let ext = base.last_anchor().unwrap();
    let err = enh
        .encode_p_with_ref(&mut mem, &view(&frame), Some(short), ext)
        .unwrap_err();
    assert!(matches!(err, CodecError::InvalidConfig(_)), "{err:?}");
    // A rectangular frame without a mask is still refused on a shape
    // layer, through the same check.
    let err = enh
        .encode_p_with_ref(&mut mem, &view(&frame), None, ext)
        .unwrap_err();
    assert!(matches!(err, CodecError::InvalidConfig(_)), "{err:?}");
}

#[test]
fn scene_encoder_refuses_short_masks_and_small_frames() {
    let mut space = AddressSpace::new();
    let mut mem = NullModel::new();
    let res = Resolution::CIF;
    let s = scene(res, 2);
    let mut enc = SceneEncoder::new(
        &mut space,
        res.width,
        res.height,
        2,
        1,
        EncoderConfig::fast_test(),
    )
    .unwrap();
    let frame = s.frame(0);
    let masks = [s.alpha(0, 0).data, s.alpha(0, 1).data];

    let short: [&[u8]; 2] = [&masks[0], &masks[1][..100]];
    let err = enc
        .encode_frame(&mut mem, &view(&frame), &short)
        .unwrap_err();
    assert!(matches!(err, CodecError::InvalidConfig(_)), "{err:?}");

    let small = scene(Resolution::QCIF, 2).frame(0);
    let full: [&[u8]; 2] = [&masks[0], &masks[1]];
    let err = enc
        .encode_frame(&mut mem, &view(&small), &full)
        .unwrap_err();
    assert!(
        matches!(
            err,
            CodecError::DimensionMismatch {
                expected: (352, 288),
                found: (176, 144)
            }
        ),
        "{err:?}"
    );

    // Neither refusal counted a frame; a valid one still encodes.
    enc.encode_frame(&mut mem, &view(&frame), &full).unwrap();
    assert_eq!(enc.stats().frames, 1);
    let streams = enc.finish(&mut mem).unwrap();
    assert_eq!(streams.len(), 2);
}
