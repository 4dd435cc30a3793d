//! Multi-object scene composition with deterministic motion.

use crate::frame::{AlphaMask, Resolution, YuvFrame};
use crate::texture::{fill_smooth_texture, hash_at, row_key};
use m4ps_testkit::rng::Rng;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Scene parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SceneSpec {
    /// Frame dimensions.
    pub resolution: Resolution,
    /// Number of foreground visual objects (0 = background only).
    pub objects: usize,
    /// Seed for object placement, size, velocity and texture.
    pub seed: u64,
}

/// One moving elliptical object.
#[derive(Debug, Clone, Copy)]
struct MovingObject {
    /// Initial center.
    cx0: f64,
    cy0: f64,
    /// Velocity in pixels per frame.
    vx: f64,
    vy: f64,
    /// Ellipse radii.
    rx: f64,
    ry: f64,
    /// Texture seed / base luma offset.
    tex_seed: u64,
    luma_bias: f64,
}

impl MovingObject {
    /// Center at frame `t`, bouncing off the frame borders.
    fn center(&self, t: usize, res: Resolution) -> (f64, f64) {
        let bounce = |p0: f64, v: f64, r: f64, limit: f64| {
            let span = (limit - 2.0 * r).max(1.0);
            let raw = p0 - r + v * t as f64;
            // Reflect into [0, span] (triangular wave), then shift back.
            let m = raw.rem_euclid(2.0 * span);
            let folded = if m <= span { m } else { 2.0 * span - m };
            folded + r
        };
        (
            bounce(self.cx0, self.vx, self.rx, res.width as f64),
            bounce(self.cy0, self.vy, self.ry, res.height as f64),
        )
    }

    fn contains(&self, x: f64, y: f64, cx: f64, cy: f64) -> bool {
        let dx = (x - cx) / self.rx;
        let dy = (y - cy) / self.ry;
        dx * dx + dy * dy <= 1.0
    }
}

/// Rows (or columns) of `0..limit` that can hold a pixel of an object
/// centred at `c` with radius `r` on that axis. A pixel with
/// `|p − c| ≥ r + 1` has `((p − c) / r)² ≥ (1 + 1/r)² > 1`, far outside
/// f64 rounding, so it fails `contains`; the range is the superset
/// `[c − r − 2, c + r + 2]`, clipped to the frame.
fn box_range(c: f64, r: f64, limit: usize) -> Range<usize> {
    let lo = (c - r - 2.0) as usize;
    let hi = ((c + r + 2.0) as usize + 1).min(limit);
    lo..hi
}

/// Extra background columns built beyond what a frame needs, so a scene
/// played forward widens its memo once per 80 frames, not every frame.
const PAN_SLACK: usize = 64;

/// Background pan at frame `t`, in pixels.
fn pan(t: usize) -> usize {
    (t as f64 * 0.8) as usize
}

/// An object's pre-noise luma over every integer offset `(lx, ly)` from
/// its center that a contained pixel can have: `|lx| ≤ ⌈rx⌉`,
/// `|ly| ≤ ⌈ry⌉`, since `contains` implies `|x − cx| ≤ rx`.
#[derive(Clone)]
struct ObjectTexture {
    half_w: usize,
    half_h: usize,
    luma: Vec<u8>,
}

impl ObjectTexture {
    fn new(obj: &MovingObject) -> Self {
        let (half_w, half_h) = (obj.rx.ceil() as usize, obj.ry.ceil() as usize);
        let (w, h) = (half_w as i64, half_h as i64);
        let stride = 2 * half_w + 1;
        let mut luma = vec![0u8; stride * (2 * half_h + 1)];
        fill_smooth_texture(
            obj.tex_seed,
            -w..w + 1,
            -h..h + 1,
            luma.chunks_exact_mut(stride),
        );
        for v in &mut luma {
            *v = (f64::from(*v) + obj.luma_bias).clamp(0.0, 255.0) as u8;
        }
        ObjectTexture {
            half_w,
            half_h,
            luma,
        }
    }

    fn at(&self, lx: i64, ly: i64) -> u8 {
        let col = (lx + self.half_w as i64) as usize;
        let row = (ly + self.half_h as i64) as usize;
        debug_assert!(col <= 2 * self.half_w && row <= 2 * self.half_h);
        self.luma[row * (2 * self.half_w + 1) + col]
    }
}

/// Everything in a frame that does not depend on the frame index.
struct Textures {
    /// Background columns held: `bg[y * bg_cols + x]` is the background
    /// texture at scene column `x` (before the pan is applied).
    bg_cols: usize,
    bg: Vec<u8>,
    /// One per object, in the scene's object order.
    objects: Vec<ObjectTexture>,
}

impl Textures {
    /// Textures for `scene` with at least `cols` background columns,
    /// reusing the columns and object textures `old` already holds.
    fn build(scene: &Scene, cols: usize, old: Option<&Textures>) -> Self {
        let h = scene.spec.resolution.height;
        let kept = old.map_or(0, |o| o.bg_cols);
        let mut bg = vec![0u8; cols * h];
        if let Some(old) = old {
            for (dst, src) in bg.chunks_exact_mut(cols).zip(old.bg.chunks_exact(kept)) {
                dst[..kept].copy_from_slice(src);
            }
        }
        let rows = bg.chunks_exact_mut(cols).map(|row| &mut row[kept..]);
        fill_smooth_texture(scene.spec.seed, kept as i64..cols as i64, 0..h as i64, rows);
        let objects = match old {
            Some(old) => old.objects.clone(),
            None => scene.objects.iter().map(ObjectTexture::new).collect(),
        };
        Textures {
            bg_cols: cols,
            bg,
            objects,
        }
    }
}

impl fmt::Debug for Textures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Textures")
            .field("bg_cols", &self.bg_cols)
            .field("objects", &self.objects.len())
            .finish_non_exhaustive()
    }
}

/// A deterministic synthetic scene: textured panning background plus
/// `objects` moving textured ellipses.
///
/// The background and object textures do not depend on the frame, only
/// their offsets do, so the first [`Scene::frame`] call builds them once
/// and later frames cost a lookup plus sensor noise. The memo holds at
/// most `(width + pan + 64) × height` background bytes, `pan` being the
/// largest frame's pan, plus one box per object; clones share it.
#[derive(Debug)]
pub struct Scene {
    spec: SceneSpec,
    objects: Vec<MovingObject>,
    /// Built by the first `frame` call, widened when a later frame pans
    /// past it. Every update stores a finished `Textures`, so a poisoned
    /// lock still holds a valid memo.
    textures: Mutex<Option<Arc<Textures>>>,
}

impl Clone for Scene {
    fn clone(&self) -> Self {
        Scene {
            spec: self.spec,
            objects: self.objects.clone(),
            textures: Mutex::new(self.memo().clone()),
        }
    }
}

impl Scene {
    /// Builds the scene, placing objects pseudo-randomly from the seed.
    /// No texture is computed until the first [`Scene::frame`] call.
    pub fn new(spec: SceneSpec) -> Self {
        let mut rng = Rng::new(spec.seed);
        let w = spec.resolution.width as f64;
        let h = spec.resolution.height as f64;
        let objects = (0..spec.objects)
            .map(|i| {
                // Radii scale with the frame so multi-VO working sets grow
                // with resolution, as in the paper.
                let rx = rng.gen_range(0.08..0.16) * w;
                let ry = rng.gen_range(0.08..0.16) * h;
                MovingObject {
                    cx0: rng.gen_range(rx..(w - rx)),
                    cy0: rng.gen_range(ry..(h - ry)),
                    vx: rng.gen_range(1.0..4.0) * if i % 2 == 0 { 1.0 } else { -1.0 },
                    vy: rng.gen_range(0.5..3.0) * if i % 3 == 0 { -1.0 } else { 1.0 },
                    rx,
                    ry,
                    tex_seed: rng.next_u64(),
                    luma_bias: rng.gen_range(-48.0..48.0),
                }
            })
            .collect();
        Scene {
            spec,
            objects,
            textures: Mutex::new(None),
        }
    }

    /// The scene parameters.
    pub fn spec(&self) -> SceneSpec {
        self.spec
    }

    /// Number of foreground objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn memo(&self) -> MutexGuard<'_, Option<Arc<Textures>>> {
        self.textures.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memo, built or widened to at least `cols` background columns.
    fn textures(&self, cols: usize) -> Arc<Textures> {
        let mut memo = self.memo();
        match memo.as_deref() {
            Some(t) if t.bg_cols >= cols => {}
            old => *memo = Some(Arc::new(Textures::build(self, cols + PAN_SLACK, old))),
        }
        Arc::clone(memo.as_ref().expect("memo was just filled"))
    }

    /// Composes the full frame at time `t`.
    pub fn frame(&self, t: usize) -> YuvFrame {
        let res = self.spec.resolution;
        let (w, h) = (res.width, res.height);
        // Background pans slowly to the right (global motion).
        let pan = pan(t);
        let tex = self.textures(pan + w);
        let placed: Vec<_> = self
            .objects
            .iter()
            .zip(&tex.objects)
            .map(|(obj, texture)| {
                let (cx, cy) = obj.center(t, res);
                let rows = box_range(cy, obj.ry, h);
                (obj, texture, cx, cy, rows, box_range(cx, obj.rx, w))
            })
            .collect();
        // Per-pixel, per-frame sensor noise (±3 grey levels) — natural
        // video is never temporally clean, and this is what keeps real
        // decoders from skip-coding static regions.
        let noise_seed = self.spec.seed ^ 0x5eed;
        let mut y = vec![0u8; res.luma_pixels()];
        for py in 0..h {
            let row = &mut y[py * w..(py + 1) * w];
            let bg = py * tex.bg_cols + pan;
            row.copy_from_slice(&tex.bg[bg..bg + w]);
            let fy = py as f64;
            // Later objects paint over earlier ones: the topmost wins.
            for (obj, texture, cx, cy, rows, cols) in &placed {
                if !rows.contains(&py) {
                    continue;
                }
                for px in cols.clone() {
                    let fx = px as f64;
                    if obj.contains(fx, fy, *cx, *cy) {
                        // Object texture moves with the object (rigid motion).
                        row[px] = texture.at((fx - cx) as i64, (fy - cy) as i64);
                    }
                }
            }
            let key = row_key(noise_seed, py as i64, t as u64);
            for (px, v) in row.iter_mut().enumerate() {
                let noise = i16::from(hash_at(key, px as i64) % 7) - 3;
                *v = (i16::from(*v) + noise).clamp(0, 255) as u8;
            }
        }
        // Chroma: low-detail planes derived from position (cheap but
        // non-constant, so chroma coding does real work). U is constant
        // over 8×8 cells.
        let (cw, ch) = (w / 2, h / 2);
        let mut u = vec![0u8; res.chroma_pixels()];
        let mut v = vec![0u8; res.chroma_pixels()];
        let chroma_seed = self.spec.seed ^ u64::from_be_bytes(*b"chromaU!");
        let mut cells = Vec::with_capacity(cw.div_ceil(8));
        for py in 0..ch {
            if py % 8 == 0 {
                let key = row_key(chroma_seed, (py / 8) as i64, 0);
                cells.clear();
                cells.extend(
                    (0..cw.div_ceil(8)).map(|c| 128u8.wrapping_add(hash_at(key, c as i64) / 8)),
                );
            }
            let rows = py * cw..(py + 1) * cw;
            for (px, (u, v)) in u[rows.clone()].iter_mut().zip(&mut v[rows]).enumerate() {
                *u = cells[px / 8];
                *v = 120u8.wrapping_add(((px + py + t) % 16) as u8);
            }
        }
        YuvFrame {
            resolution: res,
            y,
            u,
            v,
        }
    }

    /// Alpha mask of object `vo` at frame `t`.
    ///
    /// # Panics
    ///
    /// Panics if `vo` is out of range.
    pub fn alpha(&self, t: usize, vo: usize) -> AlphaMask {
        assert!(vo < self.objects.len(), "object {vo} out of range");
        let res = self.spec.resolution;
        let obj = &self.objects[vo];
        let (cx, cy) = obj.center(t, res);
        let mut data = vec![0u8; res.luma_pixels()];
        for py in box_range(cy, obj.ry, res.height) {
            for px in box_range(cx, obj.rx, res.width) {
                if obj.contains(px as f64, py as f64, cx, cy) {
                    data[py * res.width + px] = 255;
                }
            }
        }
        AlphaMask {
            resolution: res,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::texture::{hash_noise, smooth_texture};
    use std::sync::Barrier;

    // The per-pixel composition that the memo replaced, kept verbatim as
    // the reference the identity suite compares against.

    /// Luma value of the composed scene at `(x, y)` in frame `t`.
    fn reference_luma_at(s: &Scene, t: usize, x: usize, y: usize, centers: &[(f64, f64)]) -> u8 {
        let fx = x as f64;
        let fy = y as f64;
        // Topmost (last) object wins.
        for (i, obj) in s.objects.iter().enumerate().rev() {
            let (cx, cy) = centers[i];
            if obj.contains(fx, fy, cx, cy) {
                // Object texture moves with the object (rigid motion).
                let lx = (fx - cx) as i64;
                let ly = (fy - cy) as i64;
                let v = f64::from(smooth_texture(obj.tex_seed, lx, ly, 0.0));
                return (v + obj.luma_bias).clamp(0.0, 255.0) as u8;
            }
        }
        // Background pans slowly to the right (global motion).
        let pan = (t as f64 * 0.8) as i64;
        smooth_texture(s.spec.seed, x as i64 + pan, y as i64, 0.0)
    }

    fn reference_sensor_noise(s: &Scene, t: usize, x: usize, y: usize) -> i16 {
        i16::from(hash_noise(s.spec.seed ^ 0x5eed, x as i64, y as i64, t as u64) % 7) - 3
    }

    fn reference_frame(s: &Scene, t: usize) -> YuvFrame {
        let res = s.spec.resolution;
        let centers: Vec<_> = s.objects.iter().map(|o| o.center(t, res)).collect();
        let mut y = vec![0u8; res.luma_pixels()];
        for py in 0..res.height {
            for px in 0..res.width {
                let clean = i16::from(reference_luma_at(s, t, px, py, &centers));
                y[py * res.width + px] =
                    (clean + reference_sensor_noise(s, t, px, py)).clamp(0, 255) as u8;
            }
        }
        let (cw, ch) = (res.width / 2, res.height / 2);
        let mut u = vec![0u8; res.chroma_pixels()];
        let mut v = vec![0u8; res.chroma_pixels()];
        let chroma_seed = s.spec.seed ^ u64::from_be_bytes(*b"chromaU!");
        for py in 0..ch {
            for px in 0..cw {
                let i = py * cw + px;
                u[i] = 128u8
                    .wrapping_add(hash_noise(chroma_seed, px as i64 / 8, py as i64 / 8, 0) / 8);
                v[i] = 120u8.wrapping_add(((px + py + t) % 16) as u8);
            }
        }
        YuvFrame {
            resolution: res,
            y,
            u,
            v,
        }
    }

    fn reference_alpha(s: &Scene, t: usize, vo: usize) -> AlphaMask {
        let res = s.spec.resolution;
        let obj = &s.objects[vo];
        let (cx, cy) = obj.center(t, res);
        let mut data = vec![0u8; res.luma_pixels()];
        for py in 0..res.height {
            for px in 0..res.width {
                if obj.contains(px as f64, py as f64, cx, cy) {
                    data[py * res.width + px] = 255;
                }
            }
        }
        AlphaMask {
            resolution: res,
            data,
        }
    }

    const IDENTITY_TIMES: [usize; 7] = [0, 1, 2, 5, 17, 100, 1000];

    /// Every (objects, seed) scene at `res` renders byte-identical frames
    /// and masks to the reference, with frames requested in ascending
    /// order (the memo widens) and descending order (built once, then
    /// read at random offsets).
    fn assert_identical_at(res: Resolution, seeds: [u64; 2]) {
        for objects in [0, 1, 3, 5] {
            for seed in seeds {
                let spec = SceneSpec {
                    resolution: res,
                    objects,
                    seed,
                };
                let reference = Scene::new(spec);
                let expected: Vec<_> = IDENTITY_TIMES
                    .iter()
                    .map(|&t| reference_frame(&reference, t))
                    .collect();
                let ascending = Scene::new(spec);
                let descending = Scene::new(spec);
                for (i, &t) in IDENTITY_TIMES.iter().enumerate() {
                    let ctx = format!("{res:?} objects={objects} seed={seed:#x} t={t}");
                    assert!(ascending.frame(t) == expected[i], "ascending {ctx}");
                    for vo in 0..objects {
                        assert!(
                            ascending.alpha(t, vo) == reference_alpha(&reference, t, vo),
                            "alpha vo={vo} {ctx}"
                        );
                    }
                }
                for (i, &t) in IDENTITY_TIMES.iter().enumerate().rev() {
                    let ctx = format!("{res:?} objects={objects} seed={seed:#x} t={t}");
                    assert!(descending.frame(t) == expected[i], "descending {ctx}");
                }
            }
        }
    }

    // One test per (resolution, seed pair), so the harness spreads the
    // reference renders over its threads.
    const LOW_SEEDS: [u64; 2] = [0, 42];
    const HIGH_SEEDS: [u64; 2] = [0x4d50_4547, u64::MAX];

    #[test]
    fn identical_to_reference_small() {
        for res in [Resolution::QCIF, Resolution::new(64, 48)] {
            assert_identical_at(res, LOW_SEEDS);
            assert_identical_at(res, HIGH_SEEDS);
        }
    }

    #[test]
    fn identical_to_reference_pal_low_seeds() {
        assert_identical_at(Resolution::PAL, LOW_SEEDS);
    }

    #[test]
    fn identical_to_reference_pal_high_seeds() {
        assert_identical_at(Resolution::PAL, HIGH_SEEDS);
    }

    #[test]
    fn identical_to_reference_xga_low_seeds() {
        assert_identical_at(Resolution::XGA, LOW_SEEDS);
    }

    #[test]
    fn identical_to_reference_xga_high_seeds() {
        assert_identical_at(Resolution::XGA, HIGH_SEEDS);
    }

    fn repro_scene() -> Scene {
        Scene::new(SceneSpec {
            resolution: Resolution::PAL,
            objects: 3,
            seed: 0x4d50_4547,
        })
    }

    #[test]
    fn clones_render_identically() {
        let warm = repro_scene();
        let _ = warm.frame(40);
        let cold = repro_scene();
        for s in [warm.clone(), cold.clone()] {
            for t in [0, 29, 300] {
                assert!(s.frame(t) == reference_frame(&warm, t), "t={t}");
            }
        }
        // Widening a clone leaves the original's memo valid.
        assert!(warm.frame(3) == reference_frame(&warm, 3));
    }

    #[test]
    fn shared_scene_renders_identically_on_two_threads() {
        let s = repro_scene();
        let times = [0usize, 7, 29, 120, 61];
        let barrier = Barrier::new(2);
        let frames: Vec<Vec<YuvFrame>> = std::thread::scope(|scope| {
            let handles: Vec<_> = [false, true]
                .into_iter()
                .map(|rev| {
                    let (s, barrier) = (&s, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let mut order = times.to_vec();
                        if rev {
                            order.reverse();
                        }
                        let mut out: Vec<_> = order.iter().map(|&t| (t, s.frame(t))).collect();
                        out.sort_by_key(|&(t, _)| t);
                        out.into_iter().map(|(_, f)| f).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("render thread"))
                .collect()
        });
        let mut sorted = times;
        sorted.sort_unstable();
        for (i, &t) in sorted.iter().enumerate() {
            let expected = reference_frame(&s, t);
            assert!(
                frames[0][i] == expected && frames[1][i] == expected,
                "t={t}"
            );
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Digests of the repro scene rendered by the per-pixel code before
    /// the memo existed, so the reference above cannot drift along with
    /// the implementation.
    #[test]
    fn pinned_digests_of_repro_scene() {
        let s = repro_scene();
        for (t, y, u, v) in [
            (
                0,
                0x5d0e_de13_88dd_6674_u64,
                0x0bd0_7732_ad1d_e1a5_u64,
                0xb887_eb38_fbb4_2365_u64,
            ),
            (
                29,
                0x0686_3b29_2979_ea66,
                0x0bd0_7732_ad1d_e1a5,
                0x7e1a_e927_01b9_ac65,
            ),
        ] {
            let f = s.frame(t);
            assert_eq!((fnv1a(&f.y), fnv1a(&f.u), fnv1a(&f.v)), (y, u, v), "t={t}");
            let r = reference_frame(&s, t);
            assert_eq!(
                (fnv1a(&r.y), fnv1a(&r.u), fnv1a(&r.v)),
                (y, u, v),
                "reference t={t}"
            );
        }
    }

    #[test]
    fn memo_is_lazy_and_bounded() {
        let s = repro_scene();
        let _ = s.alpha(5, 2);
        assert!(s.memo().is_none(), "new/alpha must not build the memo");
        let (w, h) = (Resolution::PAL.width, Resolution::PAL.height);
        for t_max in [0, 1, 79, 80, 81, 500] {
            let _ = s.frame(t_max);
            let memo = s.memo();
            let tex = memo.as_ref().expect("frame builds the memo");
            assert!(tex.bg_cols >= w + pan(t_max), "t_max={t_max}");
            assert!(tex.bg_cols <= w + pan(t_max) + PAN_SLACK, "t_max={t_max}");
            assert_eq!(tex.bg.len(), tex.bg_cols * h);
        }
    }

    fn tiny_scene(objects: usize) -> Scene {
        Scene::new(SceneSpec {
            resolution: Resolution::QCIF,
            objects,
            seed: 42,
        })
    }

    /// Golden layout for the repro seed 0x4d50_4547 ("MPEG"): any
    /// change to the PRNG, the seeding path, or the order of draws in
    /// `Scene::new` shifts every object and silently invalidates the
    /// numbers in EXPERIMENTS.md — this test catches that first.
    #[test]
    fn golden_object_layout_for_repro_seed() {
        let s = Scene::new(SceneSpec {
            resolution: Resolution::PAL,
            objects: 3,
            seed: 0x4d50_4547,
        });
        // (cx0, cy0, vx, vy, rx, ry, tex_seed, luma_bias) per object.
        let expected = [
            (
                117.73439145458785,
                244.09874602509296,
                1.301183189291796,
                -2.410789798137911,
                67.43521604332965,
                89.55530304863075,
                0x36077f361fb6316f_u64,
                -18.227791462003456,
            ),
            (
                85.73054621133923,
                90.05352496536753,
                -2.149529263729029,
                1.5346548932877107,
                60.65258436482773,
                73.32720551519647,
                0x4fef44f47bf27969_u64,
                -6.863959146503404,
            ),
            (
                407.63823133697554,
                368.2181935653616,
                1.9945883911773492,
                1.67132770647839,
                100.71654125573137,
                78.4637945781245,
                0xfa95c7ec4c2da202_u64,
                -23.158410454865525,
            ),
        ];
        assert_eq!(s.objects.len(), expected.len());
        for (o, e) in s.objects.iter().zip(expected) {
            assert_eq!(
                (
                    o.cx0,
                    o.cy0,
                    o.vx,
                    o.vy,
                    o.rx,
                    o.ry,
                    o.tex_seed,
                    o.luma_bias
                ),
                e
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny_scene(2);
        let b = tiny_scene(2);
        assert_eq!(a.frame(5), b.frame(5));
        assert_eq!(a.alpha(5, 1), b.alpha(5, 1));
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_scene(2);
        let b = Scene::new(SceneSpec {
            resolution: Resolution::QCIF,
            objects: 2,
            seed: 43,
        });
        assert_ne!(a.frame(0), b.frame(0));
    }

    #[test]
    fn objects_move_between_frames() {
        let s = tiny_scene(1);
        let m0 = s.alpha(0, 0);
        let m5 = s.alpha(5, 0);
        assert_ne!(m0, m5);
        // Areas stay comparable (rigid object).
        let (a0, a5) = (m0.area() as f64, m5.area() as f64);
        assert!((a0 - a5).abs() / a0 < 0.2, "{a0} vs {a5}");
    }

    #[test]
    fn objects_stay_in_bounds_for_many_frames() {
        let s = tiny_scene(3);
        for t in [0usize, 10, 50, 200, 1000] {
            for vo in 0..3 {
                let m = s.alpha(t, vo);
                assert!(m.area() > 0, "object {vo} vanished at t={t}");
                let (x0, y0, x1, y1) = m.bounding_box().unwrap();
                assert!(x1 <= Resolution::QCIF.width && y1 <= Resolution::QCIF.height);
                let _ = (x0, y0);
            }
        }
    }

    #[test]
    fn background_pans_even_without_objects() {
        let s = tiny_scene(0);
        assert_eq!(s.object_count(), 0);
        assert_ne!(s.frame(0).y, s.frame(3).y);
    }

    #[test]
    fn object_pixels_use_object_texture() {
        let s = tiny_scene(1);
        let m = s.alpha(0, 0);
        let with = s.frame(0);
        // Re-render a scene without objects on the same seed: inside the
        // mask, pixels should generally differ (object texture on top).
        let bare = Scene::new(SceneSpec {
            resolution: Resolution::QCIF,
            objects: 0,
            seed: 42,
        })
        .frame(0);
        let mut differing = 0usize;
        let mut total = 0usize;
        for i in 0..with.y.len() {
            if m.data[i] != 0 {
                total += 1;
                if with.y[i] != bare.y[i] {
                    differing += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(differing * 2 > total, "{differing}/{total}");
    }

    #[test]
    fn consecutive_frames_correlate() {
        // Motion is small: consecutive frames should be closer than
        // distant ones, which is what P-frame coding exploits.
        let s = tiny_scene(2);
        let f0 = s.frame(0);
        let near = s.frame(1);
        let far = s.frame(20);
        assert!(f0.psnr_luma(&near) > f0.psnr_luma(&far));
    }
}
