//! The three-dimensional structure (Section 4, Theorem 4.4).
//!
//! In the dual, the task is: store N planes so that the planes below a query
//! point can be reported in O(log_B n + t) expected IOs. The structure keeps,
//! for a random permutation h_1, h_2, …, h_N,
//!
//! * **layers**: for geometrically increasing prefix sizes 2^i, the
//!   triangulated lower envelope of R_i = {h_1,…,h_{2^i}} together with the
//!   conflict list of each envelope *face* — the planes of H∖R_i passing
//!   strictly below one of the face's vertices (Lemma 4.1 bounds the
//!   expected total size by O(N) per layer, hence O(n log₂ n) blocks);
//! * **a point-location chain**: prefixes of size b, b², … (b = Θ(B)) where
//!   each face stores the next-prefix planes below it; walking the chain
//!   locates the envelope face over (x, y) in O(log_B r) expected IOs
//!   (DESIGN.md §3.3 — this replaces the external point-location structures
//!   the paper cites);
//! * **bridges**: per layer, a copy of the deepest chain level's faces with
//!   conflicts filtered to R_i, linking the chain to the layer.
//!
//! `TryLowestPlanes(k, l, δ)` and the doubling query loop follow Section 4.2
//! literally, including the three independent copies used to make the
//! failure probability O(δ³); a full file scan (always correct, n IOs)
//! backstops the vanishing-probability cascade of failures.

use crate::cost::{CostHint, CostShape};
use lcrs_extmem::{DeviceHandle, MetaReader, MetaWriter, Record, SnapshotError, VecFile};
use lcrs_geom::dual::point3_to_plane;
use lcrs_geom::hull3::{LowerHull, SnapFacet};
use lcrs_geom::plane3::Plane3;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// On-disk face record: plane coefficients, conflict-list slice, and the
/// face index of the same plane one level down (`u32::MAX` when absent).
type FaceRec = ((i64, i64, i64), (u64, u32, u32));
/// Conflict entry: plane coefficients plus either the next-level face index
/// (chain/bridge levels) or the plane id (layer levels).
type ConfRec = ((i64, i64, i64), u32);
/// Flat plane-file record.
type PlaneRec = (i64, i64, i64);

const NONE32: u32 = u32::MAX;

/// One located level: faces + conflicts.
struct LevelDisk {
    faces: VecFile<FaceRec>,
    conflicts: VecFile<ConfRec>,
}

/// One layer R_i.
struct LayerDisk {
    /// Prefix size 2^i.
    size: usize,
    /// Copy of the deepest chain level's faces with conflicts → this layer.
    bridge: Option<LevelDisk>,
    /// The layer itself; conflict entries carry plane ids.
    level: LevelDisk,
}

/// One independent copy of the whole structure (its own permutation).
struct Copy3d {
    chain: Vec<LevelDisk>,
    /// Chain level sizes (b, b², …), parallel to `chain`.
    chain_sizes: Vec<usize>,
    layers: Vec<LayerDisk>,
}

impl LevelDisk {
    fn with_handle(&self, h: &DeviceHandle) -> LevelDisk {
        LevelDisk { faces: self.faces.with_handle(h), conflicts: self.conflicts.with_handle(h) }
    }

    fn save(&self, w: &mut MetaWriter) {
        self.faces.save(w);
        self.conflicts.save(w);
    }

    fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<LevelDisk, SnapshotError> {
        Ok(LevelDisk { faces: VecFile::load(h, r)?, conflicts: VecFile::load(h, r)? })
    }
}

impl LayerDisk {
    fn with_handle(&self, h: &DeviceHandle) -> LayerDisk {
        LayerDisk {
            size: self.size,
            bridge: self.bridge.as_ref().map(|b| b.with_handle(h)),
            level: self.level.with_handle(h),
        }
    }

    fn save(&self, w: &mut MetaWriter) {
        w.usize(self.size);
        w.opt(self.bridge.is_some());
        if let Some(b) = &self.bridge {
            b.save(w);
        }
        self.level.save(w);
    }

    fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<LayerDisk, SnapshotError> {
        Ok(LayerDisk {
            size: r.usize()?,
            bridge: if r.opt()? { Some(LevelDisk::load(h, r)?) } else { None },
            level: LevelDisk::load(h, r)?,
        })
    }
}

impl Copy3d {
    fn with_handle(&self, h: &DeviceHandle) -> Copy3d {
        Copy3d {
            chain: self.chain.iter().map(|l| l.with_handle(h)).collect(),
            chain_sizes: self.chain_sizes.clone(),
            layers: self.layers.iter().map(|l| l.with_handle(h)).collect(),
        }
    }

    fn save(&self, w: &mut MetaWriter) {
        w.seq(self.chain.len());
        for l in &self.chain {
            l.save(w);
        }
        w.seq(self.chain_sizes.len());
        for &s in &self.chain_sizes {
            w.usize(s);
        }
        w.seq(self.layers.len());
        for l in &self.layers {
            l.save(w);
        }
    }

    fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<Copy3d, SnapshotError> {
        let n = r.seq()?;
        let mut chain = Vec::with_capacity(n);
        for _ in 0..n {
            chain.push(LevelDisk::load(h, r)?);
        }
        let n = r.seq()?;
        let mut chain_sizes = Vec::with_capacity(n);
        for _ in 0..n {
            chain_sizes.push(r.usize()?);
        }
        if chain_sizes.len() != chain.len() {
            return Err(r.error("chain and chain_sizes must be parallel"));
        }
        let n = r.seq()?;
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            layers.push(LayerDisk::load(h, r)?);
        }
        Ok(Copy3d { chain, chain_sizes, layers })
    }
}

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct Hs3dConfig {
    /// Independent copies (paper: 3; EXP-ABL compares 1).
    pub copies: usize,
    /// Failure-probability exponents tried before falling back to a full
    /// scan (δ = 2^-1 … 2^-max_delta_exp).
    pub max_delta_exp: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Hs3dConfig {
    fn default() -> Self {
        Hs3dConfig { copies: 3, max_delta_exp: 6, seed: 0x3d5eed }
    }
}

/// The Theorem 4.4 structure over a set of 3D points (primal API) /
/// planes (dual internals).
pub struct HalfspaceRS3 {
    dev: DeviceHandle,
    planes: VecFile<PlaneRec>,
    copies: Vec<Copy3d>,
    n: usize,
    beta: usize,
    cfg: Hs3dConfig,
    pages_at_build_end: u64,
}

impl HalfspaceRS3 {
    /// Preprocess 3D points (|x|,|y| ≤ 2^20, |z| ≤ 2^21) so that the points
    /// below a query plane `z = u·x + v·y + w` (|u|,|v| ≤ 2^22) can be
    /// reported.
    pub fn build(dev: &DeviceHandle, points: &[(i64, i64, i64)], cfg: Hs3dConfig) -> HalfspaceRS3 {
        let planes: Vec<Plane3> =
            points.iter().map(|&(a, b, c)| point3_to_plane(a, b, c)).collect();
        Self::build_dual(dev, &planes, cfg)
    }

    /// Dual-space constructor: preprocess planes for "report planes below a
    /// query point" queries (used directly by the engine's lifted `knn`
    /// structure).
    pub fn build_dual(dev: &DeviceHandle, planes: &[Plane3], cfg: Hs3dConfig) -> HalfspaceRS3 {
        assert!(cfg.copies >= 1);
        let n = planes.len();
        let plane_file =
            VecFile::from_slice(dev, &planes.iter().map(|p| (p.a, p.b, p.c)).collect::<Vec<_>>());

        // Model parameters.
        let conf_per_page = dev.records_per_page(<ConfRec as Record>::SIZE);
        let n_blocks = n.div_ceil(conf_per_page).max(1);
        let beta = {
            let logb = if n_blocks <= 1 {
                1.0
            } else {
                (n_blocks as f64).ln() / (conf_per_page.max(2) as f64).ln()
            };
            ((conf_per_page as f64) * logb.max(1.0)).ceil() as usize
        }
        .max(1);

        let b = conf_per_page.max(4); // chain branching Θ(B)
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Layer sizes 2^i, i ∈ [3, log2(N/2)]: TryLowestPlanes(k, δ) uses
        // the layer of size ≈ δN/k (failure probability k·|R|/N = O(δ)), so
        // with k ranging over [1, N/16] and δ ≥ 2^-max the whole range is
        // needed; space stays O(n log₂ n) blocks (Lemma 4.1a per layer).
        let i_lo = 3usize;
        let i_hi = if n >= 2 { (n as f64 / 2.0).log2().floor() as usize } else { 0 };

        let mut copies = Vec::with_capacity(cfg.copies);
        for _ in 0..cfg.copies {
            let mut perm: Vec<u32> = (0..n as u32).collect();
            perm.shuffle(&mut rng);
            copies.push(Self::build_copy(dev, planes, &perm, b, i_lo, i_hi));
        }

        HalfspaceRS3 {
            dev: dev.clone(),
            planes: plane_file,
            copies,
            n,
            beta,
            cfg,
            pages_at_build_end: dev.pages_allocated(),
        }
    }

    fn build_copy(
        dev: &DeviceHandle,
        planes: &[Plane3],
        perm: &[u32],
        b: usize,
        i_lo: usize,
        i_hi: usize,
    ) -> Copy3d {
        let n = planes.len();
        let permuted: Vec<Plane3> = perm.iter().map(|&i| planes[i as usize]).collect();

        // Snapshot sizes: chain (b^j) and layers (2^i), deduplicated.
        let mut chain_sizes = Vec::new();
        let mut s = b;
        while s < n {
            chain_sizes.push(s);
            s = s.saturating_mul(b);
        }
        let layer_sizes: Vec<usize> =
            (i_lo..=i_hi).map(|i| 1usize << i).filter(|&s| s <= n).collect();
        let mut want: Vec<usize> = chain_sizes.iter().chain(layer_sizes.iter()).copied().collect();
        want.sort_unstable();
        want.dedup();

        // One incremental run; snapshot at each wanted prefix.
        let mut hull = LowerHull::new(&permuted);
        let mut snaps: std::collections::HashMap<usize, Vec<SnapFacet>> =
            std::collections::HashMap::new();
        for &sz in &want {
            hull.insert_until(sz);
            snaps.insert(sz, hull.snapshot());
        }

        // Assemble faces per snapshot: real-vertex → its facets, in
        // deterministic (ascending permuted-index) face order.
        struct Assembled {
            /// Face order: ascending permuted plane index.
            face_planes: Vec<u32>,
            /// permuted plane index → face idx.
            face_of: std::collections::HashMap<u32, u32>,
            /// Per face: union of its facets' conflicts (permuted indices).
            face_conf: Vec<Vec<u32>>,
        }
        let assemble = |snap: &Vec<SnapFacet>| -> Assembled {
            let mut incident: std::collections::HashMap<u32, Vec<usize>> =
                std::collections::HashMap::new();
            for (fi, f) in snap.iter().enumerate() {
                for r in f.verts.iter().flatten() {
                    incident.entry(*r).or_default().push(fi);
                }
            }
            let mut face_planes: Vec<u32> = incident.keys().copied().collect();
            face_planes.sort_unstable();
            let face_of: std::collections::HashMap<u32, u32> =
                face_planes.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
            let face_conf: Vec<Vec<u32>> = face_planes
                .iter()
                .map(|p| {
                    let mut u: Vec<u32> = incident[p]
                        .iter()
                        .flat_map(|&fi| snap[fi].conflicts.iter().copied())
                        .collect();
                    u.sort_unstable();
                    u.dedup();
                    u
                })
                .collect();
            Assembled { face_planes, face_of, face_conf }
        };
        let assembled: std::collections::HashMap<usize, Assembled> =
            want.iter().map(|&sz| (sz, assemble(&snaps[&sz]))).collect();

        // Write a level to disk. `bound` filters conflicts to permuted index
        // < bound; `next` resolves next_face_idx (None ⇒ conflict entries
        // carry ORIGINAL plane ids — the layer form).
        let write_level = |asm: &Assembled, bound: usize, next: Option<&Assembled>| -> LevelDisk {
            let mut faces: Vec<FaceRec> = Vec::with_capacity(asm.face_planes.len());
            let mut confs: Vec<ConfRec> = Vec::new();
            for (fi, &p) in asm.face_planes.iter().enumerate() {
                let off = confs.len() as u64;
                for &q in &asm.face_conf[fi] {
                    if (q as usize) >= bound {
                        continue;
                    }
                    let pq = permuted[q as usize];
                    let tag = match next {
                        Some(nx) => nx.face_of.get(&q).copied().unwrap_or(NONE32),
                        None => perm[q as usize],
                    };
                    confs.push(((pq.a, pq.b, pq.c), tag));
                }
                let len = confs.len() as u32 - off as u32;
                let selfn = match next {
                    Some(nx) => nx.face_of.get(&p).copied().unwrap_or(NONE32),
                    None => NONE32,
                };
                let pp = permuted[p as usize];
                faces.push(((pp.a, pp.b, pp.c), (off, len, selfn)));
            }
            LevelDisk {
                faces: VecFile::from_slice(dev, &faces),
                conflicts: VecFile::from_slice(dev, &confs),
            }
        };

        // Chain levels: conflicts w.r.t. the next chain size. The deepest
        // chain level needs no forward conflicts (bridges replace them).
        let mut chain: Vec<LevelDisk> = Vec::new();
        for (j, &sz) in chain_sizes.iter().enumerate() {
            let next_sz = chain_sizes.get(j + 1).copied();
            let level = match next_sz {
                Some(ns) => write_level(&assembled[&sz], ns, Some(&assembled[&ns])),
                None => write_level(&assembled[&sz], sz, Some(&assembled[&sz])),
            };
            chain.push(level);
        }

        // Layers with bridges.
        let mut layers = Vec::new();
        for &lsz in &layer_sizes {
            let asm = &assembled[&lsz];
            let level = write_level(asm, n, None);
            // Deepest chain level not exceeding the layer.
            let jm = chain_sizes.iter().rposition(|&cs| cs <= lsz);
            let bridge = jm.map(|j| {
                let csz = chain_sizes[j];
                write_level(&assembled[&csz], lsz, Some(asm))
            });
            layers.push(LayerDisk { size: lsz, bridge, level });
        }

        Copy3d { chain, chain_sizes, layers }
    }

    /// Number of stored planes/points.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn beta(&self) -> usize {
        self.beta
    }

    /// Number of sample layers per copy.
    pub fn num_layers(&self) -> usize {
        self.copies.first().map_or(0, |c| c.layers.len())
    }

    /// Disk pages occupied.
    pub fn pages(&self) -> u64 {
        self.pages_at_build_end
    }

    /// The Theorem 4.4 query bound — O(log_B n + t/B) expected — as a
    /// planner hint (DESIGN.md §10).
    pub fn cost_hint(&self) -> CostHint {
        CostHint::new(CostShape::Logarithmic, self.len())
    }

    /// The device this structure lives on (for scoped IO measurement).
    pub fn device(&self) -> &DeviceHandle {
        &self.dev
    }

    /// The same on-disk structure viewed through `h` (own cache + stats).
    pub fn with_handle(&self, h: &DeviceHandle) -> HalfspaceRS3 {
        HalfspaceRS3 {
            dev: h.clone(),
            planes: self.planes.with_handle(h),
            copies: self.copies.iter().map(|c| c.with_handle(h)).collect(),
            n: self.n,
            beta: self.beta,
            cfg: self.cfg,
            pages_at_build_end: self.pages_at_build_end,
        }
    }

    /// A reader clone on a fresh handle scope over the same pages — each
    /// parallel worker calls this to get its own LRU and IO attribution.
    pub fn fork_reader(&self) -> HalfspaceRS3 {
        self.with_handle(&self.dev.fork())
    }

    /// Serialize the structure's host-side metadata (plane file, chain and
    /// layer directories of every copy, construction parameters); the page
    /// data is captured by [`lcrs_extmem::Device::freeze_to_path`].
    pub fn save(&self, w: &mut MetaWriter) {
        self.planes.save(w);
        w.seq(self.copies.len());
        for c in &self.copies {
            c.save(w);
        }
        w.usize(self.n);
        w.usize(self.beta);
        w.usize(self.cfg.copies);
        w.u32(self.cfg.max_delta_exp);
        w.u64(self.cfg.seed);
        w.u64(self.pages_at_build_end);
    }

    /// Rebuild from metadata written by [`Self::save`], reading pages
    /// through `h`.
    pub fn load(h: &DeviceHandle, r: &mut MetaReader) -> Result<HalfspaceRS3, SnapshotError> {
        let planes = VecFile::load(h, r)?;
        let n_copies = r.seq()?;
        let mut copies = Vec::with_capacity(n_copies);
        for _ in 0..n_copies {
            copies.push(Copy3d::load(h, r)?);
        }
        if copies.is_empty() {
            return Err(r.error("structure must keep at least one copy"));
        }
        let n = r.usize()?;
        let beta = r.usize()?;
        let cfg = Hs3dConfig { copies: r.usize()?, max_delta_exp: r.u32()?, seed: r.u64()? };
        Ok(HalfspaceRS3 {
            dev: h.clone(),
            planes,
            copies,
            n,
            beta,
            cfg,
            pages_at_build_end: r.u64()?,
        })
    }

    /// Argmin face of a level at (x, y) by scanning all faces (used for the
    /// chain root and tiny layers).
    fn scan_faces(&self, level: &LevelDisk, x: i64, y: i64) -> (u32, FaceRec) {
        let mut best: Option<(i128, u32, FaceRec)> = None;
        level.faces.scan_while(|i, rec| {
            let (a, b, c) = rec.0;
            let v = Plane3::new(a, b, c).eval(x, y);
            if best.as_ref().is_none_or(|(bv, _, _)| v < *bv) {
                best = Some((v, i as u32, rec));
            }
            true
        });
        let (_, i, rec) = best.expect("level has no faces");
        (i, rec)
    }

    /// One descent step: from a located face, find the argmin plane of the
    /// next set among {current plane} ∪ conflicts, returning the next face
    /// index.
    fn step_down(&self, level: &LevelDisk, face: FaceRec, x: i64, y: i64) -> u32 {
        let (pa, pb, pc) = face.0;
        let (off, len, selfn) = face.1;
        let mut best_val = Plane3::new(pa, pb, pc).eval(x, y);
        let mut best_face = selfn;
        let mut buf: Vec<ConfRec> = Vec::with_capacity(len as usize);
        level.conflicts.read_range(off as usize..(off + len as u64) as usize, &mut buf);
        for ((a, b, c), tag) in buf {
            let v = Plane3::new(a, b, c).eval(x, y);
            if v < best_val {
                best_val = v;
                best_face = tag;
            }
        }
        assert_ne!(best_face, NONE32, "argmin plane must be a face one level down");
        best_face
    }

    /// Locate the face of layer `li` (of copy `c`) over (x, y).
    fn locate_layer_face(&self, c: &Copy3d, li: usize, x: i64, y: i64) -> FaceRec {
        let layer = &c.layers[li];
        let jm = c.chain_sizes.iter().rposition(|&cs| cs <= layer.size);
        match (jm, &layer.bridge) {
            (Some(j), Some(bridge)) => {
                // Root scan, then chain steps, then the bridge.
                let (mut fi, mut rec) = self.scan_faces(&c.chain[0], x, y);
                for step in 0..j {
                    fi = self.step_down(&c.chain[step], rec, x, y);
                    rec = c.chain[step + 1].faces.get(fi as usize);
                }
                // Bridge shares face indexing with chain[j].
                let brec = bridge.faces.get(fi as usize);
                debug_assert_eq!(brec.0, rec.0, "bridge must mirror the chain level");
                let lf = self.step_down(bridge, brec, x, y);
                layer.level.faces.get(lf as usize)
            }
            _ => {
                // Tiny layer: direct scan.
                self.scan_faces(&layer.level, x, y).1
            }
        }
    }

    /// The paper's TryLowestPlanes(k, l, δ=2^-delta_exp) on one copy.
    /// `Ok(None)` = failure (retry with smaller δ); `Err(())` = the demanded
    /// sample exceeds the built range — caller should full-scan.
    fn try_lowest(
        &self,
        c: &Copy3d,
        x: i64,
        y: i64,
        k: usize,
        delta_exp: u32,
    ) -> Result<Option<Vec<(u32, i128)>>, ()> {
        // ρ = ⌈log2(δN/k)⌉: sample size ≈ δN/k, so the probability that
        // one of the k lowest planes is sampled (the failure mode) is
        // k·2^ρ/N = O(δ). Smaller δ ⇒ smaller sample but a bigger conflict
        // budget k/δ².
        let target = self.n as f64 / (k as f64 * (1u64 << delta_exp) as f64);
        if target < 8.0 {
            return Err(()); // would need a tiny sample: scan instead
        }
        // First layer of size ≥ target; when the target exceeds every
        // layer, the largest is accepted down to target/2 (within the
        // doubling granularity of the ρ rounding).
        let li = match c.layers.iter().position(|l| (l.size as f64) >= target) {
            Some(i) => i,
            None if !c.layers.is_empty()
                && (c.layers[c.layers.len() - 1].size as f64) * 2.0 >= target =>
            {
                c.layers.len() - 1
            }
            None => return Err(()),
        };
        let layer = &c.layers[li];
        let face = self.locate_layer_face(c, li, x, y);
        let (a, b, cc) = face.0;
        let env_val = Plane3::new(a, b, cc).eval(x, y);
        let (off, len, _) = face.1;
        // Reject oversized conflict lists without scanning them. The paper
        // caps |K| at k/δ² for *triangle* conflict lists; our per-face lists
        // are the union over the face's corners (DESIGN.md §3.3), larger by
        // the average face degree — a constant — so the cap carries an 8×
        // allowance. Asymptotics are unchanged; without it the cap fires
        // spuriously and cascades into full-scan fallbacks.
        let cap = 8 * k.saturating_mul(1usize << (2 * delta_exp));
        if len as usize > cap {
            return Ok(None);
        }
        let mut buf: Vec<ConfRec> = Vec::with_capacity(len as usize);
        layer.level.conflicts.read_range(off as usize..(off + len as u64) as usize, &mut buf);
        let mut below: Vec<(u32, i128)> = buf
            .into_iter()
            .filter_map(|((pa, pb, pc), id)| {
                let v = Plane3::new(pa, pb, pc).eval(x, y);
                (v < env_val).then_some((id, v))
            })
            .collect();
        if below.len() < k {
            // The sample's envelope plane ranks within the k lowest: fail.
            return Ok(None);
        }
        below.sort_by_key(|&(id, v)| (v, id));
        below.truncate(k);
        Ok(Some(below))
    }

    /// All (plane id, value) pairs sorted ascending by value — the always-
    /// correct fallback costing n IOs.
    fn full_scan(&self, x: i64, y: i64) -> Vec<(u32, i128)> {
        let mut all: Vec<(u32, i128)> = Vec::with_capacity(self.n);
        self.planes.scan_while(|i, (a, b, c)| {
            all.push((i as u32, Plane3::new(a, b, c).eval(x, y)));
            true
        });
        all.sort_by_key(|&(id, v)| (v, id));
        all
    }

    /// The k lowest planes along the vertical line at (x, y), with certainty
    /// (Theorem 4.2 wrapper).
    pub fn k_lowest(&self, x: i64, y: i64, k: usize) -> Vec<(u32, i128)> {
        assert!(
            x.abs() <= (1 << 22) && y.abs() <= (1 << 22),
            "query location outside the 3D region budget"
        );
        let k = k.min(self.n);
        if k == 0 {
            return Vec::new();
        }
        if 16 * k >= self.n || self.copies[0].layers.is_empty() {
            // Output comparable to n: a scan is already optimal.
            let mut v = self.full_scan(x, y);
            v.truncate(k);
            return v;
        }
        for delta_exp in 1..=self.cfg.max_delta_exp {
            for c in &self.copies {
                match self.try_lowest(c, x, y, k, delta_exp) {
                    Ok(Some(v)) => return v,
                    Ok(None) => {}
                    Err(()) => {
                        let mut v = self.full_scan(x, y);
                        v.truncate(k);
                        return v;
                    }
                }
            }
        }
        let mut v = self.full_scan(x, y);
        v.truncate(k);
        v
    }

    /// Report all points strictly below the plane `z = u·x + v·y + w`
    /// (`inclusive` adds points exactly on it). Returns input indices.
    pub fn query_below(&self, u: i64, v: i64, w: i64, inclusive: bool) -> Vec<u32> {
        if self.n == 0 {
            return Vec::new();
        }
        let hits = |lows: &[(u32, i128)]| -> Vec<u32> {
            lows.iter()
                .filter(|&&(_, val)| if inclusive { val <= w as i128 } else { val < w as i128 })
                .map(|&(id, _)| id)
                .collect()
        };
        // Doubling loop: k = β, 2β, 4β, … (Section 4.2).
        let mut k = self.beta.min(self.n);
        loop {
            let lows = self.k_lowest(u, v, k);
            let below = hits(&lows);
            if below.len() < lows.len() || lows.len() >= self.n {
                return below;
            }
            k *= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcrs_extmem::{Device, DeviceConfig};

    fn pseudo_points3(n: usize, seed: u64, range: i64) -> Vec<(i64, i64, i64)> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as i64).rem_euclid(2 * range) - range
        };
        (0..n).map(|_| (next(), next(), next())).collect()
    }

    fn brute(points: &[(i64, i64, i64)], u: i64, v: i64, w: i64, inclusive: bool) -> Vec<u32> {
        let mut r: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, &(x, y, z))| {
                let rhs = u as i128 * x as i128 + v as i128 * y as i128 + w as i128;
                if inclusive {
                    z as i128 <= rhs
                } else {
                    (z as i128) < rhs
                }
            })
            .map(|(i, _)| i as u32)
            .collect();
        r.sort_unstable();
        r
    }

    fn check(points: &[(i64, i64, i64)], hs: &HalfspaceRS3, seed: u64, trials: usize) {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((s >> 33) as i64).rem_euclid(2000) - 1000
        };
        for t in 0..trials {
            let (u, v, w) = (next(), next(), next() * 500);
            let inclusive = t % 2 == 0;
            let mut got = hs.query_below(u, v, w, inclusive);
            got.sort_unstable();
            assert_eq!(got, brute(points, u, v, w, inclusive), "query {u},{v},{w}");
        }
    }

    #[test]
    fn tiny_inputs() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        for n in [0usize, 1, 3, 9] {
            let pts = pseudo_points3(n, 5 + n as u64, 500);
            let hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
            check(&pts, &hs, 1, 15);
        }
    }

    #[test]
    fn medium_random_matches_brute_force() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo_points3(600, 42, 100_000);
        let hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
        check(&pts, &hs, 7, 40);
    }

    #[test]
    fn layered_structure_with_small_pages() {
        let dev = Device::new(DeviceConfig::new(256, 0));
        let pts = pseudo_points3(2000, 9, 1_000_000);
        let hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
        assert!(hs.num_layers() > 0);
        check(&pts, &hs, 3, 30);
    }

    #[test]
    fn single_copy_still_correct() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo_points3(800, 17, 200_000);
        let cfg = Hs3dConfig { copies: 1, ..Default::default() };
        let hs = HalfspaceRS3::build(&dev, &pts, cfg);
        check(&pts, &hs, 11, 30);
    }

    #[test]
    fn k_lowest_matches_sorted_values() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo_points3(500, 23, 50_000);
        let hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
        let planes: Vec<Plane3> = pts.iter().map(|&(a, b, c)| point3_to_plane(a, b, c)).collect();
        for (x, y) in [(0i64, 0i64), (100, -50), (-999, 999)] {
            for k in [1usize, 5, 40, 200] {
                let got = hs.k_lowest(x, y, k);
                let mut want: Vec<(u32, i128)> =
                    planes.iter().enumerate().map(|(i, p)| (i as u32, p.eval(x, y))).collect();
                want.sort_by_key(|&(id, v)| (v, id));
                want.truncate(k);
                assert_eq!(got, want, "k={k} at ({x},{y})");
            }
        }
    }

    #[test]
    fn duplicate_planes_all_reported() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let mut pts = pseudo_points3(300, 31, 10_000);
        for i in 0..50 {
            let p = pts[i * 2];
            pts.push(p);
        }
        let hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
        check(&pts, &hs, 13, 25);
    }

    #[test]
    fn space_is_near_linear_in_layers() {
        let dev = Device::new(DeviceConfig::new(512, 0));
        let pts = pseudo_points3(4000, 3, 500_000);
        let hs = HalfspaceRS3::build(&dev, &pts, Hs3dConfig::default());
        let n_blocks = 4000u64.div_ceil(512 / 28);
        let layers = hs.num_layers() as u64;
        assert!(
            hs.pages() < n_blocks * (layers + 4) * 6 * hs.cfg.copies as u64,
            "pages {} vs n_blocks {} layers {}",
            hs.pages(),
            n_blocks,
            layers
        );
    }
}
