//! Criterion micro-benchmarks guarding the performance of the hot
//! primitives (not paper artifacts; the paper tables come from the exp_*
//! harnesses).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lcrs_extmem::btree::BPlusTree;
use lcrs_extmem::{Device, DeviceConfig, PageId, TempDir};
use lcrs_geom::envelope::LowerEnvelope;
use lcrs_geom::level::level_vertices;
use lcrs_geom::line2::Line2;
use lcrs_geom::rational::Rat;
use lcrs_workloads::{points2, Dist2};

fn lines(n: usize, seed: u64) -> Vec<Line2> {
    let pts = points2(Dist2::Uniform, n + 8, 1 << 29, seed);
    let mut ls: Vec<Line2> = pts.iter().map(|&(x, y)| Line2::new(-x, y)).collect();
    ls.sort_by_key(|l| (l.m, l.b));
    ls.dedup();
    ls.truncate(n);
    ls
}

fn bench_predicates(c: &mut Criterion) {
    let ls = lines(1024, 1);
    c.bench_function("line2_cmp_at_plus", |bch| {
        let x = Rat::new(12345, 677);
        bch.iter(|| {
            let mut acc = 0usize;
            for w in ls.windows(2) {
                if w[0].cmp_at_plus(&w[1], x) == std::cmp::Ordering::Less {
                    acc += 1;
                }
            }
            acc
        })
    });
}

fn bench_envelope(c: &mut Criterion) {
    let ls = lines(2048, 2);
    let ids: Vec<u32> = (0..ls.len() as u32).collect();
    c.bench_function("lower_envelope_2048", |bch| {
        bch.iter(|| LowerEnvelope::build(&ls, &ids).chain.len())
    });
}

fn bench_level_walk(c: &mut Criterion) {
    let ls = lines(512, 3);
    let ids: Vec<u32> = (0..ls.len() as u32).collect();
    c.bench_function("level_walk_512_k64", |bch| bch.iter(|| level_vertices(&ls, &ids, 64).len()));
}

fn bench_btree(c: &mut Criterion) {
    let dev = Device::new(DeviceConfig::new(4096, 0));
    let pairs: Vec<(i64, i64)> = (0..100_000).map(|i| (i, i)).collect();
    let tree = BPlusTree::bulk_load(&dev, &pairs);
    c.bench_function("btree_get_100k", |bch| {
        let mut k = 0i64;
        bch.iter(|| {
            k = (k + 37) % 100_000;
            tree.get(&k)
        })
    });
    c.bench_function("btree_bulk_load_10k", |bch| {
        let pairs: Vec<(i64, i64)> = (0..10_000).map(|i| (i, i)).collect();
        bch.iter_batched(
            || Device::new(DeviceConfig::new(4096, 0)),
            |dev| BPlusTree::bulk_load(&dev, &pairs).len(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_hull3(c: &mut Criterion) {
    use lcrs_geom::hull3::LowerHull;
    use lcrs_geom::plane3::Plane3;
    let pts = lcrs_workloads::points3(lcrs_workloads::Dist3::Uniform, 2000, 1 << 19, 4);
    let planes: Vec<Plane3> = pts.iter().map(|&(a, b, cc)| Plane3::new(a, b, cc)).collect();
    c.bench_function("hull3_insert_2000", |bch| {
        bch.iter(|| {
            let mut h = LowerHull::new(&planes);
            h.insert_until(planes.len());
            h.snapshot().len()
        })
    });
}

fn bench_queries(c: &mut Criterion) {
    use lcrs_halfspace::hs2d::{HalfspaceRS2, Hs2dConfig};
    use lcrs_halfspace::hs3d::{HalfspaceRS3, Hs3dConfig};
    use lcrs_workloads::{halfplane_with_selectivity, halfspace3_with_selectivity, points3, Dist3};

    let pts2 = points2(Dist2::Uniform, 20_000, 1 << 29, 5);
    let dev = Device::new(DeviceConfig::new(4096, 0));
    let hs2 = HalfspaceRS2::build(&dev, &pts2, Hs2dConfig::default());
    let (m, cc) = halfplane_with_selectivity(&pts2, 200, 64, 9);
    c.bench_function("hs2d_query_t200_n20k", |bch| {
        bch.iter(|| hs2.query_below(m, cc, false).len())
    });

    let pts3v = points3(Dist3::Uniform, 20_000, 1 << 19, 6);
    let dev3 = Device::new(DeviceConfig::new(4096, 0));
    let hs3 = HalfspaceRS3::build(&dev3, &pts3v, Hs3dConfig::default());
    let (u, v, w) = halfspace3_with_selectivity(&pts3v, 200, 32, 9);
    c.bench_function("hs3d_query_t200_n20k", |bch| {
        bch.iter(|| hs3.query_below(u, v, w, false).len())
    });

    use lcrs_geom::point::{HyperplaneD, PointD};
    use lcrs_halfspace::ptree::{PTreeConfig, PartitionTree};
    let ptpts: Vec<PointD<2>> = pts2.iter().map(|&(x, y)| PointD::new([x, y])).collect();
    let devp = Device::new(DeviceConfig::new(4096, 0));
    let pt = PartitionTree::build(&devp, &ptpts, PTreeConfig::default());
    let h = HyperplaneD::new([cc, m]);
    c.bench_function("ptree2_query_t200_n20k", |bch| {
        bch.iter(|| pt.query_halfspace(&h, false).len())
    });
}

/// One page access through a scope: its lock, its LRU and, on a reopened
/// store, the page's frame (hit) or one `pread` (miss). Each iteration is
/// one access to the next page of a cycle over `pages` pages, warmed once;
/// the check after each cell pins that it timed only hits or only misses.
fn bench_page_path(c: &mut Criterion) {
    const PAGE: usize = 1024;
    let cell = |c: &mut Criterion, name: &str, dev: &Device, pages: u64, hits: bool| {
        for p in 0..pages {
            dev.read_page(PageId(p), |b| b[0]);
        }
        let before = dev.stats();
        let mut next = 0u64;
        c.bench_function(name, |bch| {
            bch.iter(|| {
                let p = next;
                next = (next + 1) % pages;
                dev.read_page(PageId(p), |b| b[0])
            })
        });
        let d = dev.stats().since(before);
        let wrong = if hits { d.reads } else { d.cache_hits };
        assert!(d.total() + d.cache_hits > 0 && wrong == 0, "{name} timed a mixed stream: {d:?}");
    };
    let frozen = |cache_pages: usize, pages: u64| {
        let dev = Device::new(DeviceConfig::new(PAGE, cache_pages));
        dev.alloc_pages(pages as usize);
        dev.freeze();
        dev
    };
    cell(c, "page_hit_mem_cache32", &frozen(32, 32), 32, true);
    cell(c, "page_hit_mem_cache1m_res4096", &frozen(1 << 20, 4096), 4096, true);
    // 33 pages cycled through a 32-page LRU: every access evicts the page
    // read next.
    cell(c, "page_miss_mem_cache32", &frozen(32, 33), 33, false);

    let dir = TempDir::new("lcrs-micro-page-path");
    let path = dir.file("p.pages");
    frozen(0, 33).freeze_to_path(&path).unwrap();
    cell(c, "page_hit_file_cache32", &Device::open_snapshot(&path, 32).unwrap(), 32, true);
    cell(c, "page_miss_file_cache32", &Device::open_snapshot(&path, 32).unwrap(), 33, false);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_predicates, bench_envelope, bench_level_walk, bench_btree, bench_hull3, bench_queries, bench_page_path
}
criterion_main!(benches);
