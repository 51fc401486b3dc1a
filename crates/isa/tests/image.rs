//! Multi-tenant image validation over *real* kernel configurations:
//! merge/round-trip of compiled bitstreams, typed rejection of layout
//! and containment violations (including tampered cross-partition
//! routes), and region-mask compile containment — a full-fabric-view
//! compile confined to one partition never places or routes outside it.

use marionette_arch::preset_for_partition;
use marionette_compiler::{compile_with_timing_and_faults, FabricDims, Partition, PartitionMap};
use marionette_isa::bitstream::encode;
use marionette_isa::image::{ImageError, MultiTenantImage, TenantImage};
use marionette_isa::MachineProgram;
use marionette_kernels::traits::Scale;

/// Compiles `tag` for the given preset short on a `rows`x`cols` fabric.
fn compiled(tag: &str, preset: &str, rows: usize, cols: usize) -> MachineProgram {
    let k = marionette_kernels::by_short(tag).expect("kernel tag");
    let wl = k.workload(Scale::Tiny, 3);
    let g = k.build(&wl).expect("kernel builds");
    let part = Partition::new(rows, cols, 0, 0);
    let arch = preset_for_partition(&part, preset).expect("preset tag");
    let none = marionette_sim::FaultSet::none();
    let (prog, _) =
        compile_with_timing_and_faults(&g, &arch.opts, &arch.tm, &none).expect("compiles");
    prog
}

fn tenant(name: &str, prog: &MachineProgram, row0: u8, col0: u8) -> TenantImage {
    TenantImage {
        name: name.to_string(),
        rows: prog.rows,
        cols: prog.cols,
        row0,
        col0,
        bitstream: encode(prog),
    }
}

#[test]
fn real_kernel_tenants_merge_and_round_trip() {
    let crc = compiled("CRC", "M", 4, 4);
    let fft = compiled("FFT", "M", 4, 4);
    let img = MultiTenantImage::merge(
        4,
        8,
        vec![tenant("CRC", &crc, 0, 0), tenant("FFT", &fft, 0, 4)],
    )
    .expect("disjoint 4x4 tenants merge onto 4x8");
    let progs = img.tenant_programs().expect("programs decode");
    assert_eq!(progs[0], crc);
    assert_eq!(progs[1], fft);
    let back = MultiTenantImage::decode(&img.encode()).expect("container round-trips");
    assert_eq!(back, img);
}

#[test]
fn overlapping_real_tenants_are_rejected() {
    let crc = compiled("CRC", "M", 4, 4);
    let fft = compiled("FFT", "M", 4, 4);
    let e = MultiTenantImage::merge(
        4,
        8,
        vec![tenant("CRC", &crc, 0, 0), tenant("FFT", &fft, 0, 2)],
    )
    .unwrap_err();
    assert!(matches!(e, ImageError::Overlap { .. }), "got {e}");
}

#[test]
fn tampered_cross_partition_route_is_rejected() {
    let mut crc = compiled("CRC", "M", 4, 4);
    // Detour some route through tile 17 — outside a 16-tile partition.
    let r = crc
        .routes
        .iter_mut()
        .find(|r| !r.path.is_empty())
        .expect("CRC has at least one routed edge");
    let evil_tile = 17u16;
    r.path.insert(1, evil_tile);
    let e = MultiTenantImage::merge(8, 8, vec![tenant("CRC", &crc, 0, 0)]).unwrap_err();
    match e {
        ImageError::CrossPartitionRoute { tenant, tile, .. } => {
            assert_eq!(tenant, "CRC");
            assert_eq!(tile, evil_tile);
        }
        other => panic!("expected CrossPartitionRoute, got {other}"),
    }
}

#[test]
fn region_mask_compile_stays_inside_the_partition() {
    // Fabric-view compile: an 8x8 host with placement confined to the
    // top-left 4x4 quadrant via the exclusion mask. Every node tile and
    // every route-path tile must land inside the region.
    let k = marionette_kernels::by_short("CRC").expect("kernel tag");
    let wl = k.workload(Scale::Tiny, 3);
    let g = k.build(&wl).expect("kernel builds");
    let host = FabricDims::new(8, 8);
    let map = PartitionMap::new(host, vec![Partition::new(4, 4, 0, 0)]).expect("fits");
    let archs = marionette_arch::presets_by_tags_on(host, "M").expect("preset");
    let arch = &archs[0];
    assert_eq!(
        arch.opts.dims(),
        map.fabric(),
        "the preset targets the host fabric"
    );
    let (prog, _) =
        compile_with_timing_and_faults(&g, &arch.opts, &arch.tm, &map.exclusion_mask(0))
            .expect("compiles");
    let inside = |t: u16| (t / 8) < 4 && (t % 8) < 4;
    for (i, n) in prog.nodes.iter().enumerate() {
        assert!(
            inside(n.place.tile()),
            "node {i} placed outside the region at tile {}",
            n.place.tile()
        );
    }
    for (i, r) in prog.routes.iter().enumerate() {
        for &t in &r.path {
            assert!(
                inside(t),
                "route {i} crosses the region boundary at tile {t}"
            );
        }
    }
}
