//! Seeded trace generators for the two 64-core workloads.
//!
//! Each generator assembles the same phases as the suite preset it is
//! named after, through the public `Phases`/`Region` API, but takes its RNG
//! seed from the benchmark's `--seed` argument. At the preset's own seed
//! (`0xc0ffee ^ index`) the generated trace is the preset's trace byte for
//! byte ([`preset_matches`]), so the benchmark simulates the figures'
//! traffic and only the random choices (which words are written, with
//! which values) vary with the seed.

use lacc_sim::ltf::workload_to_ltf_bytes_v2;
use lacc_sim::{RegionDecl, Workload};
use lacc_workloads::{Benchmark, Phases, Region};

/// `Benchmark::build`'s scaling of a phase repeat count.
fn scaled(n: u32, scale: f64) -> u32 {
    ((f64::from(n) * scale).round() as u32).max(1)
}

/// The per-core private arenas every preset declares first (a 96-line
/// hot set at line 0, a 4096-line stream area at line 4096): the stream
/// regions and the declarations of both.
fn private_arenas(cores: usize) -> (Vec<Region>, Vec<RegionDecl>) {
    let hot = (0..cores).map(|c| Region::private(c, 0, 96));
    let stream: Vec<Region> = (0..cores).map(|c| Region::private(c, 4096, 4096)).collect();
    let decls = hot
        .enumerate()
        .chain(stream.iter().copied().enumerate())
        .map(|(c, r)| r.decl_private(c))
        .collect();
    (stream, decls)
}

/// ocean-nc: a private stream (2 passes, 2 words per line, 30% writes),
/// a stencil halo exchange over a shared grid of 96 lines per core, then
/// read-write sharing of that grid.
pub fn ocean(cores: usize, scale: f64, seed: u64) -> Workload {
    let mut p = Phases::new(cores, seed);
    let (stream, mut decls) = private_arenas(cores);
    let grid = Region::shared(0, cores as u64 * 96);
    decls.push(grid.decl_shared());
    p.private_stream(&stream, 2, 4, 0.3);
    p.barrier();
    p.stencil(&grid, scaled(3, scale).min(6), 2);
    p.shared_read_write(&grid, scaled(200, scale), 1, 3);
    p.finish(Benchmark::OceanNc.name(), decls, 48)
}

/// matmul: each core streams its private A rows, all cores stream the
/// shared read-only B, then each core scatters into its private C with
/// one word per line (60% writes). The preset has no scaled phase.
pub fn matmul(cores: usize, seed: u64) -> Workload {
    let mut p = Phases::new(cores, seed);
    let (_, mut decls) = private_arenas(cores);
    let b_matrix = Region::shared(0, 512);
    decls.push(b_matrix.decl_shared());
    let a_rows: Vec<Region> = (0..cores).map(|c| Region::private(c, 4096, 512)).collect();
    let c_out: Vec<Region> = (0..cores).map(|c| Region::private(c, 8192, 1024)).collect();
    p.private_stream(&a_rows, 2, 1, 0.0);
    p.shared_stream(&b_matrix, 2, 1, 0.0);
    p.private_stream(&c_out, 2, 8, 0.6);
    p.finish(Benchmark::Matmul.name(), decls, 16)
}

/// The seed `Benchmark::build` uses for `bench`.
pub fn preset_seed(bench: Benchmark) -> u64 {
    0xc0ffee ^ (bench as u64)
}

/// `true` when both generators, at their preset's seed, encode to the
/// same LTF v2 bytes as `Benchmark::{OceanNc, Matmul}.build(cores, scale)`.
///
/// # Panics
///
/// Panics if a workload fails to encode (an in-memory encode cannot fail
/// for generated traces).
pub fn preset_matches(cores: usize, ocean_scale: f64) -> bool {
    let bytes = |w: Workload| workload_to_ltf_bytes_v2(w).expect("in-memory LTF encode");
    let ocean_ok = bytes(ocean(cores, ocean_scale, preset_seed(Benchmark::OceanNc)))
        == bytes(Benchmark::OceanNc.build(cores, ocean_scale));
    // The matmul preset has no scaled phase: any scale builds its trace.
    let matmul_ok = bytes(matmul(cores, preset_seed(Benchmark::Matmul)))
        == bytes(Benchmark::Matmul.build(cores, 1.0));
    ocean_ok && matmul_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_reproduce_the_presets_at_their_seeds() {
        assert!(preset_matches(64, 0.05));
        assert!(preset_matches(8, 0.3));
    }

    #[test]
    fn other_seeds_change_the_trace() {
        let bytes = |w: Workload| workload_to_ltf_bytes_v2(w).unwrap();
        assert_ne!(bytes(ocean(8, 0.05, 1)), bytes(ocean(8, 0.05, 2)));
        assert_ne!(bytes(matmul(8, 1)), bytes(matmul(8, 2)));
    }
}
