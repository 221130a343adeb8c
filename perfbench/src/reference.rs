//! The host-speed reference the end-to-end timings are scaled by.
//!
//! The shared virtual machines this benchmark runs on change speed in
//! phases of seconds to minutes as their neighbours load the cores, the
//! caches and the memory system, and a slow phase can fill a whole run.
//! A 64-core simulation uses all three, so a fixed mix of work that also
//! uses all three slows down with it: an integer loop, a pointer chase
//! over a buffer about the size of a last-level cache share, and one over
//! a buffer larger than any cache. A run samples the mix before and after
//! every pass and reports the pass's times as `measured × REFERENCE_S /
//! sample time`: host seconds at the speed at which the mix takes
//! [`REFERENCE_S`]. The mix is the same work in every run whatever the
//! seed or the code under test, and it never runs while a pass does, so a
//! change to the simulator moves the scaled timings exactly as much as the
//! raw ones.

use std::time::Instant;

/// Iterations of the integer loop per sample.
const LOOP_ITERS: u64 = 20_000_000;
/// The two chases: (words in the buffer, dependent loads per sample).
const CHASES: [(usize, usize); 2] = [(1 << 20, 300_000), (4 << 20, 200_000)];
/// Seconds a sample takes at the reference speed: about its time on an
/// unloaded 2-vCPU Intel Xeon virtual machine, so that scaled timings
/// read close to that host's wall-clock seconds.
pub const REFERENCE_S: f64 = 0.1;

pub struct Reference {
    chases: Vec<(Vec<u32>, usize)>,
    samples: Vec<f64>,
}

/// One cycle through every word of a buffer of `words`, in an order fixed
/// by a constant seed (Sattolo's shuffle), so that each step misses.
fn cycle(words: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..words as u32).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..words).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    next
}

impl Reference {
    pub fn new() -> Self {
        let chases = CHASES.iter().map(|&(words, steps)| (cycle(words), steps)).collect();
        Reference { chases, samples: Vec::new() }
    }

    /// Times one sample of the mix.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..LOOP_ITERS {
            x = x.rotate_left(7) ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d);
            x = x.wrapping_add(x >> 3);
        }
        std::hint::black_box(x);
        for (next, steps) in &self.chases {
            let mut at = 0u32;
            for _ in 0..*steps {
                at = next[at as usize];
            }
            std::hint::black_box(at);
        }
        self.samples.push(t.elapsed().as_secs_f64());
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// What the host times of the pass between samples `i` and `i + 1`
    /// are multiplied by: `REFERENCE_S` over the mean of the two.
    pub fn scale_around(&self, i: usize) -> f64 {
        2.0 * REFERENCE_S / (self.samples[i] + self.samples[i + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chase_is_one_cycle_through_every_word() {
        let next = cycle(1000);
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, next.len());
    }

    #[test]
    fn scale_is_reference_over_the_mean_of_the_samples_around_a_pass() {
        let r = Reference {
            chases: Vec::new(),
            samples: vec![REFERENCE_S, 3.0 * REFERENCE_S, REFERENCE_S],
        };
        assert!((r.scale_around(0) - 0.5).abs() < 1e-12);
        assert!((r.scale_around(1) - 0.5).abs() < 1e-12);
    }
}
