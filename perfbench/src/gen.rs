//! Seeded input generation. Every input the benchmark sends is drawn
//! from a splitmix64 stream keyed by `(--seed, purpose tag)`, so one seed
//! always yields the same requests, and the program under test sees only
//! the generated lines.

use oa_circuit::{ParamSpace, Topology, DESIGN_SPACE_SIZE};

/// splitmix64 finalizer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) of one benchmark seed.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        Rng(mix(seed ^ mix(tag)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A seed or id small enough to cross the wire's f64 numbers exactly.
    pub fn wire_u64(&mut self) -> u64 {
        self.next_u64() >> 32
    }

    /// A uniformly drawn design-space topology.
    pub fn topology(&mut self) -> Topology {
        Topology::from_index(self.below(DESIGN_SPACE_SIZE as u64) as usize)
            .expect("index is below the design-space size")
    }

    /// A normalized sizing vector for `topology`.
    pub fn point(&mut self, topology: &Topology) -> Vec<f64> {
        (0..ParamSpace::for_topology(topology).dim())
            .map(|_| self.unit())
            .collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}
