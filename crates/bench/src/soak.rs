//! The seeded job mix `serve_soak` and `chaos_soak` share: one looping
//! float kernel in several variants, and per-tenant job lists that are a
//! pure function of (seed, tenant index), so a soak's work is
//! reproducible from its `--seed` alone.

/// Source of soak kernel `{prefix}{variant}`: each work-item iterates
/// `x = x * 0.99{variant} + bias` `iters` times. Distinct variants are
/// distinct programs, so a soak populates the compile store with more
/// than one object.
pub fn source(prefix: &str, variant: u64) -> String {
    format!(
        r#"
__kernel void {prefix}{variant}(__global float* a, int iters, float bias) {{
    int i = get_global_id(0);
    float x = a[i];
    for (int k = 0; k < iters; k++) {{
        x = x * 0.99{variant}f + bias;
    }}
    a[i] = x;
}}
"#
    )
}

/// splitmix64: the workload generator. Deliberately dependency-free so
/// the job mix is reproducible from the seed alone, forever.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Uniform float in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32
    }
}

/// One soak job: `n` work-items over their own buffer.
#[derive(Clone, Copy)]
pub struct JobSpec {
    /// Work-items (and floats in the job's buffer).
    pub n: usize,
    /// The kernel's loop trip count.
    pub iters: i32,
    /// The kernel's additive bias.
    pub bias: f32,
    /// Seed of the buffer's initial contents ([`input_bytes`]).
    pub input_seed: u64,
}

/// The job mix for one tenant, a pure function of (seed, tenant index):
/// each job runs `min_iters` to `min_iters + 199` loop iterations.
pub fn tenant_jobs(seed: u64, tenant: usize, jobs: usize, min_iters: u64) -> Vec<JobSpec> {
    let mut rng = Rng(seed ^ (tenant as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    (0..jobs)
        .map(|_| JobSpec {
            n: (16 + 4 * rng.below(12)) as usize,
            iters: (min_iters + rng.below(200)) as i32,
            bias: rng.unit() * 0.25,
            input_seed: rng.next(),
        })
        .collect()
}

/// The job's initial buffer: `n` floats in `[-1, 1)`, little-endian.
pub fn input_bytes(spec: &JobSpec) -> Vec<u8> {
    let mut rng = Rng(spec.input_seed);
    (0..spec.n).flat_map(|_| rng.unit().to_le_bytes()).collect()
}
