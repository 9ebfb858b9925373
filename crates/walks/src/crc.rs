//! Streaming CRC-32 (IEEE 802.3 polynomial) for on-disk integrity.
//!
//! Every durable artifact in the system — RWDIDX4 index files, engine
//! snapshots, journal records — carries a content checksum so bit rot is
//! detected at load instead of silently served. The function is the
//! classic reflected CRC-32 (polynomial `0xEDB88320`), the same one
//! zlib/PNG/ethernet use, so externally produced checksums
//! (`crc32(b"123456789") == 0xCBF43926`) agree.
//!
//! [`Crc32::update`] is the one entry point and picks its path per call
//! from the CPU's features alone. On x86_64 with `pclmulqdq` and `sse4.1`,
//! inputs of 64 bytes or more go through a carry-less-multiply kernel
//! that folds 64-byte blocks (Intel's "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ", as in Linux's `crc32-pclmul_asm.S`); it
//! runs at memory speed, so a whole-index sweep costs about what faulting
//! the file in costs. Shorter inputs, the last `len % 16` bytes and every
//! other CPU use a slicing-by-8 table loop. Both carry the same register,
//! so every value is the table's.

/// Incremental CRC-32 hasher over a byte stream.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Absorbs `bytes` into the running checksum.
    ///
    /// Runs the carry-less-multiply kernel when the CPU has it and
    /// `bytes` holds at least one 64-byte block, and the slicing-by-8
    /// table loop otherwise; both give the same value.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = kernel(self.state, bytes).unwrap_or_else(|| table(self.state, bytes));
    }

    /// Finishes the checksum without consuming the hasher.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Slicing-by-8: eight precomputed tables fold one 8-byte word per
/// iteration, then the tail goes byte by byte.
fn table(mut s: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes(c[0..4].try_into().unwrap()) ^ s;
        let hi = u32::from_le_bytes(c[4..8].try_into().unwrap());
        s = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        s = (s >> 8) ^ TABLES[0][((s ^ b as u32) & 0xFF) as usize];
    }
    s
}

/// The register after absorbing `bytes` through the carry-less-multiply
/// kernel (the tail under 16 bytes through [`table`]), or `None` when the
/// CPU lacks `pclmulqdq`/`sse4.1` or `bytes` is shorter than one block.
#[cfg(target_arch = "x86_64")]
fn kernel(state: u32, bytes: &[u8]) -> Option<u32> {
    if bytes.len() < 64
        || !is_x86_feature_detected!("pclmulqdq")
        || !is_x86_feature_detected!("sse4.1")
    {
        return None;
    }
    let body = bytes.len() & !15;
    // SAFETY: the CPU has both features the kernel is compiled for.
    let state = unsafe { clmul::fold(state, &bytes[..body]) };
    Some(table(state, &bytes[body..]))
}

#[cfg(not(target_arch = "x86_64"))]
fn kernel(_state: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Folds `bytes` into the CRC register `state` by carry-less
    /// multiplication. Four 128-bit lanes each advance 512 bits per step
    /// (`x·k1k2`), collapse into one (`k3k4`), which absorbs the remaining
    /// 16-byte lanes, then shrink 128 → 64 → 32 bits (`k4`, `k5`) and
    /// leave the register by a Barrett reduction (`P′`, `μ`). The
    /// constants are the bit-reflected `x^n mod P` values for `0xEDB88320`.
    ///
    /// Callers must first check that the CPU has `pclmulqdq` and `sse4.1`.
    /// Panics unless `bytes.len()` is a multiple of 16 and at least 64.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
        let k1k2 = _mm_set_epi64x(0x1_c6e4_1596, 0x1_5444_2bd4);
        let k3k4 = _mm_set_epi64x(0x0_ccaa_009e, 0x1_7519_97d0);
        let k5 = _mm_set_epi64x(0, 0x1_63cd_6124);
        let poly_mu = _mm_set_epi64x(0x1_f701_1641, 0x1_db71_0641);
        let mask32 = _mm_set_epi32(0, 0, 0, -1);
        let load = |lane: &[u8]| {
            let lane = &lane[..16];
            // SAFETY: `lane` is 16 readable bytes, and the load is unaligned.
            unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
        };

        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("at least one block");
        let mut x = [0, 16, 32, 48].map(|at| load(&first[at..]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        for block in blocks.by_ref() {
            for (i, lane) in x.iter_mut().enumerate() {
                *lane = step(*lane, k1k2, load(&block[16 * i..]));
            }
        }
        let mut acc = step(step(step(x[0], k3k4, x[1]), k3k4, x[2]), k3k4, x[3]);
        for lane in blocks.remainder().chunks_exact(16) {
            acc = step(acc, k3k4, load(lane));
        }
        // 128 → 64 bits (appending the register's 32 zero bits), 64 → 32.
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), k5, 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett: q = ⌊acc·μ⌋ (low 32 bits), acc ⊕ q·P′ leaves the register
        // in bits 32..64.
        let q = _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), poly_mu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(qp, acc), 1) as u32
    }

    /// One fold: `x.lo·k.lo ⊕ x.hi·k.hi ⊕ next`, advancing lane `x` by the
    /// distance `k` encodes and adding the lane found there.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn step(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(
                _mm_clmulepi64_si128(x, k, 0x00),
                _mm_clmulepi64_si128(x, k, 0x11),
            ),
            next,
        )
    }
}

/// Combines two independently computed checksums: for any split
/// `m = a ++ b`, `crc32_combine(crc32(a), crc32(b), b.len()) == crc32(m)`.
///
/// CRC-32 is linear over GF(2): appending `len2` bytes to `a` multiplies
/// its shift-register state by `x^(8·len2)` (mod the polynomial), and
/// that operator is a 32×32 bit matrix applied by square-and-multiply —
/// `O(log len2)` matrix squarings, independent of the data (zlib's
/// `crc32_combine`). This is what lets one whole-file sweep be computed
/// as parallel per-chunk sweeps and folded exactly.
pub fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    if len2 == 0 {
        return crc1;
    }
    // odd = the operator advancing the register by ONE zero bit.
    let mut odd = [0u32; 32];
    odd[0] = 0xEDB8_8320;
    let mut row = 1u32;
    for slot in odd.iter_mut().skip(1) {
        *slot = row;
        row <<= 1;
    }
    let mut even = [0u32; 32];
    gf2_matrix_square(&mut even, &odd); // 2 zero bits
    gf2_matrix_square(&mut odd, &even); // 4 zero bits
    let (mut crc1, mut len2) = (crc1, len2);
    // Square-and-multiply over the bits of 8·len2 (the ×256 head start is
    // why the loop starts from the 4-bit operator and squares first).
    loop {
        gf2_matrix_square(&mut even, &odd);
        if len2 & 1 != 0 {
            crc1 = gf2_matrix_times(&even, crc1);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
        gf2_matrix_square(&mut odd, &even);
        if len2 & 1 != 0 {
            crc1 = gf2_matrix_times(&odd, crc1);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
    }
    crc1 ^ crc2
}

/// CRC-32 of an in-memory slice, computed by up to `threads` workers over
/// contiguous chunks and folded with [`crc32_combine`] — bit-identical to
/// [`crc32`] at any worker count. This is the mapped open's one content
/// sweep, which also faults the whole file in. With the carry-less-multiply
/// kernel one core hashes about as fast as a cold mapping faults in, so
/// on a few cores the split gains little; hosts with many cores still
/// split both the faults and the hash. Chunks stay ≥ 1 MiB (below that,
/// thread spawn costs more than the hash), and `threads <= 1` or a small
/// input degrade to the sequential sweep.
pub fn crc32_parallel(bytes: &[u8], threads: usize) -> u32 {
    const MIN_CHUNK: usize = 1 << 20;
    let workers = threads.clamp(1, bytes.len().div_ceil(MIN_CHUNK).max(1));
    let chunk = bytes.len().div_ceil(workers).max(1);
    let mut parts =
        crate::parallel::fan_out(bytes.chunks(chunk), |c| (crc32(c), c.len() as u64)).into_iter();
    // An empty input makes no parts; its checksum is 0.
    let (first, _) = parts.next().unwrap_or_default();
    parts.fold(first, |acc, (c, len)| crc32_combine(acc, c, len))
}

fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for n in 0..32 {
        square[n] = gf2_matrix_times(mat, mat[n]);
    }
}

/// Reflected CRC-32 lookup tables for polynomial `0xEDB88320`, built at
/// compile time. `TABLES[0]` is the classic one-byte table; `TABLES[k]`
/// advances a byte `k` positions through the shift register, so the eight
/// tables together fold a 64-bit word in one step (slicing-by-8).
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_value() {
        // The canonical CRC-32 check: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn combine_equals_one_shot_at_every_split() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5_000).collect();
        let whole = crc32(&data);
        for split in [0, 1, 7, 64, 2_499, 4_999, 5_000] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "split at {split}"
            );
        }
    }

    #[test]
    fn parallel_equals_sequential_at_any_worker_count() {
        let data: Vec<u8> = (0..4_000_000usize).map(|i| (i * 31 % 251) as u8).collect();
        let whole = crc32(&data);
        for threads in [0, 1, 2, 3, 7, 16] {
            assert_eq!(crc32_parallel(&data, threads), whole, "{threads} workers");
        }
        assert_eq!(crc32_parallel(b"", 8), 0);
    }

    /// Deterministic pseudo-random bytes (xorshift64*), so no lane of a
    /// block repeats another.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    /// Whether this CPU runs the kernel, printed so that a host without it
    /// says the table was the only path checked.
    fn kernel_runs_here() -> bool {
        let runs = kernel(!0, &[0u8; 64]).is_some();
        println!(
            "checksum path: {}",
            if runs {
                "pclmulqdq kernel, checked against the table"
            } else {
                "table only (this CPU lacks pclmulqdq/sse4.1; the kernel did not run)"
            }
        );
        runs
    }

    #[test]
    fn kernel_equals_table_at_every_length_and_offset() {
        let runs = kernel_runs_here();
        let longest = (1 << 20) + 13;
        let data = noise(longest + 16, 1);
        let lengths = (0..=1024).chain([4095, 4096, 4097, 65537, longest]);
        let mut checked = 0;
        for len in lengths {
            for offset in 0..16 {
                let bytes = &data[offset..offset + len];
                let want = table(!0, bytes);
                match kernel(!0, bytes) {
                    Some(got) => {
                        assert_eq!(got, want, "length {len}, offset {offset}");
                        checked += 1;
                    }
                    None => assert!(!runs || len < 64, "kernel declined length {len}"),
                }
                // A register other than the initial one folds the same way.
                let state = want.rotate_left(7) ^ len as u32;
                if let Some(got) = kernel(state, bytes) {
                    assert_eq!(got, table(state, bytes), "length {len}, offset {offset}");
                }
                assert_eq!(crc32(bytes), !want);
            }
        }
        println!("kernel ≡ table at {checked} (length, offset) pairs");
    }

    #[test]
    fn streaming_update_equals_one_shot_at_random_splits() {
        kernel_runs_here();
        let data = noise(150_000, 2);
        let whole = !table(!0, &data);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for round in 0..24 {
            let mut h = Crc32::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Alternate short pieces (the table) and block-sized ones
                // (the kernel and its tail).
                let cap = if x & 1 == 0 { 80 } else { 40_000 };
                let take = (1 + (x >> 8) as usize % cap).min(rest.len());
                let (piece, tail) = rest.split_at(take);
                h.update(piece);
                rest = tail;
            }
            assert_eq!(h.finish(), whole, "round {round}");
        }
    }

    #[test]
    fn combine_and_parallel_over_kernel_parts_equal_one_shot() {
        kernel_runs_here();
        let data = noise((3 << 20) + 5, 3);
        let whole = !table(!0, &data);
        for parts in [2, 3, 7, 64] {
            let chunk = data.len().div_ceil(parts);
            let folded = data
                .chunks(chunk)
                .map(|c| (!kernel(!0, c).unwrap_or_else(|| table(!0, c)), c.len()))
                .reduce(|(a, _), (b, len)| (crc32_combine(a, b, len as u64), len))
                .unwrap()
                .0;
            assert_eq!(folded, whole, "{parts} parts");
        }
        for threads in [1, 2, 4] {
            assert_eq!(crc32_parallel(&data, threads), whole, "{threads} workers");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
