//! Streaming CRC-32 (IEEE 802.3 polynomial) for on-disk integrity.
//!
//! Every durable artifact in the system — RWDIDX4 index files, engine
//! snapshots, journal records — carries a content checksum so bit rot is
//! detected at load instead of silently served. The implementation is the
//! classic reflected table-driven CRC-32 (polynomial `0xEDB88320`), the
//! same function zlib/PNG/ethernet use, so externally produced checksums
//! (`crc32(b"123456789") == 0xCBF43926`) agree.

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
    /// Uses slicing-by-8: eight precomputed tables let the loop fold one
    /// aligned 8-byte word per iteration instead of one byte, which is what
    /// keeps whole-index checksum verification off the snapshot-recovery
    /// critical path.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
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
        self.state = s;
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
/// sweep: the checksum is the only O(file) work on that path, so it is
/// the only part worth parallelizing. Chunks stay ≥ 1 MiB (below that,
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
