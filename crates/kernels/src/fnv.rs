//! Streaming 64-bit FNV-1a.
//!
//! One hash, used everywhere: feature hashing (`sato-features`), colstore
//! frame checksums (`sato-tabular`) and artifact section/content checksums
//! (`sato-core`). FNV-1a is a strict byte chain (`h = (h ^ b) * PRIME`), so
//! it cannot be parallelised without changing the output; the chunked form
//! processes the input in eight-byte chunks to amortise bounds checks and
//! keep the multiply chain hot, and is bit-identical to the scalar byte
//! loop on every input.

/// The standard FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The standard FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The multiplier that mixes a caller seed into the offset basis (golden
/// ratio; matches the historical `sato-features` seeding).
pub const FNV_SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Absorb `bytes` into state `h`, eight bytes per iteration. The chain is
/// sequential by construction, so this is bit-identical to the byte loop.
#[inline]
fn absorb(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ c[0] as u64).wrapping_mul(FNV_PRIME);
        h = (h ^ c[1] as u64).wrapping_mul(FNV_PRIME);
        h = (h ^ c[2] as u64).wrapping_mul(FNV_PRIME);
        h = (h ^ c[3] as u64).wrapping_mul(FNV_PRIME);
        h = (h ^ c[4] as u64).wrapping_mul(FNV_PRIME);
        h = (h ^ c[5] as u64).wrapping_mul(FNV_PRIME);
        h = (h ^ c[6] as u64).wrapping_mul(FNV_PRIME);
        h = (h ^ c[7] as u64).wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Absorb the same `bytes` into two independent states in one pass. Each
/// FNV-1a chain is bound by the latency of its multiply, so interleaving a
/// second chain costs little extra time; each result is bit-identical to
/// [`absorb`] of that state alone.
#[inline]
fn absorb_pair(mut a: u64, mut b: u64, bytes: &[u8]) -> (u64, u64) {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let c: &[u8; 8] = c.try_into().expect("8-byte chunk");
        for &x in c {
            a = (a ^ x as u64).wrapping_mul(FNV_PRIME);
            b = (b ^ x as u64).wrapping_mul(FNV_PRIME);
        }
    }
    for &x in chunks.remainder() {
        a = (a ^ x as u64).wrapping_mul(FNV_PRIME);
        b = (b ^ x as u64).wrapping_mul(FNV_PRIME);
    }
    (a, b)
}

/// Streaming FNV-1a state, so callers can hash incrementally (e.g. char by
/// char across an n-gram window) without materialising a buffer first.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Start an unseeded stream (standard FNV-1a offset basis).
    #[inline]
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET_BASIS)
    }

    /// Start a seeded stream: the basis XORed with a golden-ratio mix of
    /// the seed (`seed == 0` is identical to [`Fnv1a::new`]).
    #[inline]
    pub fn with_seed(seed: u64) -> Self {
        Fnv1a(FNV_OFFSET_BASIS ^ seed.wrapping_mul(FNV_SEED_MIX))
    }

    /// Resume a stream from a previously captured [`Fnv1a::state`].
    #[inline]
    pub fn from_state(state: u64) -> Self {
        Fnv1a(state)
    }

    /// The raw internal state (equals [`Fnv1a::finish`]; named separately
    /// where the intent is to capture-and-resume rather than terminate).
    #[inline]
    pub fn state(self) -> u64 {
        self.0
    }

    /// Absorb raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        self.0 = absorb(self.0, bytes);
    }

    /// Absorb `bytes` into this stream and into `other` in one pass over
    /// the data — e.g. a whole-file hash and the checksum of the section
    /// being read. Both results equal what two separate
    /// [`write`](Self::write) calls give.
    #[inline]
    pub fn write_both(&mut self, other: &mut Fnv1a, bytes: &[u8]) {
        (self.0, other.0) = absorb_pair(self.0, other.0, bytes);
    }

    /// Absorb a single byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
    }

    /// Absorb a character's UTF-8 encoding (identical to hashing the bytes
    /// of a string containing it).
    #[inline]
    pub fn write_char(&mut self, c: char) {
        let mut buf = [0u8; 4];
        self.write(c.encode_utf8(&mut buf).as_bytes());
    }

    /// The accumulated hash value.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// Unseeded 64-bit FNV-1a over `bytes` (the standard test-vector variant).
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    absorb(FNV_OFFSET_BASIS, bytes)
}

/// Seeded 64-bit FNV-1a over `bytes`; `seed == 0` equals [`fnv1a64`].
#[inline]
pub fn fnv1a64_seeded(bytes: &[u8], seed: u64) -> u64 {
    absorb(FNV_OFFSET_BASIS ^ seed.wrapping_mul(FNV_SEED_MIX), bytes)
}

/// Scalar reference forms (the parity oracle and benchmark baseline).
pub mod scalar {
    use super::{FNV_OFFSET_BASIS, FNV_PRIME, FNV_SEED_MIX};

    /// Byte-at-a-time unseeded FNV-1a.
    pub fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h = FNV_OFFSET_BASIS;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Byte-at-a-time seeded FNV-1a.
    pub fn fnv1a64_seeded(bytes: &[u8], seed: u64) -> u64 {
        let mut h = FNV_OFFSET_BASIS ^ seed.wrapping_mul(FNV_SEED_MIX);
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard FNV-1a 64 test vectors (draft-eastlake-fnv).
    #[test]
    fn standard_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn chunked_matches_scalar_across_lengths() {
        let data: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                fnv1a64(&data[..len]),
                scalar::fnv1a64(&data[..len]),
                "len {len}"
            );
            assert_eq!(
                fnv1a64_seeded(&data[..len], 0x5a70_0001),
                scalar::fnv1a64_seeded(&data[..len], 0x5a70_0001),
                "seeded len {len}"
            );
        }
    }

    #[test]
    fn seed_zero_equals_unseeded() {
        assert_eq!(fnv1a64_seeded(b"warsaw", 0), fnv1a64(b"warsaw"));
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::with_seed(7);
        h.write(b"war");
        h.write_u8(b's');
        h.write_char('a');
        h.write(b"w");
        assert_eq!(h.finish(), fnv1a64_seeded(b"warsaw", 7));
        let resumed = Fnv1a::from_state(Fnv1a::with_seed(7).state());
        assert_eq!(resumed.state(), Fnv1a::with_seed(7).finish());
    }

    /// Two interleaved states give exactly what each gives alone, at every
    /// length around the eight-byte chunking and from any prior state.
    #[test]
    fn write_both_matches_two_separate_streams() {
        let data: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(41).wrapping_add(3))
            .collect();
        for len in 0..data.len() {
            let mut whole = Fnv1a::new();
            whole.write(b"header");
            let mut section = Fnv1a::new();
            whole.write_both(&mut section, &data[..len]);
            let mut expected = b"header".to_vec();
            expected.extend_from_slice(&data[..len]);
            assert_eq!(whole.finish(), scalar::fnv1a64(&expected), "len {len}");
            assert_eq!(section.finish(), scalar::fnv1a64(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn write_char_encodes_utf8() {
        let mut h = Fnv1a::new();
        h.write_char('ß');
        h.write_char('Σ');
        assert_eq!(h.finish(), fnv1a64("ßΣ".as_bytes()));
    }
}
