//! XXH64, the snapshot container's payload checksum, implemented from its
//! published specification (Yann Collet, "xxHash fast digest algorithm",
//! XXH64) with a streaming [`Xxh64::update`].
//!
//! The payload hash used to be byte-serial FNV-1a: one dependent multiply
//! per byte, which bounded a load at about 1.6 ms per MB whatever else it
//! did. XXH64 hashes four independent 8-byte lanes per 32-byte stripe, so
//! a load can hash each chunk while it is still in cache, in the same pass
//! that decodes it.

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes of one stripe: four 8-byte lanes.
const STRIPE: usize = 32;

#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

#[inline(always)]
fn merge(acc: u64, lane_acc: u64) -> u64 {
    (acc ^ round(0, lane_acc)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

#[inline(always)]
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// A streaming XXH64 state: any split of the input into [`Xxh64::update`]
/// calls digests to the one-shot value of the whole input.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    seed: u64,
    acc: [u64; 4],
    /// The tail of the input that does not yet fill a stripe.
    pending: [u8; STRIPE],
    pending_len: usize,
    total_len: u64,
}

impl Xxh64 {
    /// A fresh state for `seed` (the snapshot container uses seed 0).
    pub fn new(seed: u64) -> Self {
        Xxh64 {
            seed,
            acc: [
                seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2),
                seed.wrapping_add(PRIME64_2),
                seed,
                seed.wrapping_sub(PRIME64_1),
            ],
            pending: [0; STRIPE],
            pending_len: 0,
            total_len: 0,
        }
    }

    /// XXH64 of `bytes` in one call.
    pub fn oneshot(seed: u64, bytes: &[u8]) -> u64 {
        let mut hasher = Xxh64::new(seed);
        hasher.update(bytes);
        hasher.digest()
    }

    #[inline(always)]
    fn stripes(acc: &mut [u64; 4], stripes: &[u8]) {
        for stripe in stripes.chunks_exact(STRIPE) {
            for (lane, acc) in stripe.chunks_exact(8).zip(acc.iter_mut()) {
                *acc = round(*acc, le_u64(lane));
            }
        }
    }

    /// Feed the next bytes of the input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (STRIPE - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < STRIPE {
                return;
            }
            Self::stripes(&mut self.acc, &self.pending);
            self.pending_len = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        Self::stripes(&mut self.acc, &bytes[..whole]);
        let rest = &bytes[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The hash of everything fed so far (the state stays usable).
    pub fn digest(&self) -> u64 {
        let [v1, v2, v3, v4] = self.acc;
        let mut hash = if self.total_len >= STRIPE as u64 {
            let hash = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            [v1, v2, v3, v4].into_iter().fold(hash, merge)
        } else {
            self.seed.wrapping_add(PRIME64_5)
        };
        hash = hash.wrapping_add(self.total_len);

        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            hash ^= round(0, le_u64(tail));
            hash = hash.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let lane = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) as u64;
            hash ^= lane.wrapping_mul(PRIME64_1);
            hash = hash.rotate_left(23).wrapping_mul(PRIME64_2).wrapping_add(PRIME64_3);
            tail = &tail[4..];
        }
        for &byte in tail {
            hash ^= (byte as u64).wrapping_mul(PRIME64_5);
            hash = hash.rotate_left(11).wrapping_mul(PRIME64_1);
        }

        hash ^= hash >> 33;
        hash = hash.wrapping_mul(PRIME64_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(PRIME64_3);
        hash ^ (hash >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn the_published_seed_zero_vectors() {
        assert_eq!(Xxh64::oneshot(0, b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(Xxh64::oneshot(0, b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(Xxh64::oneshot(0, b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    /// Every length 0–200, fed whole, byte by byte and split in two at
    /// every point, digests to one value.
    #[test]
    fn every_short_length_streams_to_the_oneshot_value() {
        let input: Vec<u8> = (0..=200u32).map(|i| (i.wrapping_mul(151) >> 3) as u8).collect();
        for len in 0..=input.len() {
            let bytes = &input[..len];
            let whole = Xxh64::oneshot(0, bytes);
            let mut bytewise = Xxh64::new(0);
            bytes.chunks(1).for_each(|b| bytewise.update(b));
            assert_eq!(bytewise.digest(), whole, "length {len} byte by byte");
            for cut in 0..=len {
                let mut split = Xxh64::new(0);
                split.update(&bytes[..cut]);
                split.update(&bytes[cut..]);
                assert_eq!(split.digest(), whole, "length {len} split at {cut}");
            }
        }
    }

    proptest! {
        /// Lengths 0–200 cross the 32-byte stripe and the 8-, 4- and 1-byte
        /// tails; any split into `update` calls digests to the one-shot value.
        #[test]
        fn any_split_of_the_input_digests_to_the_oneshot_value(
            input in proptest::collection::vec(any::<u8>(), 0..201),
            cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(input.len() + 1)).collect();
            cuts.sort_unstable();
            let mut hasher = Xxh64::new(0);
            let mut from = 0;
            for cut in cuts.into_iter().chain([input.len()]) {
                hasher.update(&input[from..cut]);
                from = cut;
            }
            prop_assert_eq!(hasher.digest(), Xxh64::oneshot(0, &input));
        }
    }
}
