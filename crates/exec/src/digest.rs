//! Stable content digests for cache addressing.
//!
//! The cache key of an evaluation result must be a pure function of the
//! *content* of the evaluated configuration — stable across processes,
//! platforms and runs (so the on-disk tier survives restarts), and
//! independent of incidental details like the order in which a caller
//! feeds struct fields. Rust's `std::hash::Hasher` deliberately makes no
//! such guarantee, so this module pins down a concrete algorithm:
//! 64-bit FNV-1a over a length-prefixed byte encoding, with an
//! order-insensitive commutative combiner for struct fields.

/// Code-version salt mixed into persisted cache keys.
///
/// Bump this constant whenever the *semantics* of any cached evaluation
/// change (application models, operator netlists, synthesis cost
/// models…): every persisted entry keyed under the old salt then misses,
/// so stale results can never be replayed into a newer build.
pub const CODE_VERSION_SALT: u64 = 0x434c_4150_5045_4401; // "CLAPPED" v01

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a streaming hasher with a fixed, documented encoding.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the standard FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Feeds a string length-prefixed, so `("ab", "c")` and
    /// `("a", "bc")` digest differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest of everything fed so far, finalized through an
    /// avalanche mixer so nearby inputs spread across the key space.
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

/// SplitMix64 finalizer: full-avalanche 64-bit bijection.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Types with a stable content encoding into a [`Fnv64`] stream.
///
/// Implementations must feed every behaviour-relevant field and must be
/// stable across runs — no addresses, no iteration over unordered maps.
pub trait Digestible {
    /// Feeds this value's content into the hasher.
    fn feed(&self, h: &mut Fnv64);
}

/// Digest of a single value: a fresh hasher fed once and finished.
pub fn digest_of<T: Digestible + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.feed(&mut h);
    h.finish()
}

macro_rules! digest_as_u64 {
    ($($t:ty),*) => {$(
        impl Digestible for $t {
            fn feed(&self, h: &mut Fnv64) {
                h.write_u64(*self as u64);
            }
        }
    )*};
}

// The pinned digests sign-extend every integer `as u64`. The block holds
// one expectation for all ten impls: `u64` and `usize` raise neither lint.
#[expect(clippy::cast_lossless, clippy::cast_sign_loss, reason = "the pinned digest encoding")]
const _: () = {
    digest_as_u64!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
};

impl Digestible for bool {
    fn feed(&self, h: &mut Fnv64) {
        h.write_u64(u64::from(*self));
    }
}

impl Digestible for f64 {
    fn feed(&self, h: &mut Fnv64) {
        // Normalize -0.0 so numerically equal keys digest equally.
        let v = if *self == 0.0 { 0.0f64 } else { *self };
        h.write_u64(v.to_bits());
    }
}

impl Digestible for str {
    fn feed(&self, h: &mut Fnv64) {
        h.write_str(self);
    }
}

impl Digestible for String {
    fn feed(&self, h: &mut Fnv64) {
        h.write_str(self);
    }
}

impl<T: Digestible> Digestible for [T] {
    fn feed(&self, h: &mut Fnv64) {
        h.write_u64(self.len() as u64);
        for v in self {
            v.feed(h);
        }
    }
}

impl<T: Digestible> Digestible for Vec<T> {
    fn feed(&self, h: &mut Fnv64) {
        self.as_slice().feed(h);
    }
}

impl<T: Digestible> Digestible for Option<T> {
    fn feed(&self, h: &mut Fnv64) {
        match self {
            None => h.write_u64(0),
            Some(v) => {
                h.write_u64(1);
                v.feed(h);
            }
        }
    }
}

impl<T: Digestible + ?Sized> Digestible for &T {
    fn feed(&self, h: &mut Fnv64) {
        (**self).feed(h);
    }
}

/// Order-insensitive struct digest builder.
///
/// Each `(name, value)` field is hashed independently and combined with
/// a commutative `wrapping_add`, so the digest does not depend on the
/// order fields are fed in — two call sites (or two code versions that
/// reorder fields) produce the same key for the same content. Field
/// *names* participate in each field's hash, so swapping the values of
/// two fields still changes the digest.
///
/// # Examples
///
/// ```
/// use clapped_exec::StructDigest;
///
/// let a = StructDigest::new("config").field("x", &1u32).field("y", &2u32).finish();
/// let b = StructDigest::new("config").field("y", &2u32).field("x", &1u32).finish();
/// let c = StructDigest::new("config").field("x", &2u32).field("y", &1u32).finish();
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone)]
pub struct StructDigest {
    tag: u64,
    acc: u64,
    fields: u64,
}

impl StructDigest {
    /// Starts a digest for the struct type named `tag`.
    pub fn new(tag: &str) -> StructDigest {
        StructDigest { tag: digest_of(tag), acc: 0, fields: 0 }
    }

    /// Feeds one named field. Order of `field` calls does not affect the
    /// final digest.
    #[must_use]
    pub fn field(mut self, name: &str, value: &(impl Digestible + ?Sized)) -> StructDigest {
        let mut h = Fnv64::new();
        h.write_str(name);
        value.feed(&mut h);
        self.acc = self.acc.wrapping_add(mix64(h.finish()));
        self.fields += 1;
        self
    }

    /// Finalizes the struct digest.
    pub fn finish(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.tag);
        h.write_u64(self.fields);
        h.write_u64(self.acc);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors, pre-finalizer.
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.state, 0xaf63dc4c8601ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.state, 0x85944171f73967e8);
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn struct_digest_is_order_insensitive_but_name_sensitive() {
        let ab = StructDigest::new("t").field("a", &7u64).field("b", &9u64).finish();
        let ba = StructDigest::new("t").field("b", &9u64).field("a", &7u64).finish();
        let swapped = StructDigest::new("t").field("a", &9u64).field("b", &7u64).finish();
        assert_eq!(ab, ba);
        assert_ne!(ab, swapped);
        assert_ne!(ab, StructDigest::new("u").field("a", &7u64).field("b", &9u64).finish());
    }

    #[test]
    fn negative_zero_normalizes() {
        assert_eq!(digest_of(&0.0f64), digest_of(&(-0.0f64)));
        assert_ne!(digest_of(&0.0f64), digest_of(&1.0f64));
    }

    #[test]
    fn slices_are_length_prefixed() {
        let a: Vec<u32> = vec![1, 2];
        let b: Vec<u32> = vec![1, 2, 0];
        assert_ne!(digest_of(&a), digest_of(&b));
    }
}
