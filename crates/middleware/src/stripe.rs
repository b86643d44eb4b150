//! Stripe storage: the backing buffer behind a sorted list's two arrays.
//!
//! A [`SortedList`](crate::SortedList) is exactly two dense arrays — the
//! grade-sorted `(id, grade)` entries and the `rank_of` inverse table. This
//! module makes *where those arrays live* a property of the value rather
//! than of the type: a [`Stripe<T>`] is either `Owned` (a plain `Vec<T>`,
//! the build-in-RAM path every constructor used before the storage tier
//! existed) or `Mapped` (a typed window into a shared byte buffer, e.g. a
//! memory-mapped store file opened by `fagin-store`). Everything above the
//! slice boundary — sessions, shards, algorithms — sees `&[T]`
//! either way, so answers and access counts cannot depend on the backing.
//!
//! This is the one module in the crate that needs `unsafe`: reinterpreting
//! mapped bytes as `&[T]` in place is the whole point of the storage tier
//! (re-deserializing would be the old O(database) restart). The unsafety is
//! fenced three ways:
//!
//! * [`StripePod`] is an `unsafe` marker trait implemented only for `u32`
//!   and [`Entry`], whose `#[repr(C)]`/`#[repr(transparent)]` layouts are
//!   pinned by compile-time assertions in `grade.rs`;
//! * [`StripeBytes`] is an `unsafe` trait whose contract is buffer
//!   *stability* (same address and length for the value's whole lifetime),
//!   satisfied by an mmap region or a `Vec<u8>` behind an `Arc`;
//! * [`Stripe::mapped`] checks bounds and alignment before the cast and is
//!   therefore a safe function.
//!
//! Semantic invariants (grades finite, lists sorted, rank table an inverse
//! permutation) are *not* encoded in the byte layout; they are validated by
//! [`SortedList::from_stripes`](crate::SortedList::from_stripes).

#![allow(unsafe_code)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::grade::Entry;

/// Marker for element types whose stripe bytes may be reinterpreted in
/// place as `&[T]`.
///
/// # Safety
///
/// Implementors must guarantee all of:
///
/// * the type has a fixed, compiler-independent layout (`#[repr(C)]` or
///   `#[repr(transparent)]`) pinned by compile-time assertions;
/// * every bit pattern of the type's non-padding bytes is a *valid* value
///   (semantic invariants may still be violated and must be checked
///   separately — e.g. a mapped `Grade` can carry a NaN until
///   [`SortedList::from_stripes`](crate::SortedList::from_stripes)
///   rejects it);
/// * the type has no interior mutability and no drop glue.
pub unsafe trait StripePod: Copy + Send + Sync + 'static {}

// SAFETY: u32 is repr-stable, valid for every bit pattern, Copy, no
// interior mutability.
unsafe impl StripePod for u32 {}

// SAFETY: Entry is #[repr(C)] { ObjectId(u32), Grade(f64) } with layout
// pinned by const assertions in grade.rs; u32 and f64 accept every bit
// pattern (NaN is a representable f64 — Grade's finiteness invariant is
// re-validated by SortedList::from_stripes); padding bytes are never read.
unsafe impl StripePod for Entry {}

/// A stable, shareable byte buffer that mapped stripes borrow from.
///
/// # Safety
///
/// Implementors must guarantee that `bytes()` returns the **same
/// allocation** — identical pointer and length — on every call for the
/// whole lifetime of the value, and that the bytes are never mutated while
/// the value is alive. `Stripe` caches raw pointers derived from `bytes()`
/// next to the owning `Arc`, so a buffer that moves or shrinks would leave
/// them dangling.
pub unsafe trait StripeBytes: Send + Sync + fmt::Debug + 'static {
    /// The backing bytes.
    fn bytes(&self) -> &[u8];
}

// SAFETY: a Vec<u8> reached only through an Arc (hence never `&mut`) keeps
// one stable heap allocation for its whole lifetime.
unsafe impl StripeBytes for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }
}

/// Why a requested byte range cannot back a `Stripe<T>`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StripeLayoutError {
    /// The requested window does not fit inside the buffer.
    OutOfBounds {
        /// First byte of the requested window.
        offset: usize,
        /// Bytes requested (`len * size_of::<T>()`).
        bytes: usize,
        /// Bytes available in the buffer.
        available: usize,
    },
    /// The window's start address is not aligned for `T`.
    Misaligned {
        /// First byte of the requested window.
        offset: usize,
        /// Alignment `T` requires.
        align: usize,
    },
}

impl fmt::Display for StripeLayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StripeLayoutError::OutOfBounds {
                offset,
                bytes,
                available,
            } => write!(
                f,
                "stripe window [{offset}, {offset}+{bytes}) exceeds the {available}-byte buffer"
            ),
            StripeLayoutError::Misaligned { offset, align } => {
                write!(f, "stripe at byte offset {offset} is not {align}-aligned")
            }
        }
    }
}

impl std::error::Error for StripeLayoutError {}

enum Repr<T: StripePod> {
    Owned(Vec<T>),
    Mapped {
        /// Keeps the byte buffer (and thus `ptr`) alive; never read after
        /// construction.
        _keeper: Arc<dyn StripeBytes>,
        ptr: *const T,
        len: usize,
    },
}

/// One dense array of a sorted list, either owned or a window into a
/// shared byte buffer.
///
/// Dereferences to `&[T]`; the hot path never branches on more than the
/// enum discriminant.
pub struct Stripe<T: StripePod> {
    repr: Repr<T>,
}

// SAFETY: the Mapped variant's raw pointer targets the keeper's buffer,
// which is Send + Sync and stable per the StripeBytes contract; T is
// Send + Sync via StripePod. The Owned variant is a plain Vec.
unsafe impl<T: StripePod> Send for Stripe<T> {}
// SAFETY: as above — shared access only ever reads the immutable buffer.
unsafe impl<T: StripePod> Sync for Stripe<T> {}

impl<T: StripePod> Stripe<T> {
    /// Wraps an owned vector (the in-RAM build path).
    #[inline]
    pub fn owned(values: Vec<T>) -> Self {
        Stripe {
            repr: Repr::Owned(values),
        }
    }

    /// Creates a zero-copy stripe over `len` elements of `T` starting at
    /// `byte_offset` inside `keeper`'s buffer.
    ///
    /// Checks bounds and alignment; the returned stripe holds the `Arc` so
    /// the buffer outlives every borrow of the slice.
    pub fn mapped(
        keeper: Arc<dyn StripeBytes>,
        byte_offset: usize,
        len: usize,
    ) -> Result<Self, StripeLayoutError> {
        let bytes = keeper.bytes();
        let size = std::mem::size_of::<T>();
        let window = len
            .checked_mul(size)
            .ok_or(StripeLayoutError::OutOfBounds {
                offset: byte_offset,
                bytes: usize::MAX,
                available: bytes.len(),
            })?;
        let end = byte_offset
            .checked_add(window)
            .ok_or(StripeLayoutError::OutOfBounds {
                offset: byte_offset,
                bytes: window,
                available: bytes.len(),
            })?;
        if end > bytes.len() {
            return Err(StripeLayoutError::OutOfBounds {
                offset: byte_offset,
                bytes: window,
                available: bytes.len(),
            });
        }
        // SAFETY: byte_offset <= bytes.len() was just established.
        let ptr = unsafe { bytes.as_ptr().add(byte_offset) };
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(StripeLayoutError::Misaligned {
                offset: byte_offset,
                align: std::mem::align_of::<T>(),
            });
        }
        Ok(Stripe {
            repr: Repr::Mapped {
                _keeper: keeper,
                ptr: ptr.cast(),
                len,
            },
        })
    }

    /// The backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v.as_slice(),
            // SAFETY: ptr/len were bounds- and alignment-checked against
            // the keeper's buffer at construction; the Arc keeps that
            // buffer alive and stable (StripeBytes contract); every bit
            // pattern is a valid T (StripePod contract).
            Repr::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// Whether this stripe is a window into a shared buffer (true) or an
    /// owned vector (false).
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }
}

impl<T: StripePod> Deref for Stripe<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: StripePod> From<Vec<T>> for Stripe<T> {
    fn from(values: Vec<T>) -> Self {
        Stripe::owned(values)
    }
}

impl<T: StripePod> Clone for Stripe<T> {
    /// Cloning an owned stripe copies the vector (exactly what cloning the
    /// old `Vec`-backed list did); cloning a mapped stripe bumps the `Arc`
    /// — one mapping serves every clone of a store-backed database.
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Owned(v) => Stripe {
                repr: Repr::Owned(v.clone()),
            },
            Repr::Mapped { _keeper, ptr, len } => Stripe {
                repr: Repr::Mapped {
                    _keeper: Arc::clone(_keeper),
                    ptr: *ptr,
                    len: *len,
                },
            },
        }
    }
}

impl<T: StripePod + fmt::Debug> fmt::Debug for Stripe<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let backing = if self.is_mapped() { "mapped" } else { "owned" };
        write!(f, "Stripe<{backing}>{:?}", self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grade::{Entry, Grade};

    #[test]
    fn owned_roundtrip() {
        let s: Stripe<u32> = vec![3, 1, 4].into();
        assert_eq!(&s[..], &[3, 1, 4]);
        assert!(!s.is_mapped());
        let c = s.clone();
        assert_eq!(&c[..], &s[..]);
    }

    #[test]
    fn mapped_reads_entries_in_place() {
        // Serialize two entries exactly the way fagin-store's writer does
        // (id LE, zeroed padding, grade bits LE) and map them back.
        let entries = [Entry::new(7u32, 0.25), Entry::new(2u32, 0.125)];
        let mut bytes = Vec::new();
        for e in &entries {
            bytes.extend_from_slice(&e.object.0.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 4]);
            bytes.extend_from_slice(&e.grade.value().to_bits().to_le_bytes());
        }
        let keeper: Arc<dyn StripeBytes> = Arc::new(bytes);
        let s: Stripe<Entry> = Stripe::mapped(keeper, 0, 2).unwrap();
        assert!(s.is_mapped());
        if cfg!(target_endian = "little") {
            assert_eq!(&s[..], &entries[..]);
            assert_eq!(s[1].grade, Grade::new(0.125));
        }
        let c = s.clone();
        assert_eq!(&c[..], &s[..]);
    }

    #[test]
    fn mapped_rejects_out_of_bounds_and_misalignment() {
        let keeper: Arc<dyn StripeBytes> = Arc::new(vec![0u8; 64]);
        assert!(matches!(
            Stripe::<Entry>::mapped(Arc::clone(&keeper), 0, 5),
            Err(StripeLayoutError::OutOfBounds { .. })
        ));
        assert!(matches!(
            Stripe::<Entry>::mapped(Arc::clone(&keeper), 60, 1),
            Err(StripeLayoutError::OutOfBounds { .. })
        ));
        assert!(matches!(
            Stripe::<u32>::mapped(Arc::clone(&keeper), usize::MAX - 2, 1),
            Err(StripeLayoutError::OutOfBounds { .. })
        ));
        // A Vec<u8> is at least byte-aligned; offset 4 cannot be 8-aligned
        // at the same time as offset 0 or 8 — probe both parities so the
        // test holds regardless of the allocation's address.
        let aligned_ok = Stripe::<Entry>::mapped(Arc::clone(&keeper), 0, 1).is_ok();
        let shifted_ok = Stripe::<Entry>::mapped(Arc::clone(&keeper), 4, 1).is_ok();
        assert!(
            aligned_ok != shifted_ok,
            "exactly one of offsets 0 and 4 can be 8-aligned"
        );
    }

    #[test]
    fn mapped_u32_window() {
        let bytes: Vec<u8> = [1u32, 2, 3, 4]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let keeper: Arc<dyn StripeBytes> = Arc::new(bytes);
        let offset = if (keeper.bytes().as_ptr() as usize).is_multiple_of(4) {
            4
        } else {
            // Fall back to whatever offset aligns; Vec allocations are in
            // practice word-aligned, so this branch is unreachable, but
            // the test must not depend on allocator behavior.
            return;
        };
        let s: Stripe<u32> = Stripe::mapped(keeper, offset, 2).unwrap();
        if cfg!(target_endian = "little") {
            assert_eq!(&s[..], &[2, 3]);
        }
    }
}
