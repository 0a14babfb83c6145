//! Byte- and cacheline-granular address newtypes.

use std::fmt;

/// Size of a cacheline in bytes (matches the Icelake-like configuration of
/// Table 2 in the paper).
pub const LINE_BYTES: u64 = 64;

/// Size of a machine word in bytes. The mini-ISA is a 64-bit machine.
pub const WORD_BYTES: u64 = 8;

/// A byte address in the simulated physical address space.
///
/// The simulated address space starts at a non-zero base so that address `0`
/// can be used by workloads as a null pointer.
///
/// # Examples
///
/// ```
/// use clear_mem::{Addr, LINE_BYTES};
///
/// let a = Addr(0x1000);
/// assert_eq!(a.line().base().0, 0x1000);
/// assert_eq!(a.offset_in_line(), 0);
/// assert_eq!(Addr(0x1008).line(), a.line());
/// assert_eq!(Addr(0x1000 + LINE_BYTES).line(), a.line().next());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The null address. Loads/stores to it are a simulated fault.
    pub const NULL: Addr = Addr(0);

    /// Returns the cacheline this byte address falls into.
    #[inline]
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// Returns the byte offset of this address within its cacheline.
    #[inline]
    pub fn offset_in_line(self) -> u64 {
        self.0 % LINE_BYTES
    }

    /// Returns the word index of this address in the flat word-addressed
    /// memory array.
    #[inline]
    pub fn word_index(self) -> usize {
        (self.0 / WORD_BYTES) as usize
    }

    /// Returns `true` if the address is word-aligned.
    #[inline]
    pub fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES)
    }

    /// Returns the address advanced by `words` 64-bit words.
    #[inline]
    pub fn add_words(self, words: u64) -> Addr {
        Addr(self.0 + words * WORD_BYTES)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A cacheline address: the byte address divided by [`LINE_BYTES`].
///
/// All conflict detection, locking and coherence operate at this granularity,
/// as in the paper.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// One past the last line of the simulated address space (byte
    /// addresses just under 256 GiB). A set-associative tag store keeps a
    /// `u32` tag per way, and a one-set store has no tag for this line or
    /// any above it, so an access there is a simulated fault, like one at
    /// [`Addr::NULL`].
    pub const END: LineAddr = LineAddr(u32::MAX as u64);

    /// Returns the first byte address of the line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// Returns the next sequential line address.
    #[inline]
    pub fn next(self) -> LineAddr {
        LineAddr(self.0 + 1)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Line({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        LineAddr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_addr_groups_64_bytes() {
        assert_eq!(Addr(0).line(), LineAddr(0));
        assert_eq!(Addr(63).line(), LineAddr(0));
        assert_eq!(Addr(64).line(), LineAddr(1));
        assert_eq!(Addr(127).line(), LineAddr(1));
    }

    #[test]
    fn offset_in_line_wraps() {
        assert_eq!(Addr(0).offset_in_line(), 0);
        assert_eq!(Addr(65).offset_in_line(), 1);
        assert_eq!(Addr(130).offset_in_line(), 2);
    }

    #[test]
    fn word_index_divides_by_word_size() {
        assert_eq!(Addr(0).word_index(), 0);
        assert_eq!(Addr(8).word_index(), 1);
        assert_eq!(Addr(80).word_index(), 10);
    }

    #[test]
    fn add_words_advances_by_eight_bytes() {
        assert_eq!(Addr(0x100).add_words(3), Addr(0x118));
    }

    #[test]
    fn line_base_roundtrip() {
        let l = LineAddr(7);
        assert_eq!(l.base().line(), l);
        assert_eq!(l.base().0, 7 * LINE_BYTES);
    }

    #[test]
    fn alignment_check() {
        assert!(Addr(16).is_word_aligned());
        assert!(!Addr(17).is_word_aligned());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", Addr(255)), "0xff");
        assert_eq!(format!("{}", LineAddr(16)), "L0x10");
    }

    #[test]
    fn next_line_is_sequential() {
        assert_eq!(LineAddr(1).next(), LineAddr(2));
    }
}
