//! The processor prototype of Figure 2-2.
//!
//! Every cell in an orthogonally (or linearly) connected systolic array has
//! three input lines and three output lines. Per the paper's conventions
//! (§2.1), relation `A` moves top-to-bottom, relation `B` moves bottom-to-top
//! and intermediate results move left-to-right:
//!
//! ```text
//!            a_in   b_out
//!              |      ^
//!              v      |
//!          +--------------+
//!  t_in -->|     cell     |--> t_out
//!          +--------------+
//!              |      ^
//!              v      |
//!           a_out   b_in
//! ```
//!
//! On each pulse a cell latches its three inputs, performs a short
//! computation, and presents its three outputs, which its neighbours latch at
//! the next pulse. The fabric keeps each wire plane in its stream's own
//! frame: a cell writes its outputs into the slots it read, which its
//! neighbours own on the next pulse, and each slot belongs to one cell per
//! pulse, so the order in which cells are evaluated within a pulse cannot
//! matter.

use crate::word::Word;

/// The input/output latch set of one cell for one pulse.
///
/// Inputs are filled in by the grid before [`Cell::pulse`] runs; outputs are
/// `Word::Null` unless the cell writes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellIo {
    /// Southbound input arriving from the north neighbour (relation `A`).
    pub a_in: Word,
    /// Northbound input arriving from the south neighbour (relation `B`).
    pub b_in: Word,
    /// Eastbound input arriving from the west neighbour (`t` values).
    pub t_in: Word,
    /// Southbound output, latched by the south neighbour next pulse.
    pub a_out: Word,
    /// Northbound output, latched by the north neighbour next pulse.
    pub b_out: Word,
    /// Eastbound output, latched by the east neighbour next pulse.
    pub t_out: Word,
}

impl CellIo {
    /// A latch set with the given inputs and all outputs null.
    pub fn with_inputs(a_in: Word, b_in: Word, t_in: Word) -> Self {
        CellIo {
            a_in,
            b_in,
            t_in,
            ..CellIo::default()
        }
    }

    /// `true` if any input wire carries data this pulse; the utilisation
    /// statistics (§8 discusses array utilisation) count a cell as busy
    /// exactly when this holds.
    pub fn any_input(&self) -> bool {
        self.a_in.is_present() || self.b_in.is_present() || self.t_in.is_present()
    }

    /// Pass `a` south and `b` north unchanged — the default behaviour of
    /// every cell in the paper (data streams march through the array;
    /// computation happens on the `t` plane).
    pub fn pass_through(&mut self) {
        self.a_out = self.a_in;
        self.b_out = self.b_in;
    }
}

/// A systolic processor: a synchronous transfer function from the three input
/// latches to the three output latches, possibly with a small amount of
/// internal state (e.g. the pre-loaded elements of the division array, §7).
pub trait Cell {
    /// Perform one pulse: read `io.{a,b,t}_in`, write `io.{a,b,t}_out`.
    fn pulse(&mut self, io: &mut CellIo);

    /// Reset any internal state so the array can process another problem
    /// instance. Stateless cells need not override this.
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Cell for Echo {
        fn pulse(&mut self, io: &mut CellIo) {
            io.pass_through();
            io.t_out = io.t_in;
        }
    }

    #[test]
    fn pass_through_copies_vertical_streams() {
        let mut io = CellIo::with_inputs(Word::Elem(1), Word::Elem(2), Word::Bool(true));
        Echo.pulse(&mut io);
        assert_eq!(io.a_out, Word::Elem(1));
        assert_eq!(io.b_out, Word::Elem(2));
        assert_eq!(io.t_out, Word::Bool(true));
    }

    #[test]
    fn any_input_detects_each_wire_independently() {
        assert!(!CellIo::default().any_input());
        assert!(CellIo::with_inputs(Word::Elem(0), Word::Null, Word::Null).any_input());
        assert!(CellIo::with_inputs(Word::Null, Word::Elem(0), Word::Null).any_input());
        assert!(CellIo::with_inputs(Word::Null, Word::Null, Word::Bool(false)).any_input());
    }

    #[test]
    fn outputs_default_to_null() {
        let io = CellIo::with_inputs(Word::Elem(9), Word::Elem(9), Word::Bool(true));
        assert_eq!(io.a_out, Word::Null);
        assert_eq!(io.b_out, Word::Null);
        assert_eq!(io.t_out, Word::Null);
    }
}
