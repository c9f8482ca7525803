//! Array-to-address mapping.
//!
//! Assigns each array a disjoint base address and linearizes subscripts in
//! row-major (C) or column-major (Fortran) order. Fed with
//! [`irlt_interp::AccessEvent`]s, it turns a logical trace into a byte
//! trace for the cache model.

use irlt_interp::AccessEvent;
use irlt_ir::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// Subscript linearization order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Order {
    /// Last subscript varies fastest (C).
    #[default]
    RowMajor,
    /// First subscript varies fastest (Fortran — the paper's language).
    ColMajor,
}

/// Declared geometry of one array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ArrayDecl {
    base: u64,
    /// Extent per dimension (subscripts are 0-based offsets from `origin`).
    dims: Vec<u64>,
    origin: Vec<i64>,
    /// Bytes between consecutive subscripts of each dimension: the one
    /// place the map's [`Order`] decides the layout.
    strides: Vec<u64>,
}

impl ArrayDecl {
    /// Byte address of the element at `indices`, or `None` when the rank
    /// differs or a subscript falls outside its extent.
    pub(crate) fn locate(&self, indices: &[i64]) -> Option<u64> {
        if indices.len() != self.dims.len() {
            return None;
        }
        let mut addr = self.base;
        for (k, &ix) in indices.iter().enumerate() {
            // An offset that overflows is out of bounds.
            let off = ix.checked_sub(self.origin[k])?;
            if off < 0 || off as u64 >= self.dims[k] {
                return None;
            }
            addr += off as u64 * self.strides[k];
        }
        Some(addr)
    }

    /// Bytes between consecutive subscripts of each dimension; its length
    /// is the rank.
    pub(crate) fn strides(&self) -> &[u64] {
        &self.strides
    }
}

/// The address map: declare arrays, then translate accesses.
///
/// # Examples
///
/// ```
/// use irlt_cachesim::{AddressMap, Order};
///
/// let mut map = AddressMap::new(Order::ColMajor, 8);
/// map.declare("A", &[10, 10]);
/// // Column-major: A(2,1) and A(3,1) are adjacent.
/// let a = map.address(&"A".into(), &[2, 1]).unwrap();
/// let b = map.address(&"A".into(), &[3, 1]).unwrap();
/// assert_eq!(b - a, 8);
/// ```
#[derive(Clone, Debug)]
pub struct AddressMap {
    arrays: BTreeMap<Symbol, ArrayDecl>,
    order: Order,
    elem_bytes: u64,
    next_base: u64,
}

/// An access fell outside a declared array (or hit an undeclared one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddressError {
    /// The array.
    pub array: Symbol,
    /// The subscripts.
    pub indices: Vec<i64>,
}

impl fmt::Display for AddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access {}{:?} outside declared bounds",
            self.array, self.indices
        )
    }
}

impl std::error::Error for AddressError {}

impl AddressMap {
    /// Creates a map with the given linearization order and element size.
    pub fn new(order: Order, elem_bytes: u64) -> AddressMap {
        AddressMap {
            arrays: BTreeMap::new(),
            order,
            elem_bytes,
            next_base: 0,
        }
    }

    /// Declares an array with 1-based subscripts `1..=dims[k]` (the
    /// Fortran convention used throughout the paper's examples).
    pub fn declare(&mut self, name: impl Into<Symbol>, dims: &[u64]) -> &mut AddressMap {
        self.declare_with_origin(name, dims, &vec![1; dims.len()])
    }

    /// Declares an array whose subscripts start at `origin[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `dims` and `origin` lengths differ or a dimension is zero.
    pub fn declare_with_origin(
        &mut self,
        name: impl Into<Symbol>,
        dims: &[u64],
        origin: &[i64],
    ) -> &mut AddressMap {
        assert_eq!(dims.len(), origin.len(), "dims/origin mismatch");
        assert!(dims.iter().all(|&d| d > 0), "zero-extent dimension");
        let len: u64 = dims.iter().product::<u64>() * self.elem_bytes;
        // Row-major: the last subscript is unit-stride; column-major: the
        // first.
        let mut strides = vec![0; dims.len()];
        let mut stride = self.elem_bytes;
        let mut fix = |k: usize| {
            strides[k] = stride;
            stride *= dims[k];
        };
        match self.order {
            Order::RowMajor => (0..dims.len()).rev().for_each(&mut fix),
            Order::ColMajor => (0..dims.len()).for_each(&mut fix),
        }
        let decl = ArrayDecl {
            base: self.next_base,
            dims: dims.to_vec(),
            origin: origin.to_vec(),
            strides,
        };
        // Pad bases to 4096 to keep arrays page-disjoint (prevents false
        // line sharing between arrays from muddying locality studies).
        self.next_base += len.div_ceil(4096) * 4096 + 4096;
        self.arrays.insert(name.into(), decl);
        self
    }

    /// Translates one access to a byte address.
    ///
    /// # Errors
    ///
    /// Returns [`AddressError`] for undeclared arrays or out-of-bounds
    /// subscripts.
    pub fn address(&self, array: &Symbol, indices: &[i64]) -> Result<u64, AddressError> {
        self.decl(array)
            .and_then(|decl| decl.locate(indices))
            .ok_or_else(|| AddressError {
                array: array.clone(),
                indices: indices.to_vec(),
            })
    }

    /// One past the highest byte address any declared array occupies:
    /// every address the map translates lies below it.
    pub(crate) fn extent(&self) -> u64 {
        self.next_base
    }

    /// The declaration of `array`, if any.
    pub(crate) fn decl(&self, array: &Symbol) -> Option<&ArrayDecl> {
        self.arrays.get(array)
    }

    /// Translates a whole trace, feeding each address into `sink`.
    ///
    /// # Errors
    ///
    /// Returns the first [`AddressError`].
    pub fn drive(
        &self,
        trace: &[AccessEvent],
        mut sink: impl FnMut(u64),
    ) -> Result<(), AddressError> {
        for e in trace {
            sink(self.address(&e.array, &e.indices)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    #[test]
    fn row_major_linearization() {
        let mut m = AddressMap::new(Order::RowMajor, 8);
        m.declare("A", &[4, 5]);
        let a11 = m.address(&sym("A"), &[1, 1]).unwrap();
        let a12 = m.address(&sym("A"), &[1, 2]).unwrap();
        let a21 = m.address(&sym("A"), &[2, 1]).unwrap();
        assert_eq!(a12 - a11, 8);
        assert_eq!(a21 - a11, 5 * 8);
    }

    #[test]
    fn col_major_linearization() {
        let mut m = AddressMap::new(Order::ColMajor, 8);
        m.declare("A", &[4, 5]);
        let a11 = m.address(&sym("A"), &[1, 1]).unwrap();
        let a12 = m.address(&sym("A"), &[1, 2]).unwrap();
        let a21 = m.address(&sym("A"), &[2, 1]).unwrap();
        assert_eq!(a21 - a11, 8);
        assert_eq!(a12 - a11, 4 * 8);
    }

    #[test]
    fn arrays_are_disjoint_and_page_separated() {
        let mut m = AddressMap::new(Order::RowMajor, 8);
        m.declare("A", &[100]).declare("B", &[100]);
        let a_end = m.address(&sym("A"), &[100]).unwrap();
        let b_start = m.address(&sym("B"), &[1]).unwrap();
        assert!(b_start > a_end);
        assert_eq!(b_start % 4096, 0);
    }

    #[test]
    fn bounds_checked() {
        let mut m = AddressMap::new(Order::RowMajor, 8);
        m.declare("A", &[4]);
        assert!(m.address(&sym("A"), &[0]).is_err()); // 1-based
        assert!(m.address(&sym("A"), &[5]).is_err());
        assert!(m.address(&sym("A"), &[1, 1]).is_err()); // rank mismatch
        assert!(m.address(&sym("B"), &[1]).is_err()); // undeclared
        let e = m.address(&sym("B"), &[1]).unwrap_err();
        assert!(e.to_string().contains('B'));
    }

    #[test]
    fn custom_origin() {
        let mut m = AddressMap::new(Order::RowMajor, 8);
        m.declare_with_origin("Z", &[10], &[0]);
        assert!(m.address(&sym("Z"), &[0]).is_ok());
        assert!(m.address(&sym("Z"), &[9]).is_ok());
        assert!(m.address(&sym("Z"), &[10]).is_err());
    }
}
