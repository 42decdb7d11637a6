//! Block-grid partitioning and the dynamic-peeling split.
//!
//! A fast algorithm with base case `⟨M, K, N⟩` views its `P × Q` and
//! `Q × R` operands as `M × K` and `K × N` grids of equally-sized blocks.
//! When the dimensions do not divide evenly, the paper handles the
//! remainder with **dynamic peeling** (§3.5): at each recursive level the
//! divisible leading part recurses and thin boundary strips are fixed up
//! with classical multiplications.

use crate::scalar::Scalar;
use crate::view::{MatMut, MatRef};

/// Uniform grid description of a matrix: `br × bc` blocks, each
/// `rs × cs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Blocks per column of the grid (row direction count).
    pub br: usize,
    /// Blocks per row of the grid (column direction count).
    pub bc: usize,
    /// Rows per block.
    pub rs: usize,
    /// Columns per block.
    pub cs: usize,
}

impl Grid {
    /// Grid for splitting a `rows × cols` matrix into `br × bc` equal
    /// blocks.
    ///
    /// # Panics
    /// Panics when the dimensions are not divisible.
    pub fn new(rows: usize, cols: usize, br: usize, bc: usize) -> Self {
        assert!(rows.is_multiple_of(br), "rows {rows} not divisible by {br}");
        assert!(cols.is_multiple_of(bc), "cols {cols} not divisible by {bc}");
        Grid {
            br,
            bc,
            rs: rows / br,
            cs: cols / bc,
        }
    }

    /// Immutable view of block `(i, j)`.
    #[inline]
    pub fn block<'a, T: Scalar>(&self, m: &MatRef<'a, T>, i: usize, j: usize) -> MatRef<'a, T> {
        debug_assert!(i < self.br && j < self.bc);
        m.block(i * self.rs, j * self.cs, self.rs, self.cs)
    }

    /// All `br·bc` blocks in row-major order.
    pub fn blocks<'a, T: Scalar>(&self, m: &MatRef<'a, T>) -> Vec<MatRef<'a, T>> {
        let mut v = Vec::with_capacity(self.br * self.bc);
        for i in 0..self.br {
            for j in 0..self.bc {
                v.push(self.block(m, i, j));
            }
        }
        v
    }

    /// Partition a mutable view into all blocks in row-major order.
    pub fn blocks_mut<'a, T: Scalar>(&self, m: MatMut<'a, T>) -> Vec<MatMut<'a, T>> {
        let rcuts: Vec<usize> = (1..self.br).map(|i| i * self.rs).collect();
        let ccuts: Vec<usize> = (1..self.bc).map(|j| j * self.cs).collect();
        m.split_grid(&rcuts, &ccuts)
    }
}

/// The dynamic-peeling decomposition of a `P × Q × R` multiplication for
/// base case `⟨m, k, n⟩`: the *core* dimensions are the largest multiples
/// of the base dims, and the remainder strips are handled classically.
///
/// Writing `A = [A11 A12; A21 A22]`, `B = [B11 B12; B21 B22]` with `A11:
/// p1×q1`, `B11: q1×r1`, the recursive call computes `A11·B11` and the
/// fix-up multiplications are
///
/// ```text
/// C11 += A12·B21          C12  = A11·B12 + A12·B22
/// C21  = A21·B11 + A22·B21   C22 = A21·B12 + A22·B22
/// ```
///
/// all of which have at least one thin dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeelSplit {
    /// Core rows of A / C (`P − P mod m`).
    pub p1: usize,
    /// Core inner dimension (`Q − Q mod k`).
    pub q1: usize,
    /// Core columns of B / C (`R − R mod n`).
    pub r1: usize,
    /// Remainder rows (`P mod m`).
    pub dp: usize,
    /// Remainder inner (`Q mod k`).
    pub dq: usize,
    /// Remainder cols (`R mod n`).
    pub dr: usize,
}

impl PeelSplit {
    /// Compute the peel split of `P × Q × R` for base `⟨m, k, n⟩`.
    pub fn new(p: usize, q: usize, r: usize, m: usize, k: usize, n: usize) -> Self {
        assert!(m > 0 && k > 0 && n > 0, "base dims must be positive");
        PeelSplit {
            p1: p - p % m,
            q1: q - q % k,
            r1: r - r % n,
            dp: p % m,
            dq: q % k,
            dr: r % n,
        }
    }

    /// True when no peeling is necessary at this level.
    pub fn is_exact(&self) -> bool {
        self.dp == 0 && self.dq == 0 && self.dr == 0
    }

    /// True when the core problem is empty (dimensions smaller than the
    /// base case), in which case the whole product must be done
    /// classically.
    pub fn core_is_empty(&self) -> bool {
        self.p1 == 0 || self.q1 == 0 || self.r1 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn grid_blocks_tile_matrix() {
        let m = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64);
        let g = Grid::new(6, 4, 3, 2);
        assert_eq!(g.rs, 2);
        assert_eq!(g.cs, 2);
        let v = m.as_ref();
        let b = g.block(&v, 2, 1);
        assert_eq!(b.get(0, 0), m[(4, 2)]);
        assert_eq!(g.blocks(&v).len(), 6);
    }

    #[test]
    fn grid_blocks_mut_disjoint() {
        let mut m = Matrix::zeros(4, 6);
        let g = Grid::new(4, 6, 2, 3);
        let blocks = g.blocks_mut(m.as_mut());
        assert_eq!(blocks.len(), 6);
        for (i, mut b) in blocks.into_iter().enumerate() {
            b.fill((i + 1) as f64);
        }
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 2.0);
        assert_eq!(m[(0, 4)], 3.0);
        assert_eq!(m[(3, 1)], 4.0);
        assert_eq!(m[(3, 3)], 5.0);
        assert_eq!(m[(3, 5)], 6.0);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn grid_requires_divisibility() {
        let _ = Grid::new(5, 4, 2, 2);
    }

    #[test]
    fn peel_split_exact_case() {
        let s = PeelSplit::new(8, 8, 8, 2, 2, 2);
        assert!(s.is_exact());
        assert_eq!(s.p1, 8);
    }

    #[test]
    fn peel_split_remainders() {
        let s = PeelSplit::new(9, 10, 11, 2, 3, 4);
        assert_eq!((s.p1, s.q1, s.r1), (8, 9, 8));
        assert_eq!((s.dp, s.dq, s.dr), (1, 1, 3));
        assert!(!s.is_exact());
        assert!(!s.core_is_empty());
    }

    #[test]
    fn peel_split_core_empty_for_tiny_problems() {
        let s = PeelSplit::new(1, 5, 5, 2, 2, 2);
        assert!(s.core_is_empty());
    }
}
