package tensor

import "fmt"

// In-place, buffer-reusing variants of Coalesce/Partition/Concat/ColumnSlice.
// Each writes into a destination Sparse whose Indices/Vals backing arrays are
// kept across calls and grown only to their high-water mark, turning the
// allocating originals into cold-path fallbacks. All variants are
// bit-identical to their originals: they perform the same per-element float
// operations in the same order, which the equivalence tests assert.

// SortScratch holds the reusable order buffers of CoalesceInto's stable sort.
// The zero value is ready to use. Not safe for concurrent use.
type SortScratch struct {
	order []int32
	tmp   []int32
}

// stableOrder fills sc.order with the stable ascending-by-idx permutation of
// [0, len(idx)) using an allocation-free bottom-up merge sort. A stable
// sort's output permutation is unique, so this matches sort.SliceStable
// exactly — the property Coalesce's summation-order contract rests on.
//
//embrace:hotpath
func stableOrder(idx []int64, sc *SortScratch) []int32 {
	n := len(idx)
	sc.ensure(n)
	src, dst := sc.order, sc.tmp
	for i := range src[:n] {
		src[i] = int32(i)
	}
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				// <= keeps the left run first on ties: stability.
				if idx[src[i]] <= idx[src[j]] {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
				k++
			}
			for i < mid {
				dst[k] = src[i]
				i++
				k++
			}
			for j < hi {
				dst[k] = src[j]
				j++
				k++
			}
		}
		src, dst = dst, src
	}
	sc.order, sc.tmp = src, dst
	return src[:n]
}

// ensure grows the scratch to n entries — the cold growth path.
func (sc *SortScratch) ensure(n int) {
	if cap(sc.order) < n {
		sc.order = make([]int32, n)
		sc.tmp = make([]int32, n)
	}
	sc.order = sc.order[:cap(sc.order)]
	sc.tmp = sc.tmp[:cap(sc.tmp)]
}

// CoalesceInto writes the coalesced form of s into dst, reusing dst's
// backing arrays, and returns dst. It sums duplicate rows in their original
// order exactly as Coalesce does, so the result is bit-identical. dst must
// not be s. If s is already coalesced its rows are copied through unchanged.
//
//embrace:hotpath
func (s *Sparse) CoalesceInto(dst *Sparse, sc *SortScratch) *Sparse {
	if dst == s {
		panic("tensor: CoalesceInto aliases its receiver")
	}
	dst.NumRows, dst.Dim = s.NumRows, s.Dim
	dst.Indices = dst.Indices[:0]
	dst.Vals = dst.Vals[:0]
	dst.coalesced = true
	if len(s.Indices) == 0 {
		return dst
	}
	if s.coalesced {
		dst.Indices = append(dst.Indices, s.Indices...)
		dst.Vals = append(dst.Vals, s.Vals...)
		return dst
	}
	order := stableOrder(s.Indices, sc)
	dim := s.Dim
	for _, src := range order {
		ix := s.Indices[src]
		row := s.Vals[int(src)*dim : int(src+1)*dim]
		if n := len(dst.Indices); n > 0 && dst.Indices[n-1] == ix {
			acc := dst.Vals[(n-1)*dim : n*dim]
			for j, v := range row {
				acc[j] += v
			}
			continue
		}
		dst.Indices = append(dst.Indices, ix)
		dst.Vals = append(dst.Vals, row...)
	}
	return dst
}

// AppendTo appends s's stored rows to dst, the in-place form of Concat:
// appending every shard in sender order into one reused destination yields
// exactly Concat's result without the per-step allocation. dst becomes
// uncoalesced. Shapes must match unless dst is empty of rows and unshaped.
//
//embrace:hotpath
func (s *Sparse) AppendTo(dst *Sparse) error {
	if dst.NumRows == 0 && dst.Dim == 0 {
		dst.NumRows, dst.Dim = s.NumRows, s.Dim
	}
	if dst.NumRows != s.NumRows || dst.Dim != s.Dim {
		return fmt.Errorf("tensor: AppendTo shape mismatch [%d x %d] vs [%d x %d]",
			s.NumRows, s.Dim, dst.NumRows, dst.Dim)
	}
	dst.Indices = append(dst.Indices, s.Indices...)
	dst.Vals = append(dst.Vals, s.Vals...)
	dst.coalesced = false
	return nil
}

// Reset empties the receiver's stored rows while keeping its backing arrays,
// so a reused accumulation target starts each step from the same
// high-water-mark capacity. The logical shape is cleared too; the first
// AppendTo restores it.
//
//embrace:hotpath
func (s *Sparse) Reset() {
	s.NumRows, s.Dim = 0, 0
	s.Indices = s.Indices[:0]
	s.Vals = s.Vals[:0]
	s.coalesced = false
}

// PartitionSortedInto splits s by sorted-slice membership into two reused
// destinations: rows whose index occurs in prior go to in, the rest to out.
// It is the buffer-reusing form of Partition and bit-identical to it (both
// preserve the receiver's row order and copy values untouched).
//
//embrace:hotpath
func (s *Sparse) PartitionSortedInto(prior []int64, in, out *Sparse) {
	in.NumRows, in.Dim, in.coalesced = s.NumRows, s.Dim, s.coalesced
	out.NumRows, out.Dim, out.coalesced = s.NumRows, s.Dim, s.coalesced
	in.Indices = in.Indices[:0]
	in.Vals = in.Vals[:0]
	out.Indices = out.Indices[:0]
	out.Vals = out.Vals[:0]
	dim := s.Dim
	for i, ix := range s.Indices {
		row := s.Vals[i*dim : (i+1)*dim]
		if ContainsSorted(prior, ix) {
			in.Indices = append(in.Indices, ix)
			in.Vals = append(in.Vals, row...)
		} else {
			out.Indices = append(out.Indices, ix)
			out.Vals = append(out.Vals, row...)
		}
	}
}

// ColumnSliceInto writes columns [lo, hi) of every stored row into dst,
// reusing dst's backing arrays — the in-place form of ColumnSlice used to
// pack per-shard column streams without per-step allocation.
//
//embrace:hotpath
func (s *Sparse) ColumnSliceInto(lo, hi int, dst *Sparse) {
	if lo < 0 || hi > s.Dim || lo > hi {
		panic(fmt.Sprintf("tensor: column slice [%d,%d) out of range for dim %d", lo, hi, s.Dim))
	}
	w := hi - lo
	dst.NumRows, dst.Dim, dst.coalesced = s.NumRows, w, s.coalesced
	dst.Indices = append(dst.Indices[:0], s.Indices...)
	dst.Vals = dst.Vals[:0]
	srcDim := s.Dim
	for i := range s.Indices {
		dst.Vals = append(dst.Vals, s.Vals[i*srcDim+lo:i*srcDim+hi]...)
	}
}

// Reuse reshapes t in place to shape, keeping its backing array when it is
// large enough and growing it to the high-water mark otherwise. The element
// values are unspecified afterwards: callers overwrite or Zero them. It is
// the dense counterpart of the Sparse Into-variants' destination reuse.
func (t *Dense) Reuse(shape ...int) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// The shape itself stays out of the message: formatting it
			// would make every caller's variadic slice escape.
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	t.shape = append(t.shape[:0], shape...)
	if cap(t.data) < n {
		t.data = make([]float32, n)
	}
	t.data = t.data[:n]
}
