// Package a exercises the hotalloc analyzer: allocations inside
// //embrace:hotpath functions are findings, cold functions and justified
// exceptions are not.
package a

// frame is reusable scratch with the blessed growth idiom.
type frame struct {
	idx  []int64
	vals []float32
}

// grow reslices and self-appends — the steady-state zero-alloc pattern.
//
//embrace:hotpath
func (f *frame) grow(ids []int64, vals []float32) {
	f.idx = f.idx[:0]
	f.idx = append(f.idx, ids...)
	f.vals = append(f.vals[:0], vals...)
}

// cold is unannotated: it may allocate freely.
func cold(n int) []int64 {
	out := make([]int64, n)
	out = append(out[:1], 2)
	go func() {}()
	return out
}

//embrace:hotpath
func hot(n int) {
	buf := make([]float32, n) // want `allocates with make`
	_ = buf
	p := new(frame) // want `allocates with new`
	_ = p
	m := map[int64]int{} // want `map literal`
	_ = m
	s := []int{1, 2} // want `slice literal`
	_ = s
	fn := func() {} // want `builds a closure`
	fn()
	go fn() // want `spawns a goroutine`
}

//embrace:hotpath
func divert(dst, src []int64) []int64 {
	dst = append(src, 1)  // want `grows fresh storage with append`
	return append(dst, 2) // want `grows fresh storage with append`
}

//embrace:hotpath
func justified(f *frame, n int) {
	done := make(chan struct{}, 1) //embrace:allow hotalloc the per-step join channel is part of the step protocol
	_ = done
	if cap(f.idx) < n {
		f.idx = make([]int64, 0, n) //embrace:allow hotalloc amortized high-water growth
	}
}
