package metrics

import "testing"

// MaskedBytes clamps at zero: a codec that inflates a payload (per-shard
// header overhead on a 1-row shard) kept nothing off the wire, and a
// negative "savings" summed into an aggregate would silently shrink the
// totals of the ops that genuinely compressed.
func TestMaskedBytesClampsInflation(t *testing.T) {
	cases := []struct {
		name      string
		raw, wire int64
		want      int64
	}{
		{"deflating codec", 1000, 250, 750},
		{"identity codec", 500, 500, 0},
		{"inflating codec", 40, 64, 0}, // header > payload: clamp, not -24
		{"no codec installed", 0, 0, 0},
		{"empty exchange", 0, 12, 0}, // header-only frames on empty shards
	}
	for _, tc := range cases {
		s := OpStats{RawBytes: tc.raw, WireBytes: tc.wire}
		if got := s.MaskedBytes(); got != tc.want {
			t.Errorf("%s: MaskedBytes() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// The clamp must not hide the inflation: the ratio still reports it as < 1.
func TestCompressionRatio(t *testing.T) {
	cases := []struct {
		name      string
		raw, wire int64
		want      float64
	}{
		{"deflating codec", 1000, 250, 4},
		{"inflating codec", 40, 64, 0.625},
		{"no codec installed", 0, 0, 1},   // zero-wire guard: neutral, not NaN
		{"all-empty exchange", 100, 0, 1}, // nothing hit the wire: neutral, not +Inf
		{"identity codec", 500, 500, 1},
	}
	for _, tc := range cases {
		s := OpStats{RawBytes: tc.raw, WireBytes: tc.wire}
		if got := s.CompressionRatio(); got != tc.want {
			t.Errorf("%s: CompressionRatio() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Aggregation order must not matter: summing clamped per-rank MaskedBytes
// is what reports do, and the per-op Add that feeds them keeps raw/wire
// intact so the aggregate clamp is applied to true totals.
func TestMaskedBytesSurvivesAdd(t *testing.T) {
	a := OpStats{RawBytes: 100, WireBytes: 160} // inflated on this rank
	b := OpStats{RawBytes: 1000, WireBytes: 200}
	sum := a.Add(b)
	if got := sum.MaskedBytes(); got != 740 {
		t.Fatalf("aggregate MaskedBytes() = %d, want 740 (1100 raw - 360 wire)", got)
	}
	if got := a.MaskedBytes() + b.MaskedBytes(); got != 800 {
		t.Fatalf("per-rank clamped sum = %d, want 800", got)
	}
}
