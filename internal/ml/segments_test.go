package ml

import (
	"slices"
	"testing"

	"repro/internal/randx"
)

// TestSegmentsMatchFilteredColumns grows random trees over tie-heavy
// columns and checks, at every node, that each loaded column's range is
// exactly the presorted column with every row outside the node skipped:
// the sequence the split scans must see for the fitted bits to hold.
// Row lists repeat rows, as bootstrap samples do, and must keep their
// own order within each child.
func TestSegmentsMatchFilteredColumns(t *testing.T) {
	rng := randx.New(21)
	const n, p = 40, 6
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, p)
		for f := range X[i] {
			X[i][f] = float64(rng.IntN(2 + f)) // few levels: many ties
		}
	}
	order := SortColumns(X)
	seg := NewSegments(order, p)
	for trial := 0; trial < 30; trial++ {
		rows := make([]int, n)
		for k := range rows {
			rows[k] = rng.IntN(n)
		}
		cols := []int{4, 0, 5}
		if trial%2 == 1 {
			cols = []int{0, 1, 2, 3, 4, 5}
		}
		m := seg.Load(cols, rows)
		distinct := map[int]bool{}
		for _, i := range rows {
			distinct[i] = true
		}
		if m != len(distinct) {
			t.Fatalf("Load kept %d rows, want %d distinct", m, len(distinct))
		}
		var check func(list []int, lo, hi, depth int)
		check = func(list []int, lo, hi, depth int) {
			in := map[int32]bool{}
			for _, i := range list {
				in[int32(i)] = true
			}
			for c, f := range cols {
				var want []int32
				var wantVals []float64
				for k, i := range order.Rows[f] {
					if in[i] {
						want = append(want, i)
						wantVals = append(wantVals, order.Vals[f][k])
					}
				}
				if !slices.Equal(seg.Rows[c][lo:hi], want) || !slices.Equal(seg.Vals[c][lo:hi], wantVals) {
					t.Fatalf("trial %d depth %d column %d: segment %v, want %v", trial, depth, f, seg.Rows[c][lo:hi], want)
				}
			}
			if hi-lo < 2 || depth == 4 {
				return
			}
			c := rng.IntN(len(cols))
			thr := seg.Vals[c][lo+rng.IntN(hi-lo)]
			mid := seg.MarkLeft(c, lo, hi, thr)
			var wantLeft, wantRight []int
			for _, i := range list {
				if X[i][cols[c]] <= thr {
					wantLeft = append(wantLeft, i)
				} else {
					wantRight = append(wantRight, i)
				}
			}
			nl := len(wantLeft)
			seg.PartitionRows(list)
			if !slices.Equal(list, append(wantLeft, wantRight...)) {
				t.Fatalf("trial %d depth %d: row list %v, want %v then %v", trial, depth, list, wantLeft, wantRight)
			}
			seg.Partition(lo, hi)
			check(list[:nl], lo, mid, depth+1)
			check(list[nl:], mid, hi, depth+1)
		}
		check(rows, 0, m, 0)
	}
}
