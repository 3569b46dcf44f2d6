package ml

// Segments lays out the rows of one tree being grown so that every
// node's rows are one contiguous range [lo, hi) of every loaded column,
// kept in the column's presorted (value, row index) order: the
// attribute lists of SPRINT (Shafer, Agrawal & Mehta 1996) over a
// ColumnOrder. Split search walks only a node's own range. A split
// stably partitions the range into the left child's rows followed by
// the right child's, so each child's range is again in (value, row
// index) order: the sequence a walk of the whole presorted column that
// skips every row outside the child would give.
//
// A Segments is one worker's scratch. It is sized once, loaded once
// per tree, and allocates nothing per node. It is not safe for
// concurrent use; the ColumnOrder it reads is.
type Segments struct {
	Order *ColumnOrder
	// Rows[c] holds the loaded rows of column c in segment order and
	// Vals[c][k] is that column's value for row Rows[c][k].
	Rows [][]int32
	Vals [][]float64

	rowBuf []int32
	valBuf []float64
	// left[i] is 1 when row i goes to the left child of the node being
	// split, else 0; Load first uses it as the tree's membership mark.
	left    []uint8
	tmpRows []int32
	tmpVals []float64
	tmpIdx  []int
}

// NewSegments returns scratch that can load up to maxCols columns of
// order at once.
func NewSegments(order *ColumnOrder, maxCols int) *Segments {
	n := 0
	if len(order.Rows) > 0 {
		n = len(order.Rows[0])
	}
	return &Segments{
		Order:   order,
		Rows:    make([][]int32, 0, maxCols),
		Vals:    make([][]float64, 0, maxCols),
		rowBuf:  make([]int32, maxCols*n),
		valBuf:  make([]float64, maxCols*n),
		left:    make([]uint8, n),
		tmpRows: make([]int32, n),
		tmpVals: make([]float64, n),
		tmpIdx:  make([]int, n),
	}
}

// Load lays out the columns cols of the order over the rows in rows,
// which may repeat a row; each distinct row is laid out once. Rows[c]
// then holds column cols[c], and the root's range is [0, m), where m,
// the number of distinct rows, is returned. Load panics if cols holds
// more columns than NewSegments was sized for.
func (s *Segments) Load(cols, rows []int) int {
	if len(cols) > cap(s.Rows) {
		panic("ml: Segments.Load: more columns than the scratch holds")
	}
	clear(s.left) // MarkLeft leaves the last tree's marks
	for _, i := range rows {
		s.left[i] = 1
	}
	n := len(s.left)
	s.Rows, s.Vals = s.Rows[:len(cols)], s.Vals[:len(cols)]
	m := 0
	for c, f := range cols {
		dr := s.rowBuf[c*n : (c+1)*n : (c+1)*n]
		dv := s.valBuf[c*n : (c+1)*n : (c+1)*n]
		vals := s.Order.Vals[f]
		m = 0
		for k, i := range s.Order.Rows[f] {
			dr[m], dv[m] = i, vals[k]
			m += int(s.left[i])
		}
		s.Rows[c], s.Vals[c] = dr[:m], dv[:m]
	}
	return m
}

// MarkLeft marks every row of the range [lo, hi) of loaded column c as
// going left when its value is <= thr and right otherwise, and returns
// mid: the range is in value order, so the left rows are [lo, mid).
func (s *Segments) MarkLeft(c, lo, hi int, thr float64) (mid int) {
	mid = lo
	vals := s.Vals[c]
	for k, i := range s.Rows[c][lo:hi] {
		var l uint8
		if vals[lo+k] <= thr {
			l = 1
		}
		s.left[i] = l
		mid += int(l)
	}
	return mid
}

// Partition stably reorders the range [lo, hi) of every loaded column
// so that the rows MarkLeft marked left come first. The loop has no
// branch on the mark: each row is written to both the left cursor and
// the right scratch, and only one cursor advances.
func (s *Segments) Partition(lo, hi int) {
	tr, tv := s.tmpRows, s.tmpVals
	for c := range s.Rows {
		rows, vals := s.Rows[c][lo:hi], s.Vals[c][lo:hi]
		l, r := 0, 0
		for k, i := range rows {
			v := vals[k]
			m := int(s.left[i])
			rows[l], vals[l] = i, v
			tr[r], tv[r] = i, v
			l += m
			r += 1 - m
		}
		copy(rows[l:], tr[:r])
		copy(vals[l:], tv[:r])
	}
}

// PartitionRows stably reorders a node's row list (which may repeat a
// row) so that the rows MarkLeft marked left come first.
func (s *Segments) PartitionRows(rows []int) {
	if len(rows) > len(s.tmpIdx) {
		s.tmpIdx = make([]int, len(rows))
	}
	tmp := s.tmpIdx
	l, r := 0, 0
	for _, i := range rows {
		m := int(s.left[i])
		rows[l] = i
		tmp[r] = i
		l += m
		r += 1 - m
	}
	copy(rows[l:], tmp[:r])
}
