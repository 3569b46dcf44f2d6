package ml

import "slices"

// ColumnOrder is a design matrix's feature columns sorted once for
// exact greedy split search (Chen & Guestrin 2016, Alg. 1): Rows[f]
// lists every row index ordered by (X[i][f], i), and Vals[f][k] is
// X[Rows[f][k]][f]. The tree learners lay each tree's rows of these
// columns out in Segments and split each node's range from there. The
// order of any subset of rows under this total order is the one a
// per-node sort by the same key would produce, so presorting changes no
// split. Values compare with
// <, so −0 and +0 tie and fall back to the row index; X must hold no
// NaN, which Dataset.Validate guarantees.
//
// A ColumnOrder is read-only after SortColumns, so concurrent fits may
// share one.
type ColumnOrder struct {
	Rows [][]int32
	Vals [][]float64
}

// SortColumns presorts every column of X (rows = examples).
func SortColumns(X [][]float64) *ColumnOrder {
	n := len(X)
	p := 0
	if n > 0 {
		p = len(X[0])
	}
	c := &ColumnOrder{Rows: make([][]int32, p), Vals: make([][]float64, p)}
	rows := make([]int32, n*p)
	vals := make([]float64, n*p)
	for f := 0; f < p; f++ {
		r := rows[f*n : (f+1)*n : (f+1)*n]
		for i := range r {
			r[i] = int32(i)
		}
		slices.SortFunc(r, func(a, b int32) int {
			va, vb := X[a][f], X[b][f]
			switch {
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return int(a - b)
		})
		v := vals[f*n : (f+1)*n : (f+1)*n]
		for k, i := range r {
			v[k] = X[i][f]
		}
		c.Rows[f], c.Vals[f] = r, v
	}
	return c
}
