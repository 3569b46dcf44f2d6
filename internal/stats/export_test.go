package stats

// GridDensity exposes CountModes' scattered grid evaluation to the
// external equivalence test, which needs packages that import stats.
func (k *KDE) GridDensity(lo, step float64, n int) []float64 { return k.gridDensity(lo, step, n) }
