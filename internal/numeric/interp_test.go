package numeric

import "testing"

func TestLinearInterp(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 10, 0}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1, 10}, {1.25, 7.5}, {2, 0}, {3, 0},
	}
	for _, c := range cases {
		if got := LinearInterp(xs, ys, c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("LinearInterp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLinearInterpDegenerate(t *testing.T) {
	if got := LinearInterp([]float64{1}, []float64{5}, 3); got != 5 {
		t.Errorf("single point interp = %v, want 5", got)
	}
	if got := LinearInterp(nil, nil, 3); got != 0 {
		t.Errorf("empty interp = %v, want 0", got)
	}
}

func TestInverseMonotone(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 0.25, 0.75, 1}
	cases := []struct{ target, want float64 }{
		{0, 0}, {0.25, 1}, {0.5, 1.5}, {1, 3}, {-0.5, 0}, {1.5, 3},
	}
	for _, c := range cases {
		if got := InverseMonotone(xs, ys, c.target); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("InverseMonotone(%v) = %v, want %v", c.target, got, c.want)
		}
	}
}

func TestInverseMonotoneFlatSegment(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 0.5, 0.5}
	got := InverseMonotone(xs, ys, 0.5)
	if got < 1 || got > 2 {
		t.Errorf("flat-segment inverse = %v, want within [1,2]", got)
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !almostEqual(xs[i], want[i], 1e-15) {
			t.Errorf("Linspace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	if xs[4] != 1 {
		t.Error("endpoint must be exact")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}
