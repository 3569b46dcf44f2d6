package cv

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestLeaveOneGroupOut(t *testing.T) {
	groups := []string{"a", "b", "a", "c", "b"}
	splits, err := LeaveOneGroupOut(groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("got %d splits, want 3", len(splits))
	}
	// First-appearance order: a, b, c.
	if splits[0].Group != "a" || splits[1].Group != "b" || splits[2].Group != "c" {
		t.Errorf("split order = %v %v %v", splits[0].Group, splits[1].Group, splits[2].Group)
	}
	// Split "a": test = {0, 2}, train = {1, 3, 4}.
	if fmt.Sprint(splits[0].Test) != "[0 2]" || fmt.Sprint(splits[0].Train) != "[1 3 4]" {
		t.Errorf("split a: test=%v train=%v", splits[0].Test, splits[0].Train)
	}
	// Every split partitions all indices.
	for _, s := range splits {
		all := append(append([]int(nil), s.Train...), s.Test...)
		sort.Ints(all)
		if len(all) != len(groups) {
			t.Errorf("split %q does not cover all rows: %v", s.Group, all)
		}
		for i, v := range all {
			if v != i {
				t.Errorf("split %q covers %v", s.Group, all)
				break
			}
		}
	}
}

func TestLeaveOneGroupOutErrors(t *testing.T) {
	if _, err := LeaveOneGroupOut(nil); err == nil {
		t.Error("empty groups should fail")
	}
	if _, err := LeaveOneGroupOut([]string{"x", "x"}); err == nil {
		t.Error("single group should fail")
	}
}

func TestEvaluateParallelOrderAndValues(t *testing.T) {
	splits, _ := LeaveOneGroupOut([]string{"a", "b", "c", "d"})
	got := make([]string, len(splits))
	errs, err := EvaluateParallel(context.Background(), splits, func(i int, s Split) error {
		got[i] = fmt.Sprintf("%s:%d", s.Group, s.Test[0])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 4 {
		t.Fatalf("got %d errors, want one per split", len(errs))
	}
	for i, e := range errs {
		if e != nil {
			t.Errorf("split %d: error %v", i, e)
		}
	}
	if fmt.Sprint(got) != "[a:0 b:1 c:2 d:3]" {
		t.Errorf("eval saw %v, want each split at its own index", got)
	}
}

func TestEvaluateParallelPropagatesError(t *testing.T) {
	splits, _ := LeaveOneGroupOut([]string{"a", "b", "c"})
	boom := errors.New("boom")
	_, err := EvaluateParallel(context.Background(), splits, func(i int, s Split) error {
		if s.Group == "b" {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := `cv: split "b": boom`; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

// TestEvaluateParallelBoundsGoroutines is the regression test for the
// unbounded-spawn bug: the old implementation created one goroutine per
// split before the semaphore gated execution; the pool must now keep
// the goroutine count near GOMAXPROCS no matter how many splits exist.
func TestEvaluateParallelBoundsGoroutines(t *testing.T) {
	groups := make([]string, 2000)
	for i := range groups {
		groups[i] = fmt.Sprintf("g%04d", i)
	}
	splits, err := LeaveOneGroupOut(groups)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	if _, err := EvaluateParallel(context.Background(), splits, func(i int, s Split) error {
		if g := int64(runtime.NumGoroutine()); g > peak.Load() {
			peak.Store(g)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > int64(base+runtime.GOMAXPROCS(0)+16) {
		t.Errorf("peak goroutines %d for 2000 splits (base %d): spawning is not bounded", got, base)
	}
}

// TestEvaluateParallelLowestIndexErrorWins pins which error a failed
// evaluation returns: the pool observes split 3's failure first (split 1
// sleeps before failing), yet the returned error is split 1's at every
// worker count.
func TestEvaluateParallelLowestIndexErrorWins(t *testing.T) {
	splits, _ := LeaveOneGroupOut([]string{"a", "b", "c", "d", "e"})
	errOne, errThree := errors.New("fold one"), errors.New("fold three")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		errs, err := EvaluateParallel(context.Background(), splits, func(i int, s Split) error {
			switch i {
			case 1:
				time.Sleep(20 * time.Millisecond)
				return errOne
			case 3:
				return errThree
			}
			return nil
		})
		if !errors.Is(err, errOne) || errors.Is(err, errThree) {
			t.Errorf("GOMAXPROCS %d: err = %v, want split 1's error", procs, err)
		}
		if errs[1] != errOne || errs[3] != errThree || errs[0] != nil || errs[2] != nil || errs[4] != nil {
			t.Errorf("GOMAXPROCS %d: errs = %v, want failures at 1 and 3 only", procs, errs)
		}
	}
}

func TestEvaluateParallelRecordsFailuresAndContinues(t *testing.T) {
	splits, err := LeaveOneGroupOut([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	errs, err := EvaluateParallel(context.Background(), splits, func(i int, s Split) error {
		ran.Add(1)
		if s.Group == "b" {
			return errors.New("poisoned fold")
		}
		return nil
	})
	if err == nil {
		t.Fatal("a failed split must fail the evaluation")
	}
	if got := ran.Load(); got != 4 {
		t.Errorf("%d splits ran, want all 4", got)
	}
	for i, e := range errs {
		if (e != nil) != (splits[i].Group == "b") {
			t.Errorf("split %q: error %v, want one only on the poisoned split", splits[i].Group, e)
		}
	}
}
