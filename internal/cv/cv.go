// Package cv provides the cross-validation splitter used by the
// paper's evaluation: leave-one-group-out (each benchmark is a group, so
// a model is always tested on an application it never saw during
// training), plus a parallel fold-evaluation driver.
// It replaces scikit-learn's LeaveOneGroupOut machinery.
package cv

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Split is one train/test partition of example indices.
type Split struct {
	// Group labels the held-out group.
	Group string
	// Train and Test hold row indices into the original dataset.
	Train, Test []int
}

// LeaveOneGroupOut returns one split per distinct group label: the split
// whose Group is g tests on every example with label g and trains on all
// others. Splits are ordered by the first appearance of each group.
func LeaveOneGroupOut(groups []string) ([]Split, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("cv: no groups")
	}
	order := make([]string, 0)
	seen := make(map[string]bool)
	for _, g := range groups {
		if !seen[g] {
			seen[g] = true
			order = append(order, g)
		}
	}
	if len(order) < 2 {
		return nil, fmt.Errorf("cv: leave-one-group-out needs >= 2 groups, got %d", len(order))
	}
	splits := make([]Split, 0, len(order))
	for _, g := range order {
		var s Split
		s.Group = g
		for i, gi := range groups {
			if gi == g {
				s.Test = append(s.Test, i)
			} else {
				s.Train = append(s.Train, i)
			}
		}
		splits = append(splits, s)
	}
	return splits, nil
}

// EvaluateParallel runs eval(i, splits[i]) for every split concurrently
// on the shared worker pool (at most GOMAXPROCS goroutines exist at any
// moment, no matter how many splits there are). Every split runs to
// completion: a failing split does not cancel the others, and ctx
// contributes only its obs span, under which every fold records a
// "cv.fold" child span tagged with its group.
//
// errs[i] is split i's error as eval returned it, nil when the split
// succeeded. err is the failure with the lowest split index, wrapped as
// "cv: split <group>: ...", so which error a caller sees does not
// depend on scheduling; it is nil when every split succeeded.
func EvaluateParallel(ctx context.Context, splits []Split, eval func(i int, s Split) error) (errs []error, err error) {
	errs = make([]error, len(splits))
	// The item function never returns an error and cancellation is
	// stripped from the context, so every split runs.
	_ = parallel.ForEach(context.WithoutCancel(ctx), len(splits), 0, func(ctx context.Context, i int) error {
		s := splits[i]
		_, span := obs.Start(ctx, "cv.fold")
		span.SetAttr("group", s.Group)
		defer span.End()
		errs[i] = eval(i, s)
		return nil
	})
	for i, e := range errs {
		if e != nil {
			return errs, fmt.Errorf("cv: split %q: %w", splits[i].Group, e)
		}
	}
	return errs, nil
}
