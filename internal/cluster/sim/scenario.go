package sim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/modelstore"
)

// ScalingPoint is one replica-count measurement from the scaling
// scenario.
type ScalingPoint struct {
	Replicas   int
	Requests   int
	Makespan   time.Duration
	Throughput float64 // requests per virtual second
}

// Speedup returns this point's throughput relative to base.
func (p ScalingPoint) Speedup(base ScalingPoint) float64 {
	if base.Throughput <= 0 {
		return 0
	}
	return p.Throughput / base.Throughput
}

// ScenarioKeys builds nKeys distinct dataset routing keys through the
// exported modelstore derivation — the exact bytes production routing
// hashes.
func ScenarioKeys(nKeys int) []string {
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = modelstore.DatasetKey(1, fmt.Sprintf("sys%04d", i), "")
	}
	return keys
}

// UniformSchedule spreads nRequests over the keys round-robin with a
// fixed virtual arrival interval, starting at start.
func UniformSchedule(keys []string, nRequests int, start, interval time.Duration) Schedule {
	sched := make(Schedule, nRequests)
	for i := range sched {
		sched[i] = Event{
			At: start + time.Duration(i)*interval,
			Req: cluster.Request{
				Method: "POST",
				Path:   "/v1/predict/uc1",
				Key:    keys[i%len(keys)],
			},
		}
	}
	return sched
}

// ScalingScenario runs the same saturating workload against fleets of
// each given size and reports virtual-time throughput per size. The
// load factor is pinned tight (1.05) so bounded-load placement, not
// hash luck, determines balance; arrivals come faster than any fleet
// can serve, so makespan measures capacity.
func ScalingScenario(ctx context.Context, replicaCounts []int, nKeys, nRequests int, service time.Duration, seed uint64) ([]ScalingPoint, error) {
	keys := ScenarioKeys(nKeys)
	maxN := 1
	for _, n := range replicaCounts {
		if n > maxN {
			maxN = n
		}
	}
	interval := service / time.Duration(2*maxN)
	if interval <= 0 {
		interval = time.Millisecond
	}
	var points []ScalingPoint
	for _, n := range replicaCounts {
		_, res, err := scalingRun(ctx, n, keys, nRequests, service, interval, seed)
		if err != nil {
			return nil, err
		}
		if lost := res.Lost(); lost > 0 {
			return nil, fmt.Errorf("sim: scaling run with %d replicas lost %d requests", n, lost)
		}
		points = append(points, ScalingPoint{
			Replicas:   n,
			Requests:   len(res.Outcomes),
			Makespan:   res.Makespan,
			Throughput: res.Throughput(),
		})
	}
	return points, nil
}

// scalingRun is one fleet size of ScalingScenario: n identical
// replicas under a 1.05 load factor, fed the uniform schedule.
func scalingRun(ctx context.Context, n int, keys []string, nRequests int, service, interval time.Duration, seed uint64) (*Harness, *Result, error) {
	cfgs := make([]ReplicaConfig, n)
	for i := range cfgs {
		cfgs[i] = ReplicaConfig{ID: fmt.Sprintf("replica-%d", i), ServiceTime: service}
	}
	h, err := NewHarness(cfgs, seed, func(c *cluster.Config) { c.LoadFactor = 1.05 })
	if err != nil {
		return nil, nil, err
	}
	return h, h.Run(ctx, UniformSchedule(keys, nRequests, 0, interval)), nil
}
