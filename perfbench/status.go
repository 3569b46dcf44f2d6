package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/measure"
	"repro/internal/serve"
)

// getJSON fetches and decodes one status document.
func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// driftState sums the drift cells of every replica's /v1/status.
type driftState struct {
	trips, refitOK, refitFail, refitting int
	tripped                              []string // cells that tripped at least once
}

func readDrift(ctx context.Context, replicaURLs []string) (driftState, error) {
	var d driftState
	for _, u := range replicaURLs {
		var st serve.StatusResponse
		if err := getJSON(ctx, u+"/v1/status", &st); err != nil {
			return d, err
		}
		if st.Drift == nil {
			continue
		}
		for _, c := range st.Drift.Cells {
			d.trips += c.Trips
			d.refitOK += c.RefitOK
			d.refitFail += c.RefitFail
			if c.State == "refitting" {
				d.refitting++
			}
			if c.Trips > 0 {
				d.tripped = append(d.tripped, c.Cell)
			}
		}
	}
	sort.Strings(d.tripped)
	return d, nil
}

// settledDrift polls until every tripped cell has finished its refit,
// or the wait budget runs out.
func settledDrift(ctx context.Context, replicaURLs []string, want int) (driftState, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		d, err := readDrift(ctx, replicaURLs)
		if err != nil {
			return d, err
		}
		if d.refitting == 0 && d.refitOK+d.refitFail >= d.trips && d.trips >= want || time.Now().After(deadline) {
			return d, nil
		}
		select {
		case <-ctx.Done():
			return d, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// driftProblems checks the drift episode's outcome: each system's
// designated cell tripped once and refitted once, and nothing else did.
func driftProblems(d driftState, db *measure.Database) []string {
	var want []string
	for i := range db.Systems {
		want = append(want, db.Systems[i].SystemName+"/"+driftCell(&db.Systems[i]))
	}
	sort.Strings(want)
	var out []string
	if d.trips != len(want) || d.refitOK != len(want) || d.refitFail != 0 {
		out = append(out, fmt.Sprintf("drift: %d trips, %d refits, %d failed refits; want %d, %d, 0",
			d.trips, d.refitOK, d.refitFail, len(want), len(want)))
	}
	if fmt.Sprint(d.tripped) != fmt.Sprint(want) {
		out = append(out, fmt.Sprintf("drift: tripped cells %v, want %v", d.tripped, want))
	}
	return out
}

// ownerShare reads the router's status: the largest replica's share of
// requests served, and the served counts.
func ownerShare(ctx context.Context, routerURL string) (float64, cluster.Status, error) {
	var st cluster.Status
	if err := getJSON(ctx, routerURL+"/v1/cluster/status", &st); err != nil {
		return 0, st, err
	}
	var total, top uint64
	for _, r := range st.Replicas {
		total += r.Served
		top = max(top, r.Served)
	}
	if total == 0 {
		return 0, st, nil
	}
	return float64(top) / float64(total), st, nil
}

// clusterReport waits for the drift episode's refits and returns a
// line describing the tier's posture, plus what the output check must
// flag.
func clusterReport(ctx context.Context, t *tier, db *measure.Database) (string, []string, error) {
	replicas := []string{t.procs[0].url(), t.procs[1].url()}
	d, err := settledDrift(ctx, replicas, len(db.Systems))
	if err != nil {
		return "", nil, err
	}
	share, st, err := ownerShare(ctx, t.url)
	if err != nil {
		return "", nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  cluster: owner share max %.3f;", share)
	for _, r := range st.Replicas {
		fmt.Fprintf(&b, " %s served %d owns %d keys;", r.ID, r.Served, r.OwnedKeys)
	}
	fmt.Fprintf(&b, " drift trips %d refits %d %v", d.trips, d.refitOK, d.tripped)
	return b.String(), driftProblems(d, db), nil
}
