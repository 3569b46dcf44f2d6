package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/modelstore"
	"repro/internal/obs"
)

// newStoreServer builds a server over a shared model-store directory,
// simulating one process lifetime with -modeldir.
func newStoreServer(t *testing.T, dir string) *Server {
	t.Helper()
	store, err := modelstore.Open(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	return New(testCampaign(t), Config{
		Workers:        4,
		RequestTimeout: time.Minute,
		ModelRegistry:  modelstore.NewRegistry(store),
	})
}

// TestWarmStartAcrossRestart is the serve-level warm-start contract:
// a first server fits and persists, a "restarted" server over the same
// directory answers the same request from disk — no fit on the hot
// path, proven by a FitHook that fails the test — with a bit-identical
// response body.
func TestWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	db := testCampaign(t)
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"model":"rf","samples":5,"seed":3}`, firstBench(db))

	cold := newStoreServer(t, dir)
	rec, coldResp := post(t, cold, "/v1/predict/uc1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold predict: %d: %s", rec.Code, rec.Body.String())
	}
	if ss := cold.pred.ModelStore().Stats(); ss.Misses != 1 || ss.SaveErrors != 0 {
		t.Fatalf("cold stats: %+v, want 1 miss, 0 save errors", ss)
	}

	warm := newStoreServer(t, dir)
	warm.pred.SetFitHook(func(info core.FitInfo) error {
		t.Errorf("restarted server fitted %v despite a warm store", info)
		return nil
	})
	rec2, warmResp := post(t, warm, "/v1/predict/uc1", body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("warm predict: %d: %s", rec2.Code, rec2.Body.String())
	}
	if ss := warm.pred.ModelStore().Stats(); ss.DiskHits != 1 || ss.Misses != 0 {
		t.Fatalf("warm stats: %+v, want 1 disk hit, 0 misses", ss)
	}
	// The distribution payload must be bit-identical; elapsed_ms is the
	// one legitimately volatile field.
	for _, field := range []string{"quantiles", "histogram", "moments", "modes", "ks_vs_measured", "w1_vs_measured"} {
		if !reflect.DeepEqual(coldResp[field], warmResp[field]) {
			t.Errorf("warm-start %s differs from the fitting server's:\ncold: %v\nwarm: %v",
				field, coldResp[field], warmResp[field])
		}
	}
}

// TestStatusReportsModelStore checks the /v1/status wiring — the
// model_store block appears exactly when a registry is configured —
// and that /v1/metrics mirrors exactly its counters as modelstore.*
// gauges.
func TestStatusReportsModelStore(t *testing.T) {
	s := newStoreServer(t, t.TempDir())
	db := testCampaign(t)
	body := fmt.Sprintf(`{"system":"intel","benchmark":%q,"model":"rf","samples":5}`, firstBench(db))
	if rec, _ := post(t, s, "/v1/predict/uc1", body); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d", rec.Code)
	}
	rec, decoded := get(t, s, "/v1/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d", rec.Code)
	}
	ms, ok := decoded["model_store"].(map[string]any)
	if !ok {
		t.Fatalf("status lacks model_store: %v", decoded)
	}
	if ms["misses"].(float64) != 1 {
		t.Fatalf("model_store misses = %v, want 1", ms["misses"])
	}
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(getRec(t, s, "/v1/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	mirrored := 0
	for name, v := range snap.Gauges {
		field, ok := strings.CutPrefix(name, "modelstore.")
		if !ok {
			continue
		}
		mirrored++
		if want, ok := ms[field]; !ok || want.(float64) != v {
			t.Errorf("gauge %s = %v, status model_store.%s = %v", name, v, field, want)
		}
	}
	if mirrored != len(ms) {
		t.Errorf("/v1/metrics mirrors %d modelstore gauges, /v1/status reports %d counters: %v", mirrored, len(ms), ms)
	}

	plain := newTestServer(t)
	if _, decoded := get(t, plain, "/v1/status"); decoded["model_store"] != nil {
		t.Fatal("storeless server reports a model_store block")
	}
}
