package modelstore

import "testing"

// TestDatasetKeyGolden pins DatasetKey byte-for-byte. The rendering is
// shared by two consumers that must never disagree: KeySpec.Key embeds
// it in every content address (a drift re-addresses every stored
// model), and the cluster router hashes it to place cells on replicas
// (a drift would send requests to replicas whose registries are cold).
func TestDatasetKeyGolden(t *testing.T) {
	cases := []struct {
		useCase        int
		system, target string
		want           string
	}{
		{1, "intel", "", "uc1|sys=intel|dst="},
		{2, "intel", "amd", "uc2|sys=intel|dst=amd"},
		{1, "", "", "uc1|sys=|dst="},
		{2, "a|b", "c", "uc2|sys=a|b|dst=c"},
	}
	for _, c := range cases {
		if got := DatasetKey(c.useCase, c.system, c.target); got != c.want {
			t.Errorf("DatasetKey(%d, %q, %q) = %q, want %q", c.useCase, c.system, c.target, got, c.want)
		}
	}
}

// TestKeySpecKeyGolden pins full content addresses for fixed specs, so
// a rendering change in either DatasetKey or KeySpec.Key (which would
// silently invalidate every model on disk) fails loudly here instead.
func TestKeySpecKeyGolden(t *testing.T) {
	cases := []struct {
		spec KeySpec
		want string
	}{
		{
			KeySpec{UseCase: 1, System: "intel", Holdout: "npb/bt", Model: "knn{k=15,metric=cosine}", DatasetFP: 0x0123456789abcdef},
			"10fd4655db9c28e6ea3e15a78e73e06f0ee6daa8e822e5fb15702c9c9eaed1f6",
		},
		{
			KeySpec{UseCase: 2, System: "intel", Target: "amd", Model: "xgb{rounds=60,depth=3,eta=0.12,sub=0.9,col=0.8,seed=1}", DatasetFP: 0xfeedface},
			"c96cae8282b929c539a783ed0295ffdcd1a16c0755627c6eab0e6f649d69a390",
		},
	}
	for i, c := range cases {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("case %d: KeySpec.Key() = %s, want %s", i, got, c.want)
		}
	}
}

// TestKeyEmbedsDatasetKey pins the coupling direction: two specs that
// differ only in fields outside the dataset cell share the DatasetKey,
// and specs with different cells never share one — the property the
// router's cache-affinity placement relies on.
func TestKeyEmbedsDatasetKey(t *testing.T) {
	a := KeySpec{UseCase: 1, System: "intel", Model: "knn{k=15,metric=cosine}"}
	b := a
	b.Holdout = "npb/bt"
	if DatasetKey(a.UseCase, a.System, a.Target) != DatasetKey(b.UseCase, b.System, b.Target) {
		t.Fatal("holdout changed the dataset key; routing would split one cell across replicas")
	}
	if a.Key() == b.Key() {
		t.Fatal("different holdouts produced the same content address")
	}
	c := a
	c.System = "amd"
	if DatasetKey(a.UseCase, a.System, a.Target) == DatasetKey(c.UseCase, c.System, c.Target) {
		t.Fatal("different systems produced the same dataset key")
	}
}
