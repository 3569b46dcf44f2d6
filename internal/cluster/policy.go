package cluster

// Policy ranks the replicas a request may be sent to, most preferred
// first. The router forwards to the first candidate and walks the rest
// on retryable failure, so a policy expresses preference, not
// admission: returning no candidates fails the request with 503.
// CacheAffinity is the only implementation.
type Policy interface {
	// Name identifies the policy in status payloads.
	Name() string
	// Candidates returns replica IDs in forwarding order. Down replicas
	// must not appear; Degraded replicas should trail Ready ones.
	Candidates(key string, v View) []string
}

// CacheAffinity is the router's policy: the key's owner first — that
// replica holds the cell's trained models warm — then the ring
// fallback sequence, Ready before Degraded throughout. Unkeyed
// requests fall back to sorted order.
type CacheAffinity struct{}

// Name implements Policy.
func (CacheAffinity) Name() string { return "cache-affinity" }

// Candidates implements Policy.
func (CacheAffinity) Candidates(key string, v View) []string {
	seq := v.Sequence
	if v.Owner != "" && (len(seq) == 0 || seq[0] != v.Owner) {
		// The owner table may disagree with the pure ring (bounded-load
		// overflow); the table wins, the ring order follows.
		reordered := make([]string, 0, len(seq))
		reordered = append(reordered, v.Owner)
		for _, id := range seq {
			if id != v.Owner {
				reordered = append(reordered, id)
			}
		}
		seq = reordered
	}
	return readyThenDegraded(seq, v)
}

// PolicyByName resolves a policy name: "" and "cache-affinity" give
// CacheAffinity, anything else nil.
func PolicyByName(name string) Policy {
	if name == "" || name == "cache-affinity" {
		return CacheAffinity{}
	}
	return nil
}
